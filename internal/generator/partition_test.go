package generator

import (
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// bigCyclingSummary exercises seeks landing mid-cycling-interval: one
// summary row whose multi-interval cycling set length (6) does not divide
// the row count, preceded and followed by other rows.
func bigCyclingSummary() *synopsis.Relation {
	return &synopsis.Relation{
		Table: "t",
		Total: 913,
		Rows: []synopsis.Row{
			{Count: 5, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 7),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(0, 3))),
			}},
			{Count: 901, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 42),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(10, 13), value.Point(20), value.Ival(30, 32))),
			}},
			{Count: 7, Specs: []synopsis.ColSpec{
				synopsis.SetSpec(1, value.NewIntervalSet(value.Point(5))),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(0, 10))),
			}},
		},
	}
}

// singleRowSummary has one tuple per summary row (the shape dimension
// relations with singleton atoms produce).
func singleRowSummary() *synopsis.Relation {
	rows := make([]synopsis.Row, 9)
	for i := range rows {
		rows[i] = synopsis.Row{Count: 1, Specs: []synopsis.ColSpec{
			synopsis.FixedSpec(1, int64(i*3)),
			synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(int64(i), int64(i)+2))),
		}}
	}
	return &synopsis.Relation{Table: "t", Total: 9, Rows: rows}
}

func partitionSummaries() map[string]*synopsis.Relation {
	return map[string]*synopsis.Relation{
		"edge":      edgeSummary(),
		"cycling":   bigCyclingSummary(),
		"singleRow": singleRowSummary(),
		"empty":     {Table: "t"},
	}
}

// TestPartitionConcatenationParity is the core partitioning contract: for
// every summary shape and partition count — including counts far larger
// than Total — concatenating the partitions' outputs is byte-identical to
// the sequential stream.
func TestPartitionConcatenationParity(t *testing.T) {
	tbl := genTable()
	for name, rel := range partitionSummaries() {
		want := lawRows(tbl, rel)
		for _, n := range []int{1, 2, 3, 5, 7, 16, 100, 2000} {
			parts := NewStream(tbl, rel).Partition(n)
			if len(parts) != n {
				t.Fatalf("%s: Partition(%d) returned %d streams", name, n, len(parts))
			}
			var got [][]int64
			var sumTotals int64
			for _, p := range parts {
				sumTotals += p.Total()
				got = append(got, readAll(p, p.Cols(), 3)...)
			}
			if sumTotals != rel.Total {
				t.Fatalf("%s n=%d: partition totals sum to %d, want %d", name, n, sumTotals, rel.Total)
			}
			sameRows(t, name, got, want)
		}
	}
}

// TestSectionParity checks arbitrary (including degenerate) row ranges.
func TestSectionParity(t *testing.T) {
	tbl := genTable()
	for name, rel := range partitionSummaries() {
		want := lawRows(tbl, rel)
		parent := NewStream(tbl, rel)
		bounds := []struct{ lo, hi int64 }{
			{0, rel.Total},                   // full range
			{0, 0},                           // empty prefix
			{rel.Total, rel.Total},           // empty suffix
			{rel.Total / 2, rel.Total / 2},   // empty middle
			{1, rel.Total - 1},               // interior (when non-degenerate)
			{-5, rel.Total + 5},              // clamped overshoot
			{rel.Total / 3, rel.Total/3 + 1}, // single row
		}
		for _, bd := range bounds {
			lo, hi := bd.lo, bd.hi
			cl, ch := lo, hi
			if cl < 0 {
				cl = 0
			}
			if cl > rel.Total {
				cl = rel.Total
			}
			if ch > rel.Total {
				ch = rel.Total
			}
			if ch < cl {
				ch = cl
			}
			got := readAll(parent.Section(lo, hi), len(tbl.Columns), 4)
			sameRows(t, name, got, want[cl:ch])
		}
	}
}

// TestSeekRowMatchesSequential seeks to every position of every summary —
// in particular positions landing mid-cycling-interval — and requires the
// remainder of the stream to equal the sequential tail.
func TestSeekRowMatchesSequential(t *testing.T) {
	tbl := genTable()
	for name, rel := range partitionSummaries() {
		want := lawRows(tbl, rel)
		step := int64(1)
		if rel.Total > 64 {
			step = 13 // sample positions, keeping mid-interval phases
		}
		for i := int64(0); i <= rel.Total; i += step {
			s := NewStream(tbl, rel)
			s.SeekRow(i)
			sameRows(t, name, readAll(s, s.Cols(), 5), want[i:])
		}
	}
}

// TestSeekRowAfterConsumption re-seeks a partially consumed stream,
// including backwards and past both ends.
func TestSeekRowAfterConsumption(t *testing.T) {
	tbl := genTable()
	rel := bigCyclingSummary()
	want := lawRows(tbl, rel)
	s := NewStream(tbl, rel)
	all := batch.AllCols(s.Cols())
	if b := batch.NewCol(s.Cols(), 100, all); !s.NextColBatch(b, all) || b.Len() != 100 {
		t.Fatalf("consumed %d rows, want 100", b.Len())
	}
	s.SeekRow(17)
	sameRows(t, "backward seek", readAll(s, s.Cols(), 7), want[17:])
	s.SeekRow(rel.Total + 99) // clamped to the end: exhausted
	if got := readAll(s, s.Cols(), 7); len(got) != 0 {
		t.Fatalf("seek past end still produced %v", got)
	}
	s.SeekRow(-3) // clamped to the start
	sameRows(t, "seek clamped to start", readAll(s, s.Cols(), 7), want)
}

// pacedClock builds a 10-row stream paced at one row per second on an
// injected clock that records every sleep.
func pacedClock() (p *Paced, t0 time.Time, slept *[]time.Duration) {
	rel := &synopsis.Relation{Table: "t", Total: 10, Rows: []synopsis.Row{
		{Count: 10, Specs: []synopsis.ColSpec{
			synopsis.FixedSpec(1, 1),
			synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(0, 3))),
		}},
	}}
	p = NewPaced(NewStream(genTable(), rel), 1)
	t0 = time.Unix(1000, 0)
	clock := t0
	slept = new([]time.Duration)
	p.now = func() time.Time { return clock }
	p.sleep = func(d time.Duration) { *slept = append(*slept, d); clock = clock.Add(d) }
	return p, t0, slept
}

func sameSleeps(t *testing.T, got, want []time.Duration) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sleeps %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPacedBatchScheduleExact pins the absolute pacing schedule with a
// fake clock: batches of 4, 4, and 2 rows at one second per row must
// advance the schedule by exactly 10 seconds — partial final batches are
// credited by the rows they actually hold, the call that discovers
// exhaustion charges no phantom row, and the projection is forwarded
// (only the projected column is populated at all).
func TestPacedBatchScheduleExact(t *testing.T) {
	p, t0, slept := pacedClock()
	cols := []int{2}
	b := batch.NewCol(3, 4, cols)
	var lens []int
	for p.NextColBatch(b, cols) {
		lens = append(lens, b.Len())
	}
	if len(lens) != 3 || lens[0] != 4 || lens[1] != 4 || lens[2] != 2 {
		t.Fatalf("batch lengths %v, want [4 4 2]", lens)
	}
	// Absolute schedule: batch 1 starts the clock (no sleep), batch 2 is
	// due when batch 1's 4 rows elapse, batch 3 when batch 2's do.
	sameSleeps(t, *slept, []time.Duration{4 * time.Second, 4 * time.Second})
	// The final partial batch credits exactly its 2 rows: the schedule
	// ends at t0 + 10s, not t0 + 12s, and exhaustion added nothing.
	if want := t0.Add(10 * time.Second); !p.due.Equal(want) {
		t.Fatalf("schedule ends at %v, want %v", p.due, want)
	}
}

// TestPacedRowGranularSchedule pins the velocity contract of `hydra
// generate -rate`, the velocity and whatif examples and E6: the row reader
// over a 1-row batch on a Paced source delivers row i at start + i·interval
// — the first row at once, not after a default-capacity batch's worth of
// schedule — and exhaustion charges nothing.
func TestPacedRowGranularSchedule(t *testing.T) {
	p, t0, slept := pacedClock()
	rows := batch.NewRowReader(p, batch.NewCol(3, 1, batch.AllCols(3)))
	if _, ok := rows.Next(); !ok || len(*slept) != 0 {
		t.Fatalf("first row: ok=%v after sleeps %v, want it at once", ok, *slept)
	}
	n := 1
	for _, ok := rows.Next(); ok; _, ok = rows.Next() {
		n++
	}
	if n != 10 {
		t.Fatalf("%d rows, want 10", n)
	}
	want := make([]time.Duration, 9)
	for i := range want {
		want[i] = time.Second
	}
	sameSleeps(t, *slept, want)
	if end := t0.Add(10 * time.Second); !p.due.Equal(end) {
		t.Fatalf("schedule ends at %v, want %v", p.due, end)
	}
}

// TestConcurrentSections drives Section from many goroutines against one
// parent stream — the parallel executor's access pattern — and checks
// every section's content. Run under -race this pins the thread safety of
// the shared cumulative-count index.
func TestConcurrentSections(t *testing.T) {
	tbl := genTable()
	rel := bigCyclingSummary()
	want := lawRows(tbl, rel)
	parent := NewStream(tbl, rel)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 16; k++ {
				lo := int64((w*16 + k) * 7 % int(rel.Total))
				hi := lo + 11
				if hi > rel.Total {
					hi = rel.Total
				}
				got := readAll(parent.Section(lo, hi), len(tbl.Columns), 4)
				if int64(len(got)) != hi-lo {
					errs <- "wrong section length"
					return
				}
				for i := range got {
					for j := range got[i] {
						if got[i][j] != want[lo+int64(i)][j] {
							errs <- "section content mismatch"
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestNestedSections pins the relative-range contract: Section, Partition,
// and SeekRow on a sub-stream operate on the sub-stream's own row range,
// so sections nest — repartitioning a partition re-covers exactly that
// partition, never the whole relation.
func TestNestedSections(t *testing.T) {
	tbl := genTable()
	rel := bigCyclingSummary()
	want := lawRows(tbl, rel)
	parts := NewStream(tbl, rel).Partition(4)
	quarter := rel.Total / 4
	for k, p := range parts {
		lo := rel.Total * int64(k) / 4
		hi := rel.Total * int64(k+1) / 4
		// Repartitioning a partition must re-cover exactly its range.
		var got [][]int64
		for _, sub := range p.Partition(3) {
			got = append(got, readAll(sub, sub.Cols(), 4)...)
		}
		sameRows(t, "nested partition", got, want[lo:hi])
		// Section bounds are relative to the partition.
		mid := readAll(p.Section(1, quarter-1), p.Cols(), 4)
		sameRows(t, "nested section", mid, want[lo+1:lo+quarter-1])
		// SeekRow is relative too: row 2 of the partition, then drain.
		p.SeekRow(2)
		sameRows(t, "relative seek", readAll(p, p.Cols(), 4), want[lo+2:hi])
	}
}
