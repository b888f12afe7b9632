package generator

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/batch"
	"repro/internal/schema"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// lawRows is the Tuple-Generator law written down, not a generator: tuple
// g of the relation, at offset w of its summary row, holds g in the primary
// key, Fixed or Set.At(w mod |Set|) where the row's first spec for the
// column says so, and 0 elsewhere. Every source kind is pinned to it.
func lawRows(tbl *schema.Table, rel *synopsis.Relation) [][]int64 {
	var out [][]int64
	for _, row := range rel.Rows {
		for w := int64(0); w < row.Count; w++ {
			tup := make([]int64, len(tbl.Columns))
			for i := len(row.Specs) - 1; i >= 0; i-- { // descending, so the first spec wins
				if sp := row.Specs[i]; sp.Fixed != nil {
					tup[sp.Col] = *sp.Fixed
				} else {
					tup[sp.Col] = sp.Set.At(w % sp.Set.Len())
				}
			}
			if pk := tbl.PKIndex(); pk >= 0 {
				tup[pk] = int64(len(out))
			}
			out = append(out, tup)
		}
	}
	return out
}

// readRows drains a scan source the one way rows are read: batch.RowReader
// over a batch of the given capacity whose populated columns are the
// projection. Unprojected columns read 0.
func readRows(src batch.ColProjector, width, capRows int, cols []int) [][]int64 {
	r := batch.NewRowReader(src, batch.NewCol(width, capRows, cols))
	var out [][]int64
	for row, ok := r.Next(); ok; row, ok = r.Next() {
		out = append(out, append([]int64(nil), row...))
	}
	return out
}

// readAll is readRows with every column projected.
func readAll(src batch.ColProjector, width, capRows int) [][]int64 {
	return readRows(src, width, capRows, batch.AllCols(width))
}

// project is what readRows yields for rows under a projection: the columns
// outside cols zeroed.
func project(rows [][]int64, cols []int) [][]int64 {
	out := make([][]int64, len(rows))
	for i, row := range rows {
		out[i] = make([]int64, len(row))
		for _, c := range cols {
			out[i][c] = row[c]
		}
	}
	return out
}

// sameRows requires two row slices to be byte-identical.
func sameRows(t *testing.T, label string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d width %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
			}
		}
	}
}

// edgeSummary stresses the batch boundaries: a multi-interval cycling set,
// a Count far larger than small batch capacities (so one summary row spans
// several batches), zero-count rows between populated ones, and a final
// partial batch.
func edgeSummary() *synopsis.Relation {
	return &synopsis.Relation{
		Table: "t",
		Total: 17,
		Rows: []synopsis.Row{
			{Count: 0, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 1)}},
			{Count: 11, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 42),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(2, 4), value.Point(7))),
			}},
			{Count: 0, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 2)}},
			{Count: 6, Specs: []synopsis.ColSpec{
				synopsis.SetSpec(1, value.NewIntervalSet(value.Point(5))),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(0, 10))),
			}},
			{Count: 0, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 3)}},
		},
	}
}

// omitSummary's second row leaves column a unspecced: it must generate 0
// there. With 4+4 rows, any batch capacity up to 4 makes the second row's
// tuples land in slots the first row's a=7 tuples just occupied — the
// stale-storage shape row-major generation once got wrong.
func omitSummary() *synopsis.Relation {
	return &synopsis.Relation{
		Table: "t",
		Total: 8,
		Rows: []synopsis.Row{
			{Count: 4, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 7),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(1, 4))),
			}},
			{Count: 4, Specs: []synopsis.ColSpec{
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(5, 7))),
			}},
		},
	}
}

// unvalidatedSummary carries what Validate rejects — a duplicate spec and a
// spec on the primary key — which the law still resolves one way: first
// spec wins, the key auto-numbers.
func unvalidatedSummary() *synopsis.Relation {
	return &synopsis.Relation{
		Table: "t",
		Total: 5,
		Rows: []synopsis.Row{
			{Count: 5, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(0, 42),
				synopsis.SetSpec(1, value.NewIntervalSet(value.Ival(1, 3))),
				synopsis.FixedSpec(1, 9),
			}},
		},
	}
}

// lawSummaries is every summary shape the law tests run over: the
// partition shapes (batch edges, a long cycling row, singleton rows,
// empty), an all-zero-count relation, and the two the law has opinions on.
func lawSummaries() map[string]*synopsis.Relation {
	s := partitionSummaries()
	s["zeroCount"] = &synopsis.Relation{Table: "t", Rows: []synopsis.Row{
		{Count: 0, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 1)}},
	}}
	s["omit"] = omitSummary()
	s["unvalidated"] = unvalidatedSummary()
	return s
}

// TestEverySourceKindObeysTheLaw pins every scan source the generator
// offers — Stream, Section, Partition, SectionSet and its sections, and
// Paced over each shape — read through the row reader, to lawRows: at
// batch capacities that split summary rows and cycles, and under every
// projection shape (whole rows, single columns, subsets, none).
func TestEverySourceKindObeysTheLaw(t *testing.T) {
	tbl := genTable()
	width := len(tbl.Columns)
	projections := [][]int{{0, 1, 2}, {0}, {1}, {2}, {0, 2}, {1, 2}, nil}
	for name, rel := range lawSummaries() {
		law := lawRows(tbl, rel)
		// Every other run of three positions, so SectionSet hops land
		// mid-row and mid-cycle.
		var ivs value.IntervalSet
		var keptLaw [][]int64
		for lo := int64(1); lo < rel.Total; lo += 6 {
			hi := min(lo+3, rel.Total)
			ivs = append(ivs, value.Ival(lo, hi))
			keptLaw = append(keptLaw, law[lo:hi]...)
		}
		for _, cols := range projections {
			want, kept := project(law, cols), project(keptLaw, cols)
			for _, capRows := range []int{1, 3, 128, 1024} {
				read := func(src batch.ColProjector) [][]int64 { return readRows(src, width, capRows, cols) }
				sameRows(t, name+" Stream", read(NewStream(tbl, rel)), want)
				sameRows(t, name+" Paced", read(NewPaced(NewStream(tbl, rel), 0)), want)

				lo, hi := rel.Total/3, rel.Total-rel.Total/4
				sameRows(t, name+" Section", read(NewStream(tbl, rel).Section(lo, hi)), want[lo:hi])

				var got [][]int64
				for _, p := range NewStream(tbl, rel).Partition(5) {
					got = append(got, read(p)...)
				}
				sameRows(t, name+" Partition", got, want)

				ss := NewStream(tbl, rel).SectionSet(ivs)
				sameRows(t, name+" SectionSet", read(ss), kept)
				n := ss.Total()
				got = append(read(ss.Section(0, n/2)), read(ss.Section(n/2, n))...)
				sameRows(t, name+" SectionSet.Section", got, kept)
				sameRows(t, name+" Paced SectionSet", read(NewPaced(ss.Section(0, n), 0)), kept)
			}
		}
	}
}

// collectBatches drains a stream via the row-major NextBatch.
func collectBatches(s *Stream, capRows int) [][]int64 {
	var out [][]int64
	b := batch.New(s.Cols(), capRows)
	for s.NextBatch(b) {
		for i := 0; i < b.Len(); i++ {
			out = append(out, append([]int64(nil), b.Row(i)...))
		}
	}
	return out
}

// TestNextBatchIsTheKernelPivoted is the one test of the row-major path the
// benchmark still times: NextBatch equals the law at capacities that split
// summary rows, transpose tiles and cycles — including the omit summary at
// capacities up to 4, the regression for row-major batches leaking the
// previous batch's values into a column the summary row leaves unspecced —
// and leaves an exhausted batch empty.
func TestNextBatchIsTheKernelPivoted(t *testing.T) {
	tbl := genTable()
	for name, rel := range lawSummaries() {
		want := lawRows(tbl, rel)
		for _, capRows := range []int{0, 1, 2, 3, 4, 17, tileRows, tileRows + 1, 1000} {
			sameRows(t, name+" NextBatch", collectBatches(NewStream(tbl, rel), capRows), want)
		}
	}
	s := NewStream(tbl, &synopsis.Relation{Table: "t"})
	b := batch.New(s.Cols(), 8)
	if s.NextBatch(b) || b.Len() != 0 {
		t.Fatalf("empty relation: NextBatch produced %d rows", b.Len())
	}
}

// randomLawSummary draws a summary over genTable's columns: rows of 0–9
// tuples (zero-count rows among them), column a Fixed — 0 included, which
// is not the same spec as none — or unspecced, and column fk a cycling set
// of one to three intervals whose length rarely divides the row's count, so
// cycles are cut at row boundaries and restart in the next row. skew moves
// Total off the rows' sum: the stream then stops at whichever ends first.
func randomLawSummary(rng *rand.Rand, skew int64) *synopsis.Relation {
	rel := &synopsis.Relation{Table: "t"}
	for range 1 + rng.Intn(8) {
		row := synopsis.Row{Count: int64(rng.Intn(10))}
		if rng.Intn(3) > 0 {
			row.Specs = append(row.Specs, synopsis.FixedSpec(1, int64(rng.Intn(2)*rng.Intn(50))))
		}
		var set value.IntervalSet
		lo := int64(rng.Intn(5))
		for range 1 + rng.Intn(3) {
			hi := lo + 1 + int64(rng.Intn(4))
			set = append(set, value.Ival(lo, hi))
			lo = hi + 1 + int64(rng.Intn(3))
		}
		row.Specs = append(row.Specs, synopsis.SetSpec(2, set))
		rel.Rows = append(rel.Rows, row)
		rel.Total += row.Count
	}
	rel.Total = max(rel.Total+skew, 0)
	return rel
}

// TestLookupObeysTheLaw pins the point lookup to the kernel: over random
// summaries and every kind of stream — whole, a random row space, a window
// of that — Has finds exactly the primary keys the stream generates, and
// Gather returns the generated tuple's value in every column, for keys in
// generation order and shuffled (so the summary-row cache misses), and
// Scatter writes it at the key's own index, for every key and for a
// random ascending subset (a join's selection), touching nothing else.
// Outside what the stream generates — below 0, past Total, in the row
// space's gaps, beyond the window, at the int64 extremes — there is no
// match.
func TestLookupObeysTheLaw(t *testing.T) {
	tbl := genTable()
	width := len(tbl.Columns)
	rng := rand.New(rand.NewSource(36))
	for i := range 300 {
		rel := randomLawSummary(rng, int64(i%5)-2)
		var ivs []value.Interval
		for lo := int64(rng.Intn(3)); lo < rel.Total; lo += 2 + int64(rng.Intn(5)) {
			hi := min(lo+1+int64(rng.Intn(4)), rel.Total)
			ivs = append(ivs, value.Ival(lo, hi))
			lo = hi
		}
		whole := NewStream(tbl, rel)
		space := whole.SectionSet(ivs)
		n := space.Total()
		streams := map[string]*Stream{
			"whole":  whole,
			"space":  space,
			"window": space.Section(n/4, n-n/3).(*Stream),
		}
		for name, s := range streams {
			label := fmt.Sprintf("summary %d %s", i, name)
			tuples := readAll(s.Section(0, s.Total()), width, 7)
			byKey := make(map[int64][]int64, len(tuples))
			var keys []int64
			for _, tup := range tuples {
				byKey[tup[0]] = tup
				keys = append(keys, tup[0])
			}
			lk := s.Lookup()
			probe := []int64{math.MinInt64, -1, rel.Total, rel.Total + 1, math.MaxInt64}
			for k := int64(-3); k < rel.Total+3; k++ {
				probe = append(probe, k)
			}
			for _, k := range probe {
				if _, want := byKey[k]; lk.Has(k) != want {
					t.Fatalf("%s: Has(%d) = %v, want %v (summary %+v, row space %v)", label, k, !want, want, rel, ivs)
				}
			}
			// Gather reads keys by index: in generation order, and shuffled.
			inOrder := make([]int32, len(keys))
			for j := range inOrder {
				inOrder[j] = int32(j)
			}
			shuffled := append([]int32(nil), inOrder...)
			rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			for _, at := range [][]int32{inOrder, shuffled} {
				for c := range width {
					got := make([]int64, len(at))
					lk.Gather(got, c, keys, at)
					for j, a := range at {
						if k := keys[a]; got[j] != byKey[k][c] {
							t.Fatalf("%s: column %d of tuple %d = %d, want %d (summary %+v)", label, c, k, got[j], byKey[k][c], rel)
						}
					}
				}
			}
			var subset []int32
			for _, a := range inOrder {
				if rng.Intn(3) > 0 {
					subset = append(subset, a)
				}
			}
			for _, at := range [][]int32{inOrder, subset} {
				for c := range width {
					got := make([]int64, len(keys))
					for j := range got {
						got[j] = -7
					}
					lk.Scatter(got, c, keys, at)
					for j, k := range keys {
						want := int64(-7)
						if slices.Contains(at, int32(j)) {
							want = byKey[k][c]
						}
						if got[j] != want {
							t.Fatalf("%s: scattered column %d at row %d (key %d) = %d, want %d (summary %+v)", label, c, j, k, got[j], want, rel)
						}
					}
				}
			}
		}
	}
}
