package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/batch"
	"repro/internal/parallel"
	"repro/internal/schema"
)

// mapJoinIndex is the join index the flat one replaced, kept as its oracle:
// each key's arena rows appended in drain order.
func mapJoinIndex(key []int64) map[int64][]int32 {
	idx := make(map[int64][]int32)
	for r, k := range key {
		idx[k] = append(idx[k], int32(r))
	}
	return idx
}

// TestJoinIndexMatchesMapOracle drains batch.FromRows build sides of
// (key, row number) pairs through newColJoinBuild at a batch size that
// splits them, then probes every key and its neighbours: the run matches(k)
// bounds must be the oracle's slice, in its order, and a miss must be empty.
func TestJoinIndexMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, set := range []struct {
		name string
		key  func(i int) int64
	}{
		{"all equal", func(int) int64 { return 42 }},
		{"duplicates", func(i int) int64 { return int64(i*7919) % 13 }},
		{"negatives", func(i int) int64 { return -int64(i%97) * 3 }},
		{"extremes", func(i int) int64 { return []int64{0, math.MinInt64, math.MaxInt64}[i%3] }},
		{"stride 32", func(i int) int64 { return int64(i%600) << 32 }},
		{"stride 40", func(i int) int64 { return int64(i) << 40 }},
		{"random", func(int) int64 { return []int64{rng.Int63(), -rng.Int63n(50)}[rng.Intn(2)] }},
	} {
		for _, n := range []int{0, 1, 1000} {
			rows := make([][]int64, n)
			keys := make([]int64, n)
			for i := range rows {
				keys[i] = set.key(i)
				rows[i] = []int64{keys[i], int64(i)}
			}
			label := fmt.Sprintf("%s, %d rows", set.name, n)
			build := &colScanIter{src: rowsScan(rows), width: 2, cols: []int{0, 1}, meter: meter{node: &ExecNode{}}, ctl: &execCtl{}}
			jb, err := newColJoinBuild(build, 2, 0, 64, []int{0, 1}, []int{0, 1})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !slices.Equal(jb.arena[0], keys) || len(jb.slots) < 2*n || len(jb.slots)&(len(jb.slots)-1) != 0 {
				t.Fatalf("%s: arena or slot table malformed (%d slots)", label, len(jb.slots))
			}
			if cap(jb.keys) > n || cap(jb.start) > n+1 {
				t.Fatalf("%s: keys/start capacity %d/%d exceeds the %d build rows", label, cap(jb.keys), cap(jb.start), n)
			}
			oracle := mapJoinIndex(keys)
			for _, k := range append(keys, 1, -1, math.MinInt64+1, math.MaxInt64-1, 5<<32) {
				for _, probe := range []int64{k, k + 1, k - 1} {
					lo, hi := jb.matches(probe)
					if got, want := jb.byKey[lo:hi], oracle[probe]; !slices.Equal(got, want) {
						t.Fatalf("%s: matches(%d) = %v, want %v", label, probe, got, want)
					}
				}
			}
		}
	}
}

// joinOracleSchema returns prb(p_id, p_key, p_val) and bld(b_key, b_val):
// a probe and a build side joined on p_key = b_key, neither key a primary
// key, so the build may repeat keys.
func joinOracleSchema() *schema.Schema {
	col := func(name string, pk bool) *schema.Column {
		return &schema.Column{Name: name, Type: schema.Int, PrimaryKey: pk, DomainLo: -100, DomainHi: 1000}
	}
	return &schema.Schema{Tables: []*schema.Table{
		{Name: "prb", RowCount: 300, Columns: []*schema.Column{col("p_id", true), col("p_key", false), col("p_val", false)}},
		{Name: "bld", RowCount: 80, Columns: []*schema.Column{col("b_key", false), col("b_val", true)}},
	}}
}

// joinOracleDB serves both tables from batch.FromRows sources — the probe
// one partitionable, so parallel executions cut it into morsels. Build keys
// are random in [0, 30) with duplicates, and key 5 holds every fifth row: a
// run of 16+ rows, longer than every small batch size. Probe keys fall in
// [-5, 40), so some miss, and p_val in [0, 10) leaves the filter p_val >= 3
// a selection vector over every probe batch.
func joinOracleDB(t *testing.T) (db *Database, probe, build [][]int64) {
	t.Helper()
	s := joinOracleSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 80; i++ {
		key := int64(rng.Intn(30))
		if i%5 == 0 {
			key = 5
		}
		build = append(build, []int64{key, int64(i)})
	}
	for i := 0; i < 300; i++ {
		probe = append(probe, []int64{int64(i), int64(rng.Intn(45) - 5), int64(rng.Intn(10))})
	}
	db = NewDatabase(s)
	db.SetDatagen("bld", func() (batch.ColProjector, error) { return rowsScan(build), nil })
	db.SetDatagen("prb", func() (batch.ColProjector, error) {
		return sectionedRows{rowsScan(probe).(*batch.RowScan), probe}, nil
	})
	return db, probe, build
}

// nestedLoopJoin is the definitional join: probe rows in order, each
// followed by its matching build rows in drain order, the output row being
// the probe row then the build row. keep filters the probe side.
func nestedLoopJoin(probe, build [][]int64, probeKey, buildKey int, keep func([]int64) bool) [][]int64 {
	var out [][]int64
	for _, p := range probe {
		if !keep(p) {
			continue
		}
		for _, b := range build {
			if p[probeKey] == b[buildKey] {
				out = append(out, append(slices.Clone(p), b...))
			}
		}
	}
	return out
}

// project keeps the need columns of each row, in need order.
func project(rows [][]int64, need []int) [][]int64 {
	out := make([][]int64, len(rows))
	for i, row := range rows {
		out[i] = make([]int64, len(need))
		for k, c := range need {
			out[i][k] = row[c]
		}
	}
	return out
}

// drainProjected drives it to exhaustion through b and returns the need
// columns of every live output row, in output order.
func drainProjected(it colIterator, b *batch.ColBatch, need []int) [][]int64 {
	var rows [][]int64
	for it.Next(b) {
		sel := b.Sel()
		for i := 0; i < b.Live(); i++ {
			r := i
			if sel != nil {
				r = int(sel[i])
			}
			row := make([]int64, len(need))
			for k, c := range need {
				row[k] = b.Col(c)[r]
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// drainJoin opens join pn materializing need, at batch size size, and
// drains it the way the executor does at that parallelism: workers 0 is
// one pipeline over the whole probe; workers >= 1 opens that many
// pipelines over one build cache and hands them the probe's morsels in
// turn, each re-pointing its leaf and resetting its join cursors first.
func drainJoin(t *testing.T, db *Database, pn *PlanNode, need []int, size, workers int) [][]int64 {
	t.Helper()
	builds := &buildCache{m: make(map[*PlanNode]*preparedBuild)}
	var ws []*morselWorker
	for len(ws) < max(workers, 1) {
		ctl := &execCtl{}
		it, width, pop, node, err := openCol(db, pn, need, size, builds, ctl)
		if err != nil {
			t.Fatal(err)
		}
		b := batch.NewCol(width, size, pop)
		if workers == 0 {
			return drainProjected(it, b, need)
		}
		ws = append(ws, newMorselWorker(it, node, b, ctl))
	}
	src := ws[0].leaf.src.(parallel.Source)
	morsels := parallel.NewMorsels(src.Total(), morselRows(src.Total(), workers, size))
	var rows [][]int64
	for i := 0; ; i++ {
		lo, hi, ok := morsels.Next()
		if !ok {
			return rows
		}
		w := ws[i%workers]
		w.leaf.src = src.Section(lo, hi)
		for _, ji := range w.joins {
			ji.reset()
		}
		rows = append(rows, drainProjected(w.top, w.b, need)...)
	}
}

// TestHashJoinMatchesNestedLoopOracle holds the hash join to the
// definitional nested loop, not to another drive of the same operator: the
// parity suites compare colHashJoinIter with itself. Every need set — probe
// columns only, build columns only, both, none (what a COUNT(*) asks) — is
// drained at every batch size and parallelism, and the output must be the
// oracle's rows, in its order. The executor's own fronts run the two need
// sets SQL can spell: SELECT * (sampled, in order) and COUNT(*).
func TestHashJoinMatchesNestedLoopOracle(t *testing.T) {
	oversubscribe(t, 4)
	db, probe, build := joinOracleDB(t)
	want := nestedLoopJoin(probe, build, 1, 0, func(p []int64) bool { return p[2] >= 3 })
	const sql = "SELECT * FROM prb, bld WHERE p_key = b_key AND p_val >= 3"
	plan := mustPlan(t, db, sql)
	count := mustPlan(t, db, "SELECT COUNT(*) FROM prb, bld WHERE p_key = b_key AND p_val >= 3")
	if plan.Root.Op != OpHashJoin || plan.Root.Children[0].Op != OpFilter {
		t.Fatalf("plan root %v over %v, want a hash join over a filtered probe", plan.Root.Op, plan.Root.Children[0].Op)
	}
	needs := []struct {
		name string
		need []int
	}{
		{"probe only", []int{0, 2}},
		{"build only", []int{4}},
		{"both", []int{0, 1, 2, 3, 4}},
		{"none", nil},
	}
	for _, size := range []int{1, 2, 3, 7, 0} {
		for _, workers := range []int{0, 1, 2, 4} {
			for _, n := range needs {
				label := fmt.Sprintf("%s [batch=%d workers=%d]", n.name, size, workers)
				if got := drainJoin(t, db, plan.Root, n.need, size, workers); !reflect.DeepEqual(got, project(want, n.need)) {
					t.Fatalf("%s: %d rows\n got %v\nwant %v", label, len(got), got, project(want, n.need))
				}
			}
			opts := ExecOptions{SampleLimit: len(want) + 1, BatchSize: size, Parallelism: workers}
			res, err := execute(db, plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Sample, want) {
				t.Fatalf("%s [batch=%d workers=%d]: %d rows\n got %v\nwant %v", sql, size, workers, len(res.Sample), res.Sample, want)
			}
			if res, err = execute(db, count, opts); err != nil || res.Count != int64(len(want)) {
				t.Fatalf("COUNT(*) [batch=%d workers=%d] = %v (err %v), want %d", size, workers, res, err, len(want))
			}
		}
	}
}

// pullCounter counts the batches its parent asks of a probe child.
type pullCounter struct {
	colIterator
	pulls int
}

func (c *pullCounter) Next(dst *batch.ColBatch) bool {
	c.pulls++
	return c.colIterator.Next(dst)
}

// openRowsJoin opens a join of probe rows (p_id, p_key, p_val) against build
// rows (b_key, b_val) on p_key = b_key, materializing every column, at batch
// size size; leaf is the probe scan, under a pull counter.
func openRowsJoin(t *testing.T, probe, build [][]int64, size int) (ji *colHashJoinIter, leaf *colScanIter, pulls *pullCounter) {
	t.Helper()
	bscan := &colScanIter{src: rowsScan(build), width: 2, cols: []int{0, 1}, meter: meter{node: &ExecNode{}}, ctl: &execCtl{}}
	jb, err := newColJoinBuild(bscan, 2, 0, size, []int{0, 1}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	leaf = &colScanIter{src: rowsScan(probe), width: 3, cols: []int{0, 1, 2}, meter: meter{node: &ExecNode{}}, ctl: &execCtl{}}
	pulls = &pullCounter{colIterator: leaf}
	ji = newColHashJoinIter(pulls, jb, 3, 1, batch.AllCols(5), []int{0, 1, 2}, size)
	ji.node = &ExecNode{}
	return ji, leaf, pulls
}

// TestHashJoinExhaustedStaysExhausted: once Next has returned false, a
// further Next returns false without pulling the probe again — the final,
// failed pull left the probe batch empty, and a cursor that compared
// against it with == instead of remembering the end would loop forever.
func TestHashJoinExhaustedStaysExhausted(t *testing.T) {
	build := [][]int64{{1, 10}, {1, 11}, {2, 20}}
	probe := [][]int64{{0, 1, 0}, {1, 3, 0}, {2, 2, 0}, {3, 1, 0}}
	for _, size := range []int{1, 2, 3, 0} {
		ji, _, pulls := openRowsJoin(t, probe, build, size)
		b := batch.NewCol(5, size, batch.AllCols(5))
		got := drainProjected(ji, b, batch.AllCols(5))
		if want := nestedLoopJoin(probe, build, 1, 0, func([]int64) bool { return true }); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch=%d: rows %v, want %v", size, got, want)
		}
		drained, out := pulls.pulls, ji.node.OutRows
		for i := 0; i < 3; i++ {
			if ji.Next(b) || b.Len() != 0 {
				t.Fatalf("batch=%d: Next after exhaustion produced %d rows", size, b.Len())
			}
		}
		if pulls.pulls != drained || ji.node.OutRows != out {
			t.Fatalf("batch=%d: Next after exhaustion pulled the probe %d more times, OutRows %d → %d", size, pulls.pulls-drained, out, ji.node.OutRows)
		}
	}
}

// TestHashJoinResetDropsCutRun: a run cut across output batches — key 5's
// ten build rows behind one probe row, at batch size 3 — must not outlive
// reset(), which the parallel executor calls when it re-points a worker's
// leaf at its next morsel: the next probe source's output comes out alone.
func TestHashJoinResetDropsCutRun(t *testing.T) {
	var build [][]int64
	for i := 0; i < 10; i++ {
		build = append(build, []int64{5, int64(i)})
	}
	build = append(build, []int64{6, 60})
	first := [][]int64{{0, 5, 0}}
	next := [][]int64{{1, 6, 0}, {2, 7, 0}, {3, 5, 0}}
	ji, leaf, _ := openRowsJoin(t, first, build, 3)
	b := batch.NewCol(5, 3, batch.AllCols(5))
	if !ji.Next(b) || b.Len() != 3 || ji.mi >= ji.mEnd {
		t.Fatalf("first batch: %d rows, cut run [%d, %d); want 3 rows and a cut run", b.Len(), ji.mi, ji.mEnd)
	}
	leaf.src = rowsScan(next)
	ji.reset()
	got := drainProjected(ji, b, batch.AllCols(5))
	if want := nestedLoopJoin(next, build, 1, 0, func([]int64) bool { return true }); !reflect.DeepEqual(got, want) {
		t.Fatalf("after reset: rows %v, want %v", got, want)
	}
}

// TestHashBuildRowLimit: the join index numbers arena rows as int32, so a
// hash build is refused once its drain passes maxBuildRows rows — checked
// on the row count, which is what newColJoinBuild checks after every
// batch, so the refusal is tested without allocating the rows.
func TestHashBuildRowLimit(t *testing.T) {
	for _, rows := range []int{0, 1, maxBuildRows - 1, maxBuildRows} {
		if err := checkBuildRows(rows); err != nil {
			t.Fatalf("%d rows: %v", rows, err)
		}
	}
	for _, rows := range []int{maxBuildRows + 1, math.MaxInt32 + 4096, math.MaxInt} {
		if err := checkBuildRows(rows); err == nil {
			t.Fatalf("%d rows: a build the int32 index cannot address was accepted", rows)
		}
	}
}
