package hydra

// Steady-state execution contracts: the prepared, state-reusing path must
// match fresh execution byte for byte on dataless databases (generator
// streams are rewound by SeekRow, not reopened), and the hot
// scan→filter→count loop must allocate nothing per query after warmup —
// the zero-allocation audit behind the ledger's engine.steady_allocs.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/toy"
)

func toySummary(t *testing.T) *Summary {
	t.Helper()
	db, err := toy.Database(42)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := Capture(db, toy.Workload(), CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := Build(pkg, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestExecuteInDatalessParity reruns every toy workload query through
// Prepared.ExecuteIn three times on one reused state and holds each run to
// the fresh Query result.
func TestExecuteInDatalessParity(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	queries := append(toy.Workload(), toy.GroupWorkload()...)
	for _, sql := range append(queries, toy.SortWorkload()...) {
		// The reference result is pinned to full regeneration, so this
		// parity run also crosses regimes: ExecuteIn answers eligible
		// aggregates summary-directly and must agree byte for byte.
		want, err := Query(db, sql, ExecOptions{SampleLimit: 4, Regime: engine.PathRegen})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		prep, err := Prepare(db, sql, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var st ExecState
		for round := 0; round < 3; round++ {
			got, err := prep.ExecuteIn(&st, ExecOptions{SampleLimit: 4})
			if err != nil {
				t.Fatalf("%s round %d: %v", sql, round, err)
			}
			if got.Rows != want.Rows || got.Count != want.Count {
				t.Fatalf("%s round %d: rows/count %d/%d, want %d/%d",
					sql, round, got.Rows, got.Count, want.Rows, want.Count)
			}
			if len(got.Sample) != len(want.Sample) {
				t.Fatalf("%s round %d: %d samples, want %d", sql, round, len(got.Sample), len(want.Sample))
			}
			for i := range want.Sample {
				for j := range want.Sample[i] {
					if got.Sample[i][j] != want.Sample[i][j] {
						t.Fatalf("%s round %d: sample[%d] = %v, want %v",
							sql, round, i, got.Sample[i], want.Sample[i])
					}
				}
			}
		}
	}
}

// TestSteadyStateZeroAlloc pins allocs_per_op == 0 for the dataless
// operator pipeline's steady state: after the first ExecuteIn builds the
// reusable state, repeated executions — regenerating every tuple from the
// summary each time — allocate nothing. That holds for scan→filter→count
// and for joins whose build sides are positional, looked up in the summary
// per probe (the shape of the bench/ ledger's engine.steady_allocs, which
// reports this contract).
func TestSteadyStateZeroAlloc(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	// The PathPruned ceiling keeps this audit on the operator pipeline it
	// was written for; the summary-direct path has its own audit below.
	opts := ExecOptions{Regime: engine.PathPruned}
	for _, q := range []struct {
		sql        string
		positional int // positional build leaves the plan must hold
	}{
		{"SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60", 0},
		{"SELECT s.b, COUNT(*), SUM(s.a) FROM r, s WHERE r.s_fk = s.s_pk GROUP BY s.b", 1},
		{toy.Query, 2},
	} {
		sql := q.sql
		prep, err := Prepare(db, sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		var st engine.ExecState
		res, err := prep.ExecuteIn(&st, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(positionalTables(res.Root)); n != q.positional {
			t.Fatalf("%s: %d positional build leaves, want %d", sql, n, q.positional)
		}
		rows, count := res.Rows, res.Count
		allocs := testing.AllocsPerRun(200, func() {
			res, err := prep.ExecuteIn(&st, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows != rows || res.Count != count {
				t.Fatalf("%s: rows/count drifted: %d/%d, want %d/%d", sql, res.Rows, res.Count, rows, count)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady state allocates %.2f objects per query, want 0", sql, allocs)
		}
	}
}

// TestSteadyStateZeroAllocSummaryAgg pins the same contract on the
// summary-direct fast path: after the first ExecuteIn builds and proves the
// evaluator, repeated executions — filtered count and grouped
// multi-aggregate alike, sampled or not — reuse its scratch interval sets,
// the shared aggregation state and the sample rows, allocating nothing.
func TestSteadyStateZeroAllocSummaryAgg(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	for _, opts := range []ExecOptions{{}, {SampleLimit: 8}} {
		for _, sql := range []string{
			"SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60",
			"SELECT s.a, COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.a < 60 GROUP BY s.a",
		} {
			prep, err := Prepare(db, sql, opts)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			var st engine.ExecState
			res, err := prep.ExecuteIn(&st, opts)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if res.Path != engine.PathSummary {
				t.Fatalf("%s: answered via %q, want the summary-direct path", sql, res.Path)
			}
			wantRows, wantCount, sample := res.Rows, res.Count, fmt.Sprint(res.Sample)
			allocs := testing.AllocsPerRun(200, func() {
				if res, err = prep.ExecuteIn(&st, opts); err != nil {
					t.Fatal(err)
				}
				if res.Rows != wantRows || res.Count != wantCount {
					t.Fatalf("result drifted: %d/%d, want %d/%d", res.Rows, res.Count, wantRows, wantCount)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s (sample %d): summary-direct steady state allocates %.2f objects per query, want 0", sql, opts.SampleLimit, allocs)
			}
			if got := fmt.Sprint(res.Sample); got != sample {
				t.Fatalf("%s: recycled sample %s, want %s", sql, got, sample)
			}
		}
	}
}

// TestSteadyStateZeroAllocPruned pins the zero-allocation contract on the
// pruned scan path: a filtered join whose filter is absorbed into the scan's
// row-space executes through restricted streams that rewind in place, so
// repeated ExecuteIn — regenerating only the qualifying tuples each time —
// allocates nothing.
func TestSteadyStateZeroAllocPruned(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	opts := ExecOptions{Regime: engine.PathPruned}
	prep, err := Prepare(db, "SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 22", opts)
	if err != nil {
		t.Fatal(err)
	}
	var st engine.ExecState
	res, err := prep.ExecuteIn(&st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pruned := prunedRows(res.Root); pruned == 0 {
		t.Fatal("audit query did not prune; the pruned steady state is not being exercised")
	}
	want := res.Count
	allocs := testing.AllocsPerRun(200, func() {
		res, err := prep.ExecuteIn(&st, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("count drifted: %d, want %d", res.Count, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("pruned steady state allocates %.2f objects per query, want 0", allocs)
	}
}

// TestSteadyStateZeroAllocJoin pins the contract on the join probe: a
// Prepared filtered join drains its build side once, at Prepare, and
// repeated ExecuteIn — probing the frozen key index with every regenerated
// (or, pruned, every qualifying) probe row — allocates nothing. So does the
// R5 shape, a COUNT(*) over a join into a summary-backed dimension, whose
// build is positional and runs in place, as every join here does.
func TestSteadyStateZeroAllocJoin(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	for _, c := range []struct {
		regime string
		sql    string
	}{
		{engine.PathRegen, "SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a < 50"},
		{engine.PathPruned, "SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a < 50 AND r.t_fk < 30"},
		{engine.PathPruned, "SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 10 AND s.a < 70"},
	} {
		opts := ExecOptions{Regime: c.regime}
		prep, err := Prepare(db, c.sql, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		var st engine.ExecState
		res, err := prep.ExecuteIn(&st, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if res.Path != c.regime || res.Count == 0 {
			t.Fatalf("%s: answered via %q with count %d, want %q and some rows", c.sql, res.Path, res.Count, c.regime)
		}
		want := res.Count
		allocs := testing.AllocsPerRun(200, func() {
			res, err := prep.ExecuteIn(&st, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("count drifted: %d, want %d", res.Count, want)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s at %s: steady state allocates %.2f objects per query, want 0", c.sql, c.regime, allocs)
		}
	}
}

// TestSteadyStateZeroAllocGroupBy extends the zero-allocation audit to the
// hash-aggregation sink, GROUP BY and DISTINCT alike (one state serves
// both): after warmup, repeated ExecuteIn recycles it — open-addressed
// group table, key arenas, accumulators, output order, the root batch it
// sized to its groups — and allocates nothing. The R1 shape, a GROUP BY
// over a join run in place, is audited sampled, positional and under the
// regen ceiling.
func TestSteadyStateZeroAllocGroupBy(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	// The single-table shapes would otherwise be answered summary-directly.
	pruned := ExecOptions{Regime: engine.PathPruned}
	const r1 = "SELECT s.b, COUNT(*), SUM(r.r_pk) FROM r, s WHERE r.s_fk = s.s_pk GROUP BY s.b"
	for _, c := range []struct {
		sql  string
		opts ExecOptions
	}{
		{"SELECT s.a, COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.a < 60 GROUP BY s.a", pruned},
		{"SELECT DISTINCT s.a, s.b FROM s", pruned},
		{r1, ExecOptions{SampleLimit: 8}},
		{r1, ExecOptions{SampleLimit: 8, Regime: engine.PathRegen}},
	} {
		sql, opts := c.sql, c.opts
		prep, err := Prepare(db, sql, opts)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var st engine.ExecState
		res, err := prep.ExecuteIn(&st, opts)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := res.Rows
		if want == 0 || res.Path == engine.PathSummary {
			t.Fatalf("%s: steady-state query produced %d groups via %q, want some from the operator pipeline", sql, want, res.Path)
		}
		allocs := testing.AllocsPerRun(200, func() {
			res, err := prep.ExecuteIn(&st, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows != want {
				t.Fatalf("groups drifted: %d, want %d", res.Rows, want)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady state allocates %.2f objects per query, want 0", sql, allocs)
		}
	}
}

// TestSteadyStateZeroAllocOrderBy extends the zero-allocation audit to the
// sort pipeline: after warmup, repeated ExecuteIn of ORDER BY + LIMIT
// (top-K) and unbounded ORDER BY queries recycle the sort state — arenas,
// order permutation, top-K heap, selection buffers, a late top-K's summary
// cursor — and the sample rows, and allocate nothing, sampled or not.
// Sampled, the scan top-K queries run late (the last is the benchmark's
// R3 shape).
func TestSteadyStateZeroAllocOrderBy(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	for _, opts := range []ExecOptions{{}, {SampleLimit: 8}} {
		for _, q := range []struct {
			sql  string
			late bool // runs late when sampled
		}{
			{"SELECT * FROM s WHERE s.a < 60 ORDER BY s.b DESC LIMIT 10 OFFSET 2", true},
			{"SELECT * FROM s ORDER BY s.b DESC", false},
			{"SELECT DISTINCT t.c FROM t ORDER BY t.c DESC LIMIT 3", false},
			{"SELECT * FROM r ORDER BY r.t_fk DESC LIMIT 100", true},
		} {
			sql := q.sql
			prep, err := Prepare(db, sql, opts)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			var st engine.ExecState
			res, err := prep.ExecuteIn(&st, opts)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want, sample := res.Rows, fmt.Sprint(res.Sample)
			if want == 0 {
				t.Fatalf("%s: steady-state query produced no rows", sql)
			}
			if _, late := lateSortScan(res.Root); late != (q.late && opts.SampleLimit > 0) {
				t.Fatalf("%s (sample %d): late sort %v", sql, opts.SampleLimit, late)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if res, err = prep.ExecuteIn(&st, opts); err != nil {
					t.Fatal(err)
				}
				if res.Rows != want {
					t.Fatalf("rows drifted: %d, want %d", res.Rows, want)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s (sample %d): steady state allocates %.2f objects per query, want 0", sql, opts.SampleLimit, allocs)
			}
			if got := fmt.Sprint(res.Sample); got != sample {
				t.Fatalf("%s: recycled sample %s, want %s", sql, got, sample)
			}
		}
	}
}

// TestFreshStateSampleOwned pins that an execution on a fresh state —
// Query, Prepared.Execute — returns sample rows its caller owns: no later
// execution of the same Prepared writes over them.
func TestFreshStateSampleOwned(t *testing.T) {
	db := core.RegenDatabase(toySummary(t), 0)
	opts := ExecOptions{SampleLimit: 8}
	prep, err := Prepare(db, "SELECT * FROM r ORDER BY r.t_fk DESC LIMIT 5", opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := prep.Execute(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(first.Sample)
	for range 3 {
		res, err := prep.Execute(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Sample {
			clear(row)
		}
	}
	if got := fmt.Sprint(first.Sample); got != want || len(first.Sample) != 5 {
		t.Fatalf("first sample became %s, want %s", got, want)
	}
}
