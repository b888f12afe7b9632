package hydra

// Steady-state execution contracts: the prepared, state-reusing path must
// match fresh execution byte for byte on dataless databases (generator
// streams are rewound by SeekRow, not reopened), and the hot
// scan→filter→count loop must allocate nothing per query after warmup —
// the zero-allocation audit behind the ledger's engine.steady_allocs.

import (
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
// multi-aggregate alike — reuse its scratch interval sets and the shared
// aggregation state, allocating nothing.
func TestSteadyStateZeroAllocSummaryAgg(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60",
		"SELECT s.a, COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.a < 60 GROUP BY s.a",
	} {
		prep, err := Prepare(db, sql, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var st engine.ExecState
		res, err := prep.ExecuteIn(&st, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Path != engine.PathSummary {
			t.Fatalf("%s: answered via %q, want the summary-direct path", sql, res.Path)
		}
		wantRows, wantCount := res.Rows, res.Count
		allocs := testing.AllocsPerRun(200, func() {
			res, err := prep.ExecuteIn(&st, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows != wantRows || res.Count != wantCount {
				t.Fatalf("result drifted: %d/%d, want %d/%d", res.Rows, res.Count, wantRows, wantCount)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: summary-direct steady state allocates %.2f objects per query, want 0", sql, allocs)
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

// TestSteadyStateZeroAllocJoin pins the contract on the hash-join probe: a
// Prepared filtered join drains its build side once, at Prepare, and
// repeated ExecuteIn — probing the frozen key index with every regenerated
// (or, pruned, every qualifying) probe row — allocates nothing.
func TestSteadyStateZeroAllocJoin(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	for _, c := range []struct {
		regime string
		sql    string
	}{
		{engine.PathRegen, "SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a < 50"},
		{engine.PathPruned, "SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a < 50 AND r.t_fk < 30"},
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
// group table, key arenas, accumulators, output order — and allocates
// nothing.
func TestSteadyStateZeroAllocGroupBy(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	// Both shapes would otherwise be answered summary-directly.
	opts := ExecOptions{Regime: engine.PathPruned}
	for _, sql := range []string{
		"SELECT s.a, COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.a < 60 GROUP BY s.a",
		"SELECT DISTINCT s.a, s.b FROM s",
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
		want := res.Rows
		if want == 0 {
			t.Fatalf("%s: steady-state query produced no groups", sql)
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
// order permutation, top-K heap, selection buffers — and allocate nothing.
func TestSteadyStateZeroAllocOrderBy(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	for _, sql := range []string{
		"SELECT * FROM s WHERE s.a < 60 ORDER BY s.b DESC LIMIT 10 OFFSET 2",
		"SELECT * FROM s ORDER BY s.b DESC",
		"SELECT DISTINCT t.c FROM t ORDER BY t.c DESC LIMIT 3",
	} {
		prep, err := Prepare(db, sql, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var st engine.ExecState
		res, err := prep.ExecuteIn(&st, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := res.Rows
		if want == 0 {
			t.Fatalf("%s: steady-state query produced no rows", sql)
		}
		allocs := testing.AllocsPerRun(200, func() {
			res, err := prep.ExecuteIn(&st, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows != want {
				t.Fatalf("rows drifted: %d, want %d", res.Rows, want)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady state allocates %.2f objects per query, want 0", sql, allocs)
		}
	}
}
