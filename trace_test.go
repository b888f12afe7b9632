package hydra

// Query-level tracing contracts: the span tree a traced execution returns
// must mirror the plan's shape with identical per-operator cardinalities on
// every entry point at every worker count (eachFront), and tracing must not
// change any answer. The traced steady state shares the
// zero-allocation contract: spans are allocated with the operator tree at
// open and cleared by each operator's rewind, so ExecuteIn with Trace on
// allocates nothing after warmup.

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/toy"
	"repro/internal/trace"
)

// spanShape flattens a span tree into a preorder signature of per-operator
// identity and cardinality — the part of a trace that must be invariant
// across execution fronts (timings are not).
func spanShape(sp *TraceSpan) []string {
	var out []string
	var walk func(sp *TraceSpan, depth int)
	walk = func(sp *TraceSpan, depth int) {
		out = append(out, fmt.Sprintf("%d:%s:%s:rows=%d:detached=%v:children=%d",
			depth, sp.Op, sp.Detail, sp.Rows, sp.Detached, len(sp.Children)))
		for _, ch := range sp.Children {
			walk(ch, depth+1)
		}
	}
	walk(sp, 0)
	return out
}

// checkSpanMirrorsPlan walks span and plan trees in lockstep: same shape,
// same ops, and span rows equal to the ExecNode's observed cardinality.
func checkSpanMirrorsPlan(t *testing.T, label string, sp *TraceSpan, node *ExecNode) {
	t.Helper()
	if sp == nil || node == nil {
		t.Fatalf("%s: trace/plan missing: span=%v node=%v", label, sp, node)
	}
	if sp.Op != node.Op {
		t.Fatalf("%s: span op %q, plan op %q", label, sp.Op, node.Op)
	}
	if sp.Rows != node.OutRows {
		t.Fatalf("%s: %s span rows %d, plan out_rows %d", label, sp.Op, sp.Rows, node.OutRows)
	}
	if len(sp.Children) != len(node.Children) {
		t.Fatalf("%s: %s span has %d children, plan %d", label, sp.Op, len(sp.Children), len(node.Children))
	}
	for i := range sp.Children {
		checkSpanMirrorsPlan(t, label, sp.Children[i], node.Children[i])
	}
}

// TestTraceSpanParityAcrossFronts executes every toy workload query traced
// on every entry point and holds each span tree to the sequential
// reference: identical preorder shape, ops, details, cardinalities, and
// detached markers, with the answer itself unchanged by tracing. The three
// ExecuteIn rounds on one state also pin that the reused spans report
// single-execution counters each time, not accumulations, and that build
// sides, which are never rewound, keep their drain's counts.
func TestTraceSpanParityAcrossFronts(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	type traced struct{ sql, regime string }
	var queries []traced
	for _, sql := range append(append(toy.Workload(), toy.GroupWorkload()...), toy.SortWorkload()...) {
		queries = append(queries, traced{sql, ""})
	}
	// Joins whose probe leaf is filtered too, the shapes a parallel worker's
	// pipeline takes below the join: scan→probe over a row space pruned to a
	// pk window (the filter absorbed), scan→filter→probe over a pruned scan
	// with a residual, and, under the regen ceiling, scan→filter→probe over
	// the whole table beside a build side whose own FILTER a Prepared serves
	// frozen.
	for _, sql := range []string{
		"SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND r.r_pk >= 2000 AND r.r_pk < 9000 AND s.a < 50",
		"SELECT * FROM r, s WHERE r.s_fk = s.s_pk AND r.s_fk >= 100 AND r.t_fk < 50 AND s.a < 50 AND s.b >= 100",
	} {
		queries = append(queries, traced{sql, ""}, traced{sql, engine.PathRegen})
	}
	for _, q := range queries {
		sql, opts := q.sql+" ["+q.regime+"]", ExecOptions{SampleLimit: 4, Regime: q.regime}
		untraced, err := Query(db, q.sql, opts)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if untraced.Trace != nil {
			t.Fatalf("%s: untraced execution grew a span tree", sql)
		}

		opts.Trace = true
		ref, err := Query(db, q.sql, opts)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if ref.Trace == nil {
			t.Fatalf("%s: traced execution returned no span tree", sql)
		}
		if ref.Rows != untraced.Rows || ref.Count != untraced.Count {
			t.Fatalf("%s: tracing changed the answer: %d/%d vs %d/%d",
				sql, ref.Rows, ref.Count, untraced.Rows, untraced.Count)
		}
		checkSpanMirrorsPlan(t, sql+" [seq]", ref.Trace, ref.Root)
		if ref.Trace.DurNS < 0 || ref.Trace.StopNS < ref.Trace.StartNS {
			t.Fatalf("%s: root span window corrupt: %+v", sql, ref.Trace)
		}
		refShape := spanShape(ref.Trace)

		eachFront(t, db, q.sql, opts, func(label string, res *ExecResult) {
			if res.Rows != ref.Rows || res.Count != ref.Count {
				t.Fatalf("%s: answer drifted: %d/%d, want %d/%d", label, res.Rows, res.Count, ref.Rows, ref.Count)
			}
			if res.Trace == nil {
				t.Fatalf("%s: no span tree", label)
			}
			got := spanShape(res.Trace)
			if len(got) != len(refShape) {
				t.Fatalf("%s: span tree has %d nodes, reference %d:\n%v\nvs\n%v",
					label, len(got), len(refShape), got, refShape)
			}
			for i := range got {
				if got[i] != refShape[i] {
					t.Fatalf("%s: span[%d] = %s, reference %s", label, i, got[i], refShape[i])
				}
			}
		})
	}
}

// TestSteadyStateZeroAllocTraced extends the zero-allocation audit to
// tracing: ExecuteIn with Trace on reuses the tree's spans (cleared on
// rewind, not reallocated), so the steady state allocates nothing on the count,
// grouped, and sorted shapes alike — the structural half of the ledger's
// engine.trace_overhead_share.
func TestSteadyStateZeroAllocTraced(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60",
		"SELECT s.a, COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.a < 60 GROUP BY s.a",
		"SELECT * FROM s WHERE s.a < 60 ORDER BY s.b DESC LIMIT 10 OFFSET 2",
	} {
		prep, err := Prepare(db, sql, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var st engine.ExecState
		res, err := prep.ExecuteIn(&st, ExecOptions{Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Trace == nil {
			t.Fatalf("%s: traced ExecuteIn returned no span tree", sql)
		}
		wantRows, wantSpanRows := res.Rows, res.Trace.Rows
		allocs := testing.AllocsPerRun(200, func() {
			res, err := prep.ExecuteIn(&st, ExecOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows != wantRows || res.Trace.Rows != wantSpanRows {
				t.Fatalf("traced steady state drifted: rows %d span %d, want %d/%d",
					res.Rows, res.Trace.Rows, wantRows, wantSpanRows)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: traced steady state allocates %.2f objects per query, want 0", sql, allocs)
		}
	}
}

// scrubTimings replaces the run-dependent fields of a rendered trace —
// every time=, self=, and build= value — with X, leaving structure, ops,
// cardinalities, and selectivities for the golden comparison.
func scrubTimings(s string) string {
	re := regexp.MustCompile(`(time|self|build)=[^ )]+`)
	return re.ReplaceAllString(s, "$1=X")
}

// TestExplainAnalyzeGolden pins the rendered EXPLAIN ANALYZE output for a
// join query on the toy database: tree drawing, operator details, observed
// cardinalities, selectivities, the positional build leaves, and — under
// full regeneration — the drained, detached build sides and their build=
// clocks, with only the timing values scrubbed; and for a sampled top-K
// shaped like the benchmark's R3, the late sort and its scan's columns.
func TestExplainAnalyzeGolden(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	for _, c := range []struct {
		sql    string
		opts   ExecOptions
		golden string
	}{
		{toy.Query, ExecOptions{}, explainGolden},
		{toy.Query, ExecOptions{Regime: engine.PathRegen}, explainRegenGolden},
		{explainTopKQuery, ExecOptions{SampleLimit: 8}, explainTopKGolden},
	} {
		res, err := Query(db, "EXPLAIN ANALYZE "+c.sql, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("EXPLAIN ANALYZE returned no span tree")
		}
		got := scrubTimings(RenderTrace(res.Trace))
		want := strings.TrimPrefix(c.golden, "\n")
		if got != want {
			t.Fatalf("%s %+v: EXPLAIN ANALYZE render drifted:\n--- got ---\n%s--- want ---\n%s", c.sql, c.opts, got, want)
		}
	}
}

// TestExplainAnalyzeSummaryAggGolden pins the rendered EXPLAIN ANALYZE
// output when the summary-direct fast path answers: a single SUMMARY AGG
// span naming the table and how many summary rows the evaluator walked,
// with the one output row it produced.
func TestExplainAnalyzeSummaryAggGolden(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	res, err := Query(db, "EXPLAIN ANALYZE SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != engine.PathSummary {
		t.Fatalf("explain query took path %q, want the summary-direct path", res.Path)
	}
	if res.Trace == nil {
		t.Fatal("EXPLAIN ANALYZE returned no trace")
	}
	got := scrubTimings(RenderTrace(res.Trace))
	want := "SUMMARY AGG s [5 summary rows]  (time=X self=X rows=1 batches=1 bytes=8)\n"
	if got != want {
		t.Fatalf("summary-direct EXPLAIN ANALYZE render drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRenderTraceParallelShape pins that a parallel execution renders the
// same tree shape (ops and cardinalities) as sequential execution — the
// mode-invariance the span merge exists for.
func TestRenderTraceParallelShape(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	seq, err := Query(db, toy.Query, ExecOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	oversubscribe(t, 4)
	par, err := Query(db, toy.Query, ExecOptions{Trace: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Batch counts are mode-dependent (morsel boundaries chunk the same rows
	// differently), so the cross-front comparison scrubs them alongside the
	// timings; rows, bytes, and selectivity must agree exactly.
	batchRE := regexp.MustCompile(`batches=\d+`)
	scrub := func(sp *trace.Span) string {
		return batchRE.ReplaceAllString(scrubTimings(trace.Render(sp)), "batches=N")
	}
	if scrub(seq.Trace) != scrub(par.Trace) {
		t.Fatalf("parallel render diverged from sequential:\n%s\nvs\n%s",
			scrub(par.Trace), scrub(seq.Trace))
	}
	// toy.Query has no sink, so it drains sequentially at any Parallelism;
	// its COUNT(*) form drains the same spine on the workers and merges
	// their spans.
	count := strings.Replace(toy.Query, "SELECT *", "SELECT COUNT(*)", 1)
	if seq, err = Query(db, count, ExecOptions{Trace: true}); err != nil {
		t.Fatal(err)
	}
	if par, err = Query(db, count, ExecOptions{Trace: true, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	if scrub(seq.Trace) != scrub(par.Trace) {
		t.Fatalf("parallel COUNT(*) render diverged from sequential:\n%s\nvs\n%s",
			scrub(par.Trace), scrub(seq.Trace))
	}
}

// explainGolden is the scrubbed EXPLAIN ANALYZE rendering of toy.Query on
// the seed-42 toy summary. Regenerate by running this test with -v after an
// intentional render change and copying the "got" block. Both single-table
// filters are fully absorbed by scan pruning, and both joins are on the
// build table's primary key, so each build side is positional: looked up in
// its summary within the qualifying row-space, it drains nothing (rows=0,
// no build= clock) and reports what generation never materialized. Both
// joins run in place in the scan's batches: a join emits one batch per
// probe batch holding a match, and materializes only build columns — none
// here, unsampled — so it reports no bytes.
const explainGolden = `
HASH JOIN r.t_fk = t.t_pk  (time=X self=X rows=531 batches=2 sel=13.5%)
├── HASH JOIN r.s_fk = s.s_pk  (time=X self=X rows=3924 batches=4 sel=39.2%)
│   ├── SCAN r  (time=X self=X rows=10000 batches=10 bytes=160000)
│   └── SCAN s [pruned 305 rows, skipped 3 summary rows] [positional]  (time=X self=X rows=0 batches=0 detached)
└── SCAN t [pruned 86 rows, skipped 2 summary rows] [positional]  (time=X self=X rows=0 batches=0 detached)
`

// explainRegenGolden is the same query under the PathRegen ceiling: the
// filters run as operators over whole scans, and every build side is
// drained at open — detached from self time, its wall clock the join's
// build=. Each build's keys are unique, so both joins still run in place.
const explainRegenGolden = `
HASH JOIN r.t_fk = t.t_pk  (time=X self=X rows=531 batches=2 build=X sel=13.5%)
├── HASH JOIN r.s_fk = s.s_pk  (time=X self=X rows=3924 batches=4 build=X sel=38.5%)
│   ├── SCAN r  (time=X self=X rows=10000 batches=10 bytes=160000)
│   └── FILTER a ∈ {[20,60)}  (time=X self=X rows=195 batches=1 sel=39.0% detached)
│       └── SCAN s  (time=X self=X rows=500 batches=1 bytes=8000)
└── FILTER c ∈ {[2,3)}  (time=X self=X rows=14 batches=1 sel=14.0% detached)
    └── SCAN t  (time=X self=X rows=100 batches=1 bytes=1600)
`

// explainTopKQuery is the benchmark's R3 shape on the toy's r: a top-K
// over a whole regenerated table, sampled, with an OFFSET.
const explainTopKQuery = "SELECT * FROM r ORDER BY r.t_fk DESC LIMIT 5 OFFSET 2"

// explainTopKGolden is explainTopKQuery's rendering. The sort is late: its
// scan generates every tuple of r but materializes only the sort key and
// the primary key, and the sort reads s_fk from the summary for the 7 rows
// it emits. It emits them in one batch, which holds exactly those rows: a
// root sink's batch is sized to what it emits.
const explainTopKGolden = `
LIMIT  (time=X self=X rows=5 batches=1 sel=71.4%)
└── SORT [late]  (time=X self=X rows=7 batches=1 bytes=168 sel=0.1%)
    └── SCAN r [cols r_pk, t_fk]  (time=X self=X rows=10000 batches=10 bytes=160000)
`
