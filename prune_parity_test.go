package hydra

// Cross-front parity for predicate pushdown into generation (scan pruning):
// every entry point at every worker count (eachFront) must return results
// byte-identical to the materialized database under full regeneration,
// which scans every stored tuple and filters afterward. The suite sweeps
// selectivities from 0% to 100% (including boundary-straddling and
// mid-cycle windows, primary-key position restrictions, and a residual
// two-column conjunction), on the toy and TPC-DS-like workloads, and
// asserts that pruning actually fires where it must — guarding against a
// regression that silently scans unpruned while parity keeps passing.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/toy"
	"repro/internal/tpcds"
)

// pruneProbe is one sweep point: a query plus whether its predicate must
// provably remove tuples on the seed-42 toy summary, and whether every
// conjunct is proven there, so that no FILTER operator may remain.
type pruneProbe struct {
	sql       string
	wantPrune bool
	absorbed  bool
}

// toyPruneProbes sweeps selectivity on the toy schema: s has 500 rows with
// a ∈ [0,100) and b ∈ [0,1000), r has 10000 rows keyed 0..9999, t has 100
// rows with c ∈ [0,10).
var toyPruneProbes = []pruneProbe{
	// 0%: the whole table is provably dead; every summary row is skipped.
	{"SELECT * FROM s WHERE s.a >= 1000", true, false},
	{"SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 1000", true, false},
	// ~0.1%: a primary-key window restricts positions directly — ten of
	// r's ten thousand tuples survive, everything else is never generated.
	{"SELECT * FROM r WHERE r.r_pk >= 5000 AND r.r_pk < 5010", true, true},
	{"SELECT * FROM s WHERE s.s_pk >= 100 AND s.s_pk < 101", true, false},
	// ~1%: a single-point window mid-cycle on a cycling column.
	{"SELECT * FROM s WHERE s.a >= 20 AND s.a < 21", true, false},
	{"SELECT s.b FROM s WHERE s.b >= 495 AND s.b < 500 ORDER BY s.b", true, false},
	// Low-selectivity filtered join and sort — the tentpole's target shape.
	{"SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 22", true, true},
	{"SELECT * FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 22 ORDER BY s.b DESC LIMIT 5", true, false},
	// ~50%: boundary-straddling windows (capture boundaries sit at 20/40/60).
	{"SELECT * FROM s WHERE s.a >= 19 AND s.a < 61", true, false},
	{"SELECT * FROM s WHERE s.a >= 20 AND s.a < 60", true, true},
	// Mid-cycle two-point window.
	{"SELECT * FROM s WHERE s.a >= 40 AND s.a < 42", true, false},
	// Residual conjunction: two independently restricted cycling columns —
	// the first drives position generation, the filter re-checks the second.
	{"SELECT * FROM s WHERE s.a >= 20 AND s.a < 60 AND s.b >= 100 AND s.b < 900", true, false},
	// 100%: nothing is pruned, but the filter is still provably absorbable.
	{"SELECT * FROM s WHERE s.a >= 0", false, true},
	{"SELECT * FROM s WHERE s.b >= 0 AND s.b < 1000000", false, false},
}

// prunedRows sums the scan nodes' prune accounting across an executed tree.
func prunedRows(n *engine.ExecNode) int64 {
	total := n.RowsPruned
	for _, c := range n.Children {
		total += prunedRows(c)
	}
	return total
}

// pruneFronts runs sql on every entry point under the PathPruned ceiling
// (the operator pipeline is the thing under test, so the summary-direct
// answer stands aside) and compares each against the materialized database
// mat under PathRegen (oracle). The dataless db under the PathRegen ceiling
// must prune nothing and give the same answer. Pruning is a pure function
// of summary and predicate, so every entry point must observe the
// identical pruned-row count, report the path that count implies, and open
// the identical operator tree — an absorbed filter is gone at every worker
// count, a residual one present at each. Returns the count and the tree.
func pruneFronts(t *testing.T, db, mat *Database, sql string) (int64, *engine.ExecNode) {
	t.Helper()
	want := oracle(t, mat, sql, 8)
	regen, err := Query(db, sql, ExecOptions{SampleLimit: 8, Regime: engine.PathRegen})
	if err != nil {
		t.Fatalf("%s [regen ceiling]: %v", sql, err)
	}
	if got := prunedRows(regen.Root); got != 0 || regen.Path != engine.PathRegen {
		t.Errorf("%s: the regen ceiling pruned %d rows on path %q", sql, got, regen.Path)
	}
	sameValues(t, sql+" [regen ceiling]", regen, want)
	pruned, tree := int64(-1), (*engine.ExecNode)(nil)
	eachFront(t, db, sql, ExecOptions{SampleLimit: 8, Regime: engine.PathPruned}, func(label string, res *ExecResult) {
		sameValues(t, label, res, want)
		got := prunedRows(res.Root)
		if pruned < 0 {
			pruned, tree = got, res.Root // the first entry point is ad hoc: its tree outlives the call
		}
		if got != pruned {
			t.Errorf("%s: pruned %d rows, the first entry point pruned %d", label, got, pruned)
		}
		sameNode(t, label, res.Root, tree)
		if (res.Path == engine.PathPruned) != (got > 0) || res.Path == engine.PathSummary {
			t.Errorf("%s: path %q with %d rows pruned", label, res.Path, got)
		}
	})
	return pruned, tree
}

// hasOp reports whether the tree holds an operator of the given kind.
func hasOp(n *engine.ExecNode, op string) bool {
	for _, c := range n.Children {
		if hasOp(c, op) {
			return true
		}
	}
	return n.Op == op
}

func TestScanPruneParityToy(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	mat := mustMaterialize(t, sum)
	for _, probe := range toyPruneProbes {
		pruned, tree := pruneFronts(t, db, mat, probe.sql)
		if probe.wantPrune && pruned == 0 {
			t.Errorf("%s: expected pruning to fire, scanned unpruned", probe.sql)
		}
		if probe.absorbed && hasOp(tree, "FILTER") {
			t.Errorf("%s: every conjunct is provable, yet a FILTER operator remains", probe.sql)
		}
	}
	// The captured workloads ride along: parity must hold on every query the
	// summary was built for, whether or not its filters prune.
	queries := append(append(toy.Workload(), toy.GroupWorkload()...), toy.SortWorkload()...)
	firing := int64(0)
	for _, sql := range queries {
		pruned, _ := pruneFronts(t, db, mat, sql)
		firing += pruned
	}
	if firing == 0 {
		t.Fatal("scan pruning fired on no workload query; the pruned path has regressed")
	}
}

func TestScanPruneParityTPCDS(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload parity")
	}
	s := tpcds.Schema(0.25)
	db, err := tpcds.GenerateDatabase(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries := tpcds.Workload(40, 11)
	pkg, err := core.CaptureClient(db, queries, core.CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := Build(pkg, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	regen := core.RegenDatabase(sum, 0)
	mat := mustMaterialize(t, sum)
	firing := int64(0)
	all := append(append(queries, tpcds.GroupWorkload()...), tpcds.SortWorkload()...)
	for _, sql := range all {
		pruned, _ := pruneFronts(t, regen, mat, sql)
		firing += pruned
	}
	if firing == 0 {
		t.Fatal("scan pruning fired on no TPC-DS query; the pruned path has regressed")
	}
}
