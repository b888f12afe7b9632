package hydra

// Cross-front parity for the summary-direct aggregate fast path: every
// entry point at every worker count (eachFront) must return results
// byte-identical to the materialized database's answer on the same query,
// whether the summary or the pipeline answered. The suite runs the
// toy and TPC-DS-like workloads plus targeted probes for the arithmetic
// edge cases (boundary-straddling predicates, empty matches, GROUP BY keys
// drawn from cycling sets), and asserts that the fast path actually claims
// a healthy share of eligible queries — guarding against a regression that
// silently falls back everywhere while parity keeps passing.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/toy"
	"repro/internal/tpcds"
)

// saggProbes stresses the evaluator's interval arithmetic on the toy
// schema: summary rows built from real captures have boundary values near
// 20/40/60, so the off-by-one windows below straddle set boundaries.
var saggProbes = []string{
	"SELECT COUNT(*) FROM s",
	"SELECT COUNT(*) FROM s WHERE s.a >= 19 AND s.a < 61",
	"SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60",
	"SELECT COUNT(*) FROM s WHERE s.a >= 21 AND s.a < 59",
	"SELECT COUNT(*) FROM s WHERE s.a >= 1000",
	"SELECT COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s",
	"SELECT COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.b >= 35 AND s.b < 65",
	"SELECT s.a, COUNT(*) FROM s GROUP BY s.a",
	"SELECT s.a, COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.a < 60 GROUP BY s.a",
	"SELECT s.b, COUNT(*), SUM(s.a) FROM s WHERE s.b >= 30 GROUP BY s.b",
	"SELECT DISTINCT s.a FROM s",
	"SELECT DISTINCT s.a FROM s WHERE s.a >= 19 AND s.a < 41",
	"SELECT r.s_fk, COUNT(*) FROM r WHERE r.s_fk < 40 GROUP BY r.s_fk",
	"SELECT COUNT(*), SUM(t.c) FROM t WHERE t.c < 5",
}

// summaryAggFronts runs sql on every entry point of the dataless db under
// the default regime and compares each against the materialized database
// mat (oracle). Returns whether the summary answered (it must answer
// uniformly: every entry point or none).
func summaryAggFronts(t *testing.T, db, mat *Database, sql string) bool {
	t.Helper()
	want := oracle(t, mat, sql, 8)
	path := ""
	eachFront(t, db, sql, ExecOptions{SampleLimit: 8}, func(label string, res *ExecResult) {
		sameValues(t, label, res, want)
		if path == "" {
			path = res.Path
		}
		if res.Path != path {
			t.Errorf("%s: path %q disagrees with the first entry point's %q", label, res.Path, path)
		}
	})
	return path == engine.PathSummary
}

func TestSummaryAggParityToy(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	mat := mustMaterialize(t, sum)
	queries := append(append(toy.Workload(), toy.GroupWorkload()...), toy.SortWorkload()...)
	fast := 0
	for _, sql := range append(queries, saggProbes...) {
		if summaryAggFronts(t, db, mat, sql) {
			fast++
		}
	}
	// Eligibility is a property of the workload, so pin a floor rather than
	// an exact count: the probes alone contribute 14 eligible queries.
	if fast < 14 {
		t.Fatalf("summary-direct path answered only %d queries; the fast path has regressed", fast)
	}
}

func TestSummaryAggParityTPCDS(t *testing.T) {
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
	fast := 0
	all := append(append(queries, tpcds.GroupWorkload()...), tpcds.SortWorkload()...)
	for _, sql := range all {
		if summaryAggFronts(t, regen, mat, sql) {
			fast++
		}
	}
	if fast == 0 {
		t.Fatal("summary-direct path answered no TPC-DS queries; the fast path has regressed")
	}
}
