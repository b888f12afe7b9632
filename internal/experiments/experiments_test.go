package experiments

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/summary"
)

// smallConfig keeps the experiment smoke tests quick.
func smallConfig() Config {
	return Config{Seed: 7, ScaleFactor: 0.2, Queries: 20}
}

func TestE1Example(t *testing.T) {
	var sb strings.Builder
	if err := E1Example(&sb, 42); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"HASH JOIN", "FILTER s", "SCAN r"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("E1 output missing %q", frag)
		}
	}
}

func TestE2RegionVsGrid(t *testing.T) {
	var sb strings.Builder
	if err := E2RegionVsGrid(&sb, smallConfig(), []int{10, 20}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Fatalf("E2 lines = %d:\n%s", len(lines), sb.String())
	}
}

func TestE3DataScaleFree(t *testing.T) {
	if err := E3DataScaleFree(io.Discard, smallConfig(), []float64{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}
}

func TestE4Accuracy(t *testing.T) {
	rep, err := E4Accuracy(io.Discard, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SatisfiedWithin(1.0) < 0.9 {
		t.Errorf("within-100%% satisfaction %.3f", rep.SatisfiedWithin(1.0))
	}
}

func TestE5ErrorVsScale(t *testing.T) {
	if err := E5ErrorVsScale(io.Discard, smallConfig(), []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestE6Velocity(t *testing.T) {
	var sb strings.Builder
	if err := E6Velocity(&sb, smallConfig(), []float64{0, 5000}, 3000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "target_rps") {
		t.Error("E6 output missing header")
	}
}

func TestE7Datagen(t *testing.T) {
	var sb strings.Builder
	if err := E7Datagen(&sb, smallConfig()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "stored_rows=0") {
		t.Error("E7 did not demonstrate dataless tables")
	}
	if !strings.Contains(out, "match=true") {
		t.Errorf("E7 dataless and materialized answers differ:\n%s", out)
	}
}

func TestE8Scenario(t *testing.T) {
	var sb strings.Builder
	if err := E8Scenario(&sb, smallConfig(), []float64{10}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "true") {
		t.Errorf("x10 scenario not feasible:\n%s", sb.String())
	}
}

func TestE9Referential(t *testing.T) {
	if err := E9Referential(io.Discard, smallConfig(), []float64{1, 0.5}); err != nil {
		t.Fatal(err)
	}
}

func TestE10Ablation(t *testing.T) {
	var sb strings.Builder
	if err := E10Ablation(&sb, smallConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no-inhabit") {
		t.Error("ablation variant missing")
	}
}

// TestE11Parallel…TestE14TopK check the engine behaviours whose speed the
// bench/ ledger measures, over smallConfig's warehouse, each against the
// materialized database. The dataless side runs under a regen or pruned
// ceiling, so the operator pipeline, not the summary-direct answer, is what
// gets checked.

// fixture is smallConfig's workload with its dataless and materialized
// databases, built once for the package.
var fixture struct {
	once       sync.Once
	pkg        *core.TransferPackage
	regen, mat *engine.Database
	err        error
}

func engineFixture(t *testing.T) (*core.TransferPackage, *engine.Database, *engine.Database) {
	t.Helper()
	fixture.once.Do(func() {
		if fixture.pkg, fixture.err = capture(smallConfig()); fixture.err != nil {
			return
		}
		var sum *summary.Database
		if sum, _, fixture.err = core.BuildFromPackage(fixture.pkg, summary.DefaultBuildOptions()); fixture.err != nil {
			return
		}
		fixture.regen = core.RegenDatabase(sum, 0)
		fixture.mat, fixture.err = core.MaterializedDatabase(sum)
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.pkg, fixture.regen, fixture.mat
}

func mustPlan(t *testing.T, db *engine.Database, sql string) *engine.Plan {
	t.Helper()
	q, err := sqlkit.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return plan
}

func mustExec(t *testing.T, db *engine.Database, sql string, opts engine.ExecOptions) *engine.ExecResult {
	t.Helper()
	res, err := engine.ExecuteContext(context.Background(), db, mustPlan(t, db, sql), opts)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// sameAnswer fails unless the dataless result got took the operator
// pipeline and agrees with want on rows, count and sample.
func sameAnswer(t *testing.T, label string, got, want *engine.ExecResult) {
	t.Helper()
	if got.Path == engine.PathSummary {
		t.Fatalf("%s: answered on path %q, the pipeline did not run", label, got.Path)
	}
	if got.Rows != want.Rows || got.Count != want.Count || !reflect.DeepEqual(got.Sample, want.Sample) {
		t.Fatalf("%s: rows/count %d/%d sample %v, want %d/%d sample %v",
			label, got.Rows, got.Count, got.Sample, want.Rows, want.Count, want.Sample)
	}
}

// oversubscribe raises GOMAXPROCS to n for the rest of the test, so worker
// counts up to n survive ExecOptions.Normalize's clamp on a small box.
func oversubscribe(t *testing.T, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestE11Parallel: the workload query with the largest scan input returns
// the materialized database's answer and operator tree at every worker
// count.
func TestE11Parallel(t *testing.T) {
	oversubscribe(t, 4)
	pkg, regen, mat := engineFixture(t)
	sql, best := "", -1
	for _, q := range pkg.Workload {
		input := 0
		var walk func(pn *engine.PlanNode)
		walk = func(pn *engine.PlanNode) {
			if pn.Op == engine.OpScan {
				input += mat.Relation(pn.Table).Len()
			}
			for _, c := range pn.Children {
				walk(c)
			}
		}
		walk(mustPlan(t, regen, q.SQL).Root)
		if input > best {
			sql, best = q.SQL, input
		}
	}
	opts := engine.ExecOptions{Regime: engine.PathRegen}
	want := mustExec(t, mat, sql, opts)
	for _, w := range []int{0, 1, 2, 4} {
		opts.Parallelism = w
		res := mustExec(t, regen, sql, opts)
		label := fmt.Sprintf("%s [workers=%d]", sql, w)
		sameAnswer(t, label, res, want)
		if !reflect.DeepEqual(res.Root, want.Root) {
			t.Fatalf("%s: operator tree differs from the materialized database's", label)
		}
	}
}

// TestE12Projection: required-column analysis materializes 1, 2, 4 and
// then every store_sales column as the query touches more of them, and
// each projected scan answers as the materialized database does.
func TestE12Projection(t *testing.T) {
	_, regen, mat := engineFixture(t)
	width := len(regen.Schema.Table("store_sales").Columns)
	for _, v := range []struct {
		sql    string
		sample int // SampleLimit; > 0 materializes the output columns
		cols   int
	}{
		{"SELECT COUNT(*) FROM store_sales WHERE ss_quantity >= 1", 0, 1},
		{"SELECT COUNT(*) FROM store_sales WHERE ss_quantity >= 1 AND ss_sales_price >= 0.00", 0, 2},
		{"SELECT COUNT(*) FROM store_sales WHERE ss_quantity >= 1 AND ss_sales_price >= 0.00 AND ss_wholesale_cost >= 0.00 AND ss_item_sk >= 0", 0, 4},
		{"SELECT * FROM store_sales WHERE ss_quantity >= 1", 1, width},
	} {
		if got := len(mustPlan(t, regen, v.sql).RequiredScanCols(v.sample > 0)["store_sales"]); got != v.cols {
			t.Errorf("%s: %d store_sales columns required, want %d", v.sql, got, v.cols)
		}
		want := mustExec(t, mat, v.sql, engine.ExecOptions{SampleLimit: v.sample, Regime: engine.PathRegen})
		sameAnswer(t, v.sql, mustExec(t, regen, v.sql, engine.ExecOptions{SampleLimit: v.sample, Regime: engine.PathPruned}), want)
	}
}

// TestE13GroupBy: the grouped aggregate suite, at group cardinalities from
// a handful of stores to thousands of customers, returns the materialized
// database's group rows from the pipeline, sequentially and on two workers.
func TestE13GroupBy(t *testing.T) {
	oversubscribe(t, 2)
	_, regen, mat := engineFixture(t)
	for _, col := range []string{"ss_store_sk", "ss_item_sk", "ss_customer_sk"} {
		sql := fmt.Sprintf("SELECT %s, COUNT(*), SUM(ss_quantity), MIN(ss_quantity), MAX(ss_quantity), AVG(ss_sales_price) FROM store_sales GROUP BY %s", col, col)
		want := mustExec(t, mat, sql, engine.ExecOptions{SampleLimit: 1 << 20, Regime: engine.PathRegen})
		for _, w := range []int{0, 2} {
			res := mustExec(t, regen, sql, engine.ExecOptions{SampleLimit: 1 << 20, Parallelism: w, Regime: engine.PathPruned})
			sameAnswer(t, fmt.Sprintf("%s [workers=%d]", sql, w), res, want)
		}
	}
}

// TestE14TopK: a bounded sort (ORDER BY … LIMIT k) returns exactly the
// first k rows of the full sort.
func TestE14TopK(t *testing.T) {
	_, regen, _ := engineFixture(t)
	const orderBy = "SELECT * FROM store_sales ORDER BY ss_sales_price DESC, ss_quantity"
	opts := engine.ExecOptions{SampleLimit: 1 << 20}
	full := mustExec(t, regen, orderBy, opts)
	for _, k := range []int{10, 1} {
		sql := fmt.Sprintf("%s LIMIT %d", orderBy, k)
		res := mustExec(t, regen, sql, opts)
		if res.Rows != int64(k) || !reflect.DeepEqual(res.Sample, full.Sample[:k]) {
			t.Fatalf("%s: %d rows %v, want the full sort's first %d: %v", sql, res.Rows, res.Sample, k, full.Sample[:k])
		}
	}
}
