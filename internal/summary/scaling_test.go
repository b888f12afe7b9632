package summary

import (
	"context"
	"testing"

	"repro/internal/aqp"
	"repro/internal/engine"
	"repro/internal/preprocess"
	"repro/internal/sqlkit"
	"repro/internal/tpcds"
)

// buildTPCDS builds the summary of the TPC-DS-like warehouse at scale
// factor sf (data seed 7) under the 131-query workload (seed 11), the
// configuration `hydra client` and `hydra vendor` use by default.
func buildTPCDS(t *testing.T, sf float64) (*Database, *BuildReport) {
	t.Helper()
	db, err := tpcds.GenerateDatabase(tpcds.Schema(sf), 7)
	if err != nil {
		t.Fatal(err)
	}
	w, err := preprocess.Extract(db.Schema, captureWorkload(t, db, tpcds.Workload(131, 11)))
	if err != nil {
		t.Fatal(err)
	}
	sum, rep, err := Build(db.Schema, w, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sum, rep
}

func captureWorkload(t *testing.T, db *engine.Database, queries []string) []*aqp.AQP {
	t.Helper()
	var out []*aqp.AQP
	for _, sql := range queries {
		q, err := sqlkit.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.BuildPlan(db.Schema, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.ExecuteContext(context.Background(), db, plan, engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &aqp.AQP{SQL: sql, Plan: aqp.FromExec(res.Root)})
	}
	return out
}

// TestFactLPStaysTractable guards the scalability property the grouped
// decomposition provides: the fact table's LP variable count must stay
// bounded as the workload grows, not explode combinatorially (a regression
// here is what previously made 131-query builds run out of memory).
func TestFactLPStaysTractable(t *testing.T) {
	s := tpcds.Schema(0.5)
	db, err := tpcds.GenerateDatabase(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{60, 90, 120} {
		aqps := captureWorkload(t, db, tpcds.Workload(n, 11))
		w, err := preprocess.Extract(db.Schema, aqps)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := prepareRelation(db.Schema.Table("store_sales"), db.Schema, w, DefaultBuildOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("n=%d axes=%d regions=%d groups=%d vars=%d part=%v",
			n, len(rb.axes), rb.rr.Regions, rb.rr.Groups, rb.rr.LPVars, rb.rr.PartitionTime)
		if rb.rr.LPVars > 200_000 {
			t.Fatalf("fact LP exploded to %d variables at %d queries", rb.rr.LPVars, n)
		}
		if rb.rr.Groups < 2 {
			t.Errorf("fact constraints did not decompose (groups=%d)", rb.rr.Groups)
		}
	}
}

// TestSummaryBytesScaleFree holds the shipped summary to the paper's
// data-scale-free claim (E3): the bytes `hydra vendor` writes for TPC-DS
// sf 1 and sf 4 each stay within 8 KiB and within 10% of each other.
func TestSummaryBytesScaleFree(t *testing.T) {
	if testing.Short() {
		t.Skip("sf 1 and sf 4 captures")
	}
	_, rep1 := buildTPCDS(t, 1)
	_, rep4 := buildTPCDS(t, 4)
	b1, b4 := rep1.SummaryBytes, rep4.SummaryBytes
	t.Logf("summary bytes: sf 1 %d, sf 4 %d", b1, b4)
	for _, b := range []int{b1, b4} {
		if b <= 0 || b > 8<<10 {
			t.Errorf("summary is %d bytes, want (0, 8 KiB]", b)
		}
	}
	if d := b4 - b1; 10*max(d, -d) > max(b1, b4) {
		t.Errorf("summary bytes differ by more than 10%%: sf 1 %d, sf 4 %d", b1, b4)
	}
}
