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
