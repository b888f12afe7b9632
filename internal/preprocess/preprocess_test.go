package preprocess

import (
	"context"
	"strings"
	"testing"

	"repro/internal/aqp"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/toy"
)

func captureToy(t *testing.T, queries []string) (*engine.Database, []*aqp.AQP) {
	t.Helper()
	db, err := toy.Database(1)
	if err != nil {
		t.Fatal(err)
	}
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
	return db, out
}

func TestExtractSingleTable(t *testing.T) {
	db, aqps := captureToy(t, []string{"SELECT COUNT(*) FROM s WHERE a >= 20 AND a < 60"})
	w, err := Extract(db.Schema, aqps)
	if err != nil {
		t.Fatal(err)
	}
	cons := w.Constraints["s"]
	if len(cons) != 1 {
		t.Fatalf("constraints on s = %d", len(cons))
	}
	if cons[0].Card != aqps[0].Plan.Children[0].Card {
		t.Errorf("card = %d, want filter card %d", cons[0].Card, aqps[0].Plan.Children[0].Card)
	}
	if len(cons[0].Spec.Terms) != 0 {
		t.Error("single-table constraint should have no fk terms")
	}
}

func TestExtractStarJoin(t *testing.T) {
	db, aqps := captureToy(t, []string{toy.Query})
	w, err := Extract(db.Schema, aqps)
	if err != nil {
		t.Fatal(err)
	}
	// Two join levels -> two constraints on r; one filter constraint each
	// on s and t.
	if got := len(w.Constraints["r"]); got != 2 {
		t.Errorf("constraints on r = %d, want 2", got)
	}
	if got := len(w.Constraints["s"]); got != 1 {
		t.Errorf("constraints on s = %d, want 1", got)
	}
	// The deepest r constraint references both dimensions.
	var deepest *Constraint
	for _, c := range w.Constraints["r"] {
		if deepest == nil || len(c.Spec.Terms) > len(deepest.Spec.Terms) {
			deepest = c
		}
	}
	if len(deepest.Spec.Terms) != 2 {
		t.Fatalf("deepest r constraint has %d fk terms, want 2", len(deepest.Spec.Terms))
	}
	// Referenced dimension regions are registered and marked.
	if len(w.Regions["s"]) == 0 || len(w.Referenced["s"]) == 0 {
		t.Error("s regions/referenced not registered")
	}
}

func TestExtractDeduplicates(t *testing.T) {
	q := "SELECT COUNT(*) FROM s WHERE a >= 20 AND a < 60"
	db, aqps := captureToy(t, []string{q, q})
	w, err := Extract(db.Schema, aqps)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Constraints["s"]); got != 1 {
		t.Errorf("duplicate constraints kept: %d", got)
	}
	if w.Queries != 2 {
		t.Errorf("queries = %d", w.Queries)
	}
}

func TestExtractRejectsNonFKJoin(t *testing.T) {
	db, _ := captureToy(t, nil)
	// a = b is not a foreign-key join.
	sql := "SELECT COUNT(*) FROM s, t WHERE s.a = t.c"
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
	_, err = Extract(db.Schema, []*aqp.AQP{{SQL: sql, Plan: aqp.FromExec(res.Root)}})
	if err == nil || !strings.Contains(err.Error(), "foreign-key") {
		t.Errorf("non-fk join accepted: %v", err)
	}
}

func TestExtractRejectsBadSQL(t *testing.T) {
	db, _ := captureToy(t, nil)
	_, err := Extract(db.Schema, []*aqp.AQP{{SQL: "not sql", Plan: &aqp.Node{Op: "SCAN", Table: "s"}}})
	if err == nil {
		t.Error("bad SQL accepted")
	}
}

func TestRegionSpecKeyStable(t *testing.T) {
	db, aqps := captureToy(t, []string{toy.Query, toy.Query})
	w, err := Extract(db.Schema, aqps)
	if err != nil {
		t.Fatal(err)
	}
	// Same query twice: the registry must not grow.
	if got := len(w.Regions["r"]); got != 3 { // scan spec + 2 join specs collapse by key
		t.Logf("r regions = %d (informational)", got)
	}
	for table, m := range w.Regions {
		for key, spec := range m {
			if spec.Key() != key {
				t.Errorf("%s: registry key %q != spec key %q", table, key, spec.Key())
			}
		}
	}
}
