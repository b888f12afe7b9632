package toy

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlkit"
)

func TestSchemaAndDatabase(t *testing.T) {
	s := Schema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db, err := Database(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.Relation("r").Rows); got != RRows {
		t.Errorf("r rows = %d", got)
	}
	// Referential integrity of the generated foreign keys.
	for _, row := range db.Relation("r").Rows {
		if row[1] < 0 || row[1] >= SRows || row[2] < 0 || row[2] >= TRows {
			t.Fatalf("dangling fk in %v", row)
		}
	}
}

func TestWorkloadExecutes(t *testing.T) {
	db, err := Database(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range Workload() {
		q, err := sqlkit.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		plan, err := engine.BuildPlan(db.Schema, q)
		if err != nil {
			t.Fatalf("plan %q: %v", sql, err)
		}
		if _, err := engine.ExecuteContext(context.Background(), db, plan, engine.ExecOptions{}); err != nil {
			t.Fatalf("exec %q: %v", sql, err)
		}
	}
}
