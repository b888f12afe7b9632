package engine

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlkit"
)

// starSchema returns dim(d_pk, a) and fact(f_pk, d_fk, q).
func starSchema() *schema.Schema {
	return &schema.Schema{Tables: []*schema.Table{
		{
			Name:     "dim",
			RowCount: 4,
			Columns: []*schema.Column{
				{Name: "d_pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: 4},
				{Name: "a", Type: schema.Int, DomainLo: 0, DomainHi: 100},
			},
		},
		{
			Name:     "fact",
			RowCount: 6,
			Columns: []*schema.Column{
				{Name: "f_pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: 6},
				{Name: "d_fk", Type: schema.Int, Ref: &schema.ForeignKey{Table: "dim", Column: "d_pk"}, DomainLo: 0, DomainHi: 4},
				{Name: "q", Type: schema.Int, DomainLo: 0, DomainHi: 10},
			},
		},
	}}
}

func starDatabase(t *testing.T) *Database {
	t.Helper()
	s := starSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(s)
	dim := &Relation{Table: s.Table("dim")}
	for _, row := range [][]int64{{0, 10}, {1, 20}, {2, 30}, {3, 40}} {
		if err := dim.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	fact := &Relation{Table: s.Table("fact")}
	for _, row := range [][]int64{{0, 0, 1}, {1, 0, 2}, {2, 1, 3}, {3, 2, 4}, {4, 3, 5}, {5, 3, 6}} {
		if err := fact.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddRelation(dim); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(fact); err != nil {
		t.Fatal(err)
	}
	return db
}

func run(t *testing.T, db *Database, sql string) *ExecResult {
	t.Helper()
	q, err := sqlkit.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := BuildPlan(db.Schema, q)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	res, err := execute(db, plan, ExecOptions{SampleLimit: 100})
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func TestScanAndFilter(t *testing.T) {
	db := starDatabase(t)
	res := run(t, db, "SELECT * FROM fact WHERE q >= 3")
	if res.Rows != 4 {
		t.Errorf("rows = %d, want 4", res.Rows)
	}
	if res.Root.Op != "FILTER" || res.Root.Children[0].Op != "SCAN" {
		t.Errorf("plan shape: %+v", res.Root)
	}
	if res.Root.Children[0].OutRows != 6 {
		t.Errorf("scan out = %d, want 6", res.Root.Children[0].OutRows)
	}
}

func TestCountStar(t *testing.T) {
	db := starDatabase(t)
	res := run(t, db, "SELECT COUNT(*) FROM dim WHERE a BETWEEN 20 AND 30")
	if res.Count != 2 {
		t.Errorf("count = %d, want 2", res.Count)
	}
	if res.Root.Op != "AGGREGATE" || res.Root.OutRows != 1 {
		t.Errorf("aggregate node: %+v", res.Root)
	}
}

func TestHashJoin(t *testing.T) {
	db := starDatabase(t)
	res := run(t, db, "SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk AND dim.a >= 30")
	// dim rows with a>=30: pk 2,3. fact rows referencing them: 3,4,5.
	if res.Count != 3 {
		t.Errorf("join count = %d, want 3", res.Count)
	}
	// Join output row = probe columns followed by build columns.
	res2 := run(t, db, "SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk AND dim.a = 40")
	if res2.Rows != 2 {
		t.Fatalf("rows = %d, want 2", res2.Rows)
	}
	if len(res2.Sample[0]) != 5 {
		t.Fatalf("joined arity = %d, want 5", len(res2.Sample[0]))
	}
	if res2.Sample[0][1] != res2.Sample[0][3] {
		t.Errorf("join key mismatch in output row %v", res2.Sample[0])
	}
}

func TestUnqualifiedColumns(t *testing.T) {
	db := starDatabase(t)
	res := run(t, db, "SELECT COUNT(*) FROM fact, dim WHERE d_fk = d_pk AND a < 25 AND q > 1")
	// dim a<25: pk 0,1. fact rows with those fks and q>1: (1,0,2),(2,1,3).
	if res.Count != 2 {
		t.Errorf("count = %d, want 2", res.Count)
	}
}

func TestPlanErrors(t *testing.T) {
	db := starDatabase(t)
	bad := []string{
		"SELECT * FROM nope",
		"SELECT * FROM fact, fact WHERE fact.d_fk = fact.d_pk",
		"SELECT * FROM fact, dim",                                 // not connected
		"SELECT * FROM fact WHERE nocol = 1",                      // unknown column
		"SELECT * FROM fact, dim WHERE fact.q = dim.a AND q = -1", // non-key join is fine structurally, but ambiguity below
	}
	for _, sql := range bad[:4] {
		q, err := sqlkit.Parse(sql)
		if err != nil {
			continue
		}
		if _, err := BuildPlan(db.Schema, q); err == nil {
			t.Errorf("BuildPlan(%q) succeeded, want error", sql)
		}
	}
}

func TestDatagenScan(t *testing.T) {
	db := starDatabase(t)
	// Replace dim's scan with a synthetic two-row stream.
	rows := [][]int64{{0, 50}, {1, 60}}
	db.SetDatagen("dim", func() (RowSource, error) {
		i := 0
		return rowFunc(func() ([]int64, bool) {
			if i >= len(rows) {
				return nil, false
			}
			r := rows[i]
			i++
			return r, true
		}), nil
	})
	if !db.DatagenEnabled("dim") {
		t.Fatal("datagen not enabled")
	}
	res := run(t, db, "SELECT COUNT(*) FROM dim WHERE a >= 55")
	if res.Count != 1 {
		t.Errorf("datagen count = %d, want 1", res.Count)
	}
	db.SetDatagen("dim", nil)
	if db.DatagenEnabled("dim") {
		t.Error("datagen still enabled after reset")
	}
	res = run(t, db, "SELECT COUNT(*) FROM dim WHERE a >= 55")
	if res.Count != 0 {
		t.Errorf("stored count = %d, want 0", res.Count)
	}
}

type rowFunc func() ([]int64, bool)

func (f rowFunc) Next() ([]int64, bool) { return f() }

func TestRelationAppendArity(t *testing.T) {
	s := starSchema()
	rel := &Relation{Table: s.Table("dim")}
	if err := rel.Append([]int64{1}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestMissingRelation(t *testing.T) {
	db := NewDatabase(starSchema())
	q, _ := sqlkit.Parse("SELECT * FROM dim")
	plan, err := BuildPlan(db.Schema, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(db, plan, ExecOptions{}); err == nil {
		t.Error("execute over missing relation succeeded")
	}
}

func TestAddRelationUnknownTable(t *testing.T) {
	db := NewDatabase(starSchema())
	other := &schema.Table{Name: "ghost"}
	if err := db.AddRelation(&Relation{Table: other}); err == nil {
		t.Error("AddRelation accepted unknown table")
	}
}
