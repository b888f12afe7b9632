package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/batch"
	"repro/internal/generator"
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
	// The build side is the fact table, keyed by its duplicate-heavy foreign
	// key: each dim row meets its fact rows in fact order.
	res3 := run(t, db, "SELECT * FROM dim, fact WHERE dim.d_pk = fact.d_fk")
	want := [][]int64{{0, 10, 0, 0, 1}, {0, 10, 1, 0, 2}, {1, 20, 2, 1, 3}, {2, 30, 3, 2, 4}, {3, 40, 4, 3, 5}, {3, 40, 5, 3, 6}}
	if !reflect.DeepEqual(res3.Sample, want) {
		t.Errorf("dim ⋈ fact rows %v, want %v", res3.Sample, want)
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
	db.SetDatagen("dim", func() (batch.ColProjector, error) { return rowsScan(rows), nil })
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

// TestRegistrationReplacement pins that a table has one source: SetDatagen
// after SetSummary drops the summary, so nothing answers from it; SetSummary
// after SetDatagen regenerates the new relation on every regime; and
// SetSummary(t, nil) leaves a datagen source in place.
func TestRegistrationReplacement(t *testing.T) {
	const sql = "SELECT COUNT(*) FROM m WHERE a < 3"
	db := saggDB(t)
	rel, tab := db.Summary("m"), db.Schema.Table("m")
	old := saggExec(t, db, sql, ExecOptions{Regime: PathRegen}).Count
	if old != 11 {
		t.Fatalf("saggDB: count %d, want 11", old)
	}
	opened := func() (batch.ColProjector, error) { return generator.NewStream(tab, rel), nil }

	db.SetDatagen("m", opened)
	if db.Summary("m") != nil {
		t.Fatal("SetDatagen left the summary registered")
	}
	if res := saggExec(t, db, sql, ExecOptions{}); res.Path != PathRegen || res.Count != old {
		t.Fatalf("after SetDatagen: path %q count %d; want %q, %d", res.Path, res.Count, PathRegen, old)
	}

	db.SetSummary("m", coupledRel(t, db))
	for regime, path := range map[string]string{"": PathSummary, PathPruned: PathPruned, PathRegen: PathRegen} {
		if res := saggExec(t, db, sql, ExecOptions{Regime: regime}); res.Path != path || res.Count != 9 {
			t.Fatalf("after SetSummary, regime %q: path %q count %d; want %q, 9", regime, res.Path, res.Count, path)
		}
	}

	db.SetDatagen("m", opened)
	db.SetSummary("m", nil)
	if !db.DatagenEnabled("m") {
		t.Fatal("SetSummary(t, nil) dropped the datagen source")
	}
	if res := saggExec(t, db, sql, ExecOptions{}); res.Path != PathRegen || res.Count != old {
		t.Fatalf("after SetSummary(t, nil): path %q count %d; want %q, %d", res.Path, res.Count, PathRegen, old)
	}
}

type rowFunc func() ([]int64, bool)

func (f rowFunc) Next() ([]int64, bool) { return f() }

// rowsScan serves rows, as given, through the one row adapter — the shape
// of a datagen source supplied from outside the module.
func rowsScan(rows [][]int64) batch.ColProjector {
	i := 0
	return batch.FromRows(rowFunc(func() ([]int64, bool) {
		if i >= len(rows) {
			return nil, false
		}
		i++
		return rows[i-1], true
	}))
}

// rowsOf copies a stored relation's rows out.
func rowsOf(rel *Relation) [][]int64 {
	out := make([][]int64, rel.Len())
	for i := range out {
		out[i] = rel.Row(i)
	}
	return out
}

// sectionedRows is a partitionable row producer: rowsScan's scan, plus the
// Total/Section pair that lets a parallel execution cut it into morsels —
// each section its own pass of the row adapter over its slice of the rows.
type sectionedRows struct {
	*batch.RowScan
	rows [][]int64
}

func (s sectionedRows) Total() int64 { return int64(len(s.rows)) }

func (s sectionedRows) Section(lo, hi int64) batch.ColProjector { return rowsScan(s.rows[lo:hi]) }

// TestDatagenRowArityRejected is the regression for a wrong answer at the
// parent: a caller-supplied datagen source yielding a row shorter than the
// table was accepted, its missing columns inherited whatever the previous
// batch had left in the storage, and the answer depended on BatchSize (dim
// served as {0,50},{1,60},{2},{3}: COUNT(*) WHERE a >= 55 was 1 at the
// default batch size and 2 at BatchSize 2); a longer row was silently
// truncated. Now the scan stops and the query fails with ErrRowArity — on
// every front, at every batch size, whether dim is the scanned leaf or a
// hash-join build side. The sectioned input is the same failure behind a
// partitionable source: the morsel that holds the short row stops, and a
// parallel worker used to drain it without asking why — no rows, no error.
func TestDatagenRowArityRejected(t *testing.T) {
	sectioned := func(rows [][]int64) batch.ColProjector {
		return sectionedRows{rowsScan(rows).(*batch.RowScan), rows}
	}
	for _, in := range []struct {
		name string
		rows [][]int64
		open func([][]int64) batch.ColProjector
	}{
		{"short", [][]int64{{0, 50}, {1, 60}, {2}, {3}}, rowsScan},
		{"long", [][]int64{{0, 50}, {1, 60, 7}, {2, 70}}, rowsScan},
		{"sectioned", [][]int64{{0, 50}, {1, 60}, {2}, {3, 70}}, sectioned},
	} {
		name, rows, open := in.name, in.rows, in.open
		db := starDatabase(t)
		db.SetDatagen("dim", func() (batch.ColProjector, error) { return open(rows), nil })
		for _, sql := range []string{
			"SELECT COUNT(*) FROM dim WHERE a >= 55",
			"SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk",
			"SELECT a, COUNT(*) FROM dim GROUP BY a",
		} {
			plan := mustPlan(t, db, sql)
			for _, size := range []int{0, 1, 2} {
				for _, f := range contextFronts(t) {
					res, err := f.run(context.Background(), db, plan, ExecOptions{BatchSize: size})
					if !errors.Is(err, batch.ErrRowArity) {
						t.Fatalf("%s rows, %s [%s batch=%d]: result %+v, err %v; want ErrRowArity", name, sql, f.name, size, res, err)
					}
				}
			}
		}
		// A reused state fails the same way every round: the rewind reopens
		// the unseekable source, which stops on the same row.
		prep, err := Prepare(db, mustPlan(t, db, "SELECT COUNT(*) FROM dim WHERE a >= 55"), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var st ExecState
		for round := 0; round < 3; round++ {
			if _, err := prep.ExecuteIn(&st, ExecOptions{}); !errors.Is(err, batch.ErrRowArity) {
				t.Fatalf("%s rows, ExecuteIn round %d: err %v, want ErrRowArity", name, round, err)
			}
		}
	}
}

// TestRelationAppend: arity is checked, and the row is copied — a caller
// reusing its row slice must not rewrite what it already appended.
func TestRelationAppend(t *testing.T) {
	s := starSchema()
	rel := &Relation{Table: s.Table("dim")}
	if err := rel.Append([]int64{1}); err == nil {
		t.Error("arity mismatch accepted")
	}
	row := []int64{0, 10}
	for i := int64(0); i < 3; i++ {
		row[0], row[1] = i, 10*i
		if err := rel.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := rowsOf(rel), [][]int64{{0, 0}, {1, 10}, {2, 20}}; !reflect.DeepEqual(got, want) {
		t.Errorf("stored %v, want %v", got, want)
	}
}

// TestStoredCursor pins the stored relation's scan source — read through
// the row reader like every other source kind — to the rows appended: at
// batch capacities {1, 3, 128, 1024}, under projection subsets, and through
// each capability (Total, Section with clamped and nested bounds, SeekRow).
func TestStoredCursor(t *testing.T) {
	s := starSchema()
	rel := &Relation{Table: s.Table("fact")}
	var want [][]int64
	for i := int64(0); i < 300; i++ {
		want = append(want, []int64{i, i % 7, 3 * i})
		if err := rel.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	db := NewDatabase(s)
	if err := db.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	open := func() *relCursor {
		src, err := db.openScan("fact")
		if err != nil {
			t.Fatal(err)
		}
		return src.(*relCursor)
	}
	for _, cols := range [][]int{{0, 1, 2}, {1}, {0, 2}, nil} {
		proj := make([][]int64, len(want))
		for i, row := range want {
			proj[i] = make([]int64, len(row))
			for _, c := range cols {
				proj[i][c] = row[c]
			}
		}
		for _, capRows := range []int{1, 3, 128, 1024} {
			read := func(src batch.ColProjector) [][]int64 {
				r := batch.NewRowReader(src, batch.NewCol(3, capRows, cols))
				var out [][]int64
				for row, ok := r.Next(); ok; row, ok = r.Next() {
					out = append(out, append([]int64(nil), row...))
				}
				return out
			}
			label := fmt.Sprintf("cols %v cap %d", cols, capRows)
			cur := open()
			if cur.Total() != 300 {
				t.Fatalf("Total = %d", cur.Total())
			}
			if got := read(cur); !reflect.DeepEqual(got, proj) {
				t.Fatalf("%s: full scan diverged", label)
			}
			cur.SeekRow(290)
			if got := read(cur); !reflect.DeepEqual(got, proj[290:]) {
				t.Fatalf("%s: SeekRow(290) tail %v", label, got)
			}
			cur.SeekRow(-5)
			if got := read(cur); !reflect.DeepEqual(got, proj) {
				t.Fatalf("%s: SeekRow clamped to start diverged", label)
			}
			cur.SeekRow(9999)
			if got := read(cur); len(got) != 0 {
				t.Fatalf("%s: SeekRow past the end produced %d rows", label, len(got))
			}
			var got [][]int64
			for _, b := range [][2]int64{{-4, 100}, {100, 100}, {100, 257}, {257, 900}} {
				got = append(got, read(cur.Section(b[0], b[1]))...)
			}
			if !reflect.DeepEqual(got, proj) {
				t.Fatalf("%s: section concatenation diverged", label)
			}
			mid := cur.Section(50, 250).(*relCursor)
			if got := read(mid.Section(10, 20)); !reflect.DeepEqual(got, proj[60:70]) {
				t.Fatalf("%s: nested section = %v", label, got)
			}
			mid.SeekRow(195)
			if got := read(mid); !reflect.DeepEqual(got, proj[245:250]) {
				t.Fatalf("%s: SeekRow inside a section = %v", label, got)
			}
		}
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

// TestAddRelationWidthMismatch: scans size their batches from the schema,
// so a relation whose table has the schema table's name but another column
// count is refused.
func TestAddRelationWidthMismatch(t *testing.T) {
	db := NewDatabase(starSchema())
	narrow := &schema.Table{Name: "dim", Columns: []*schema.Column{{Name: "d_pk", PrimaryKey: true}}}
	rel := &Relation{Table: narrow}
	if err := rel.Append([]int64{0}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(rel); err == nil {
		t.Error("AddRelation accepted a 1-column relation for the 2-column dim")
	}
}
