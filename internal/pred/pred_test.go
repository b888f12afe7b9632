package pred

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlkit"
	"repro/internal/value"
)

func testTable() *schema.Table {
	return &schema.Table{
		Name: "item",
		Columns: []*schema.Column{
			{Name: "pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: 100},
			{Name: "m", Type: schema.Int, DomainLo: 0, DomainHi: 100},
			{Name: "price", Type: schema.Float, Scale: 100, DomainLo: 0, DomainHi: 100000},
			{Name: "cat", Type: schema.String, Dict: []string{"books", "music", "shoes"}, DomainLo: 0, DomainHi: 3},
		},
	}
}

func compileOneQuery(t *testing.T, where string) *Region {
	t.Helper()
	q, err := sqlkit.Parse("SELECT * FROM item WHERE " + where)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Compile(testTable(), q.Preds)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return r
}

func setOf(t *testing.T, r *Region, col int) value.IntervalSet {
	t.Helper()
	for i, c := range r.Cols {
		if c == col {
			return r.Sets[i]
		}
	}
	t.Fatalf("column %d not constrained in %+v", col, r)
	return nil
}

func TestCompileIntOps(t *testing.T) {
	cases := []struct {
		where string
		want  value.IntervalSet
	}{
		{"m = 7", value.NewIntervalSet(value.Point(7))},
		{"m <> 7", value.NewIntervalSet(value.Ival(0, 7), value.Ival(8, 100))},
		{"m < 7", value.NewIntervalSet(value.Ival(0, 7))},
		{"m <= 7", value.NewIntervalSet(value.Ival(0, 8))},
		{"m > 7", value.NewIntervalSet(value.Ival(8, 100))},
		{"m >= 7", value.NewIntervalSet(value.Ival(7, 100))},
		{"m BETWEEN 3 AND 5", value.NewIntervalSet(value.Ival(3, 6))},
		{"m IN (1, 5, 5, 99)", value.NewIntervalSet(value.Point(1), value.Point(5), value.Point(99))},
	}
	for _, c := range cases {
		r := compileOneQuery(t, c.where)
		if got := setOf(t, r, 1); !got.Equal(c.want) {
			t.Errorf("%s: got %v, want %v", c.where, got, c.want)
		}
	}
}

func TestCompileFloatConstantOnIntColumn(t *testing.T) {
	cases := []struct {
		where string
		want  value.IntervalSet
	}{
		{"m < 2.5", value.NewIntervalSet(value.Ival(0, 3))},
		{"m <= 2.5", value.NewIntervalSet(value.Ival(0, 3))},
		{"m > 2.5", value.NewIntervalSet(value.Ival(3, 100))},
		{"m >= 2.5", value.NewIntervalSet(value.Ival(3, 100))},
		{"m = 2.5", nil}, // unsatisfiable
	}
	for _, c := range cases {
		r := compileOneQuery(t, c.where)
		got := setOf(t, r, 1)
		if c.want == nil {
			if !got.Empty() {
				t.Errorf("%s: got %v, want empty", c.where, got)
			}
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("%s: got %v, want %v", c.where, got, c.want)
		}
	}
}

func TestCompileFloatScaled(t *testing.T) {
	// price has scale 100: 12.34 -> code 1234.
	r := compileOneQuery(t, "price <= 12.34")
	if got := setOf(t, r, 2); !got.Equal(value.NewIntervalSet(value.Ival(0, 1235))) {
		t.Errorf("price <= 12.34: %v", got)
	}
	r = compileOneQuery(t, "price < 12.345")
	if got := setOf(t, r, 2); !got.Equal(value.NewIntervalSet(value.Ival(0, 1235))) {
		t.Errorf("price < 12.345: %v", got)
	}
}

func TestCompileStringOps(t *testing.T) {
	cases := []struct {
		where string
		want  value.IntervalSet
	}{
		{"cat = 'music'", value.NewIntervalSet(value.Point(1))},
		{"cat = 'jazz'", nil}, // not in dictionary
		{"cat <> 'music'", value.NewIntervalSet(value.Point(0), value.Point(2))},
		{"cat < 'music'", value.NewIntervalSet(value.Point(0))},
		{"cat <= 'music'", value.NewIntervalSet(value.Ival(0, 2))},
		{"cat > 'music'", value.NewIntervalSet(value.Point(2))},
		{"cat >= 'music'", value.NewIntervalSet(value.Ival(1, 3))},
		// Non-member range constants use rank boundaries.
		{"cat < 'n'", value.NewIntervalSet(value.Ival(0, 2))},
		{"cat <= 'n'", value.NewIntervalSet(value.Ival(0, 2))},
		{"cat >= 'n'", value.NewIntervalSet(value.Ival(2, 3))},
		{"cat > 'n'", value.NewIntervalSet(value.Ival(2, 3))},
		{"cat IN ('books', 'shoes')", value.NewIntervalSet(value.Point(0), value.Point(2))},
	}
	for _, c := range cases {
		r := compileOneQuery(t, c.where)
		got := setOf(t, r, 3)
		if c.want == nil {
			if !got.Empty() {
				t.Errorf("%s: got %v, want empty", c.where, got)
			}
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("%s: got %v, want %v", c.where, got, c.want)
		}
	}
}

func TestCompileConjunctionIntersects(t *testing.T) {
	r := compileOneQuery(t, "m >= 10 AND m < 20 AND m <> 15")
	want := value.NewIntervalSet(value.Ival(10, 15), value.Ival(16, 20))
	if got := setOf(t, r, 1); !got.Equal(want) {
		t.Errorf("conjunction = %v, want %v", got, want)
	}
}

func TestCompileIgnoresOtherTables(t *testing.T) {
	q, err := sqlkit.Parse("SELECT * FROM item, other WHERE other.x = 1 AND item.m = 2 AND item.pk = other.fk")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Compile(testTable(), q.Preds)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cols) != 1 || r.Cols[0] != 1 {
		t.Errorf("region = %+v", r)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"item.nosuch = 1",
		"m = 'str'",
		"cat = 5",
	}
	for _, where := range bad {
		q, err := sqlkit.Parse("SELECT * FROM item WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(testTable(), q.Preds); err == nil {
			t.Errorf("%s: Compile succeeded, want error", where)
		}
	}
}

func TestRegionMatch(t *testing.T) {
	r := compileOneQuery(t, "m BETWEEN 10 AND 20 AND cat = 'music'")
	row := []int64{0, 15, 0, 1}
	if !r.Match(row) {
		t.Error("row should match")
	}
	row[1] = 21
	if r.Match(row) {
		t.Error("m=21 should not match")
	}
	row[1] = 15
	row[3] = 0
	if r.Match(row) {
		t.Error("cat=books should not match")
	}
}

func TestRegionEmptyUnconstrained(t *testing.T) {
	r := compileOneQuery(t, "m = 200") // outside domain
	if !r.Empty() {
		t.Error("out-of-domain equality should be empty")
	}
	q, _ := sqlkit.Parse("SELECT * FROM item")
	u, err := Compile(testTable(), q.Preds)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Unconstrained() || u.Empty() {
		t.Error("no predicates should be unconstrained and non-empty")
	}
}

func TestRegionKeyDeterministic(t *testing.T) {
	a := compileOneQuery(t, "m < 5 AND cat = 'music'")
	b := compileOneQuery(t, "cat = 'music' AND m < 5")
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	c := compileOneQuery(t, "m < 6 AND cat = 'music'")
	if a.Key() == c.Key() {
		t.Error("different regions share a key")
	}
}

func TestRegionSQLAndClone(t *testing.T) {
	r := compileOneQuery(t, "m < 5")
	tab := testTable()
	if r.SQL(tab) == "" || r.SQL(tab) == "true" {
		t.Errorf("SQL = %q", r.SQL(tab))
	}
	q, _ := sqlkit.Parse("SELECT * FROM item")
	u, _ := Compile(tab, q.Preds)
	if u.SQL(tab) != "true" {
		t.Errorf("unconstrained SQL = %q", u.SQL(tab))
	}
	c := r.Clone()
	c.Sets[0][0].Hi = 99
	if r.Sets[0][0].Hi == 99 {
		t.Error("Clone shares sets")
	}
}

func TestCompareSetRejectsBadKinds(t *testing.T) {
	col := testTable().Columns[1]
	if _, err := CompareSet(col, sqlkit.OpLT, value.NewString("x")); err == nil {
		t.Error("numeric column accepted string constant")
	}
	scol := testTable().Columns[3]
	if _, err := CompareSet(scol, sqlkit.OpLT, value.NewInt(3)); err == nil {
		t.Error("string column accepted int constant")
	}
}
