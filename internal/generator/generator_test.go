package generator

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/schema"
	"repro/internal/synopsis"
	"repro/internal/value"
)

func genTable() *schema.Table {
	return &schema.Table{
		Name: "t",
		Columns: []*schema.Column{
			{Name: "pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: 100},
			{Name: "a", Type: schema.Int, DomainLo: 0, DomainHi: 100},
			{Name: "fk", Type: schema.Int, Ref: &schema.ForeignKey{Table: "d", Column: "d_pk"}, DomainLo: 0, DomainHi: 10},
		},
	}
}

func genSummary() *synopsis.Relation {
	return &synopsis.Relation{
		Table: "t",
		Total: 7,
		Rows: []synopsis.Row{
			{Count: 3, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 42),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(2, 4))),
			}},
			{Count: 4, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 7),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Point(9))),
			}},
		},
	}
}

func TestStreamExpandsRows(t *testing.T) {
	s := NewStream(genTable(), genSummary())
	if s.Total() != 7 {
		t.Fatalf("Total = %d", s.Total())
	}
	got := readAll(s, s.Cols(), 0)
	if len(got) != 7 {
		t.Fatalf("produced %d rows", len(got))
	}
	for i, row := range got {
		if row[0] != int64(i) {
			t.Errorf("row %d pk = %d (auto-numbering broken)", i, row[0])
		}
	}
	// First summary row: fixed a=42, fk cycles 2,3,2.
	wantFK := []int64{2, 3, 2}
	for i := 0; i < 3; i++ {
		if got[i][1] != 42 || got[i][2] != wantFK[i] {
			t.Errorf("row %d = %v", i, got[i])
		}
	}
	// Second summary row: a=7, fk always 9.
	for i := 3; i < 7; i++ {
		if got[i][1] != 7 || got[i][2] != 9 {
			t.Errorf("row %d = %v", i, got[i])
		}
	}
}

func TestStreamEmptySummary(t *testing.T) {
	s := NewStream(genTable(), &synopsis.Relation{Table: "t"})
	if got := readAll(s, s.Cols(), 0); len(got) != 0 {
		t.Errorf("empty summary produced %v", got)
	}
}

func TestPacedRate(t *testing.T) {
	rel := &synopsis.Relation{Table: "t", Total: 400, Rows: []synopsis.Row{
		{Count: 400, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 1), synopsis.FixedSpec(2, 2)}},
	}}
	p := NewPaced(NewStream(genTable(), rel), 1000) // 1000 rows/sec
	start := time.Now()
	n := len(readAll(p, 3, 1)) // a 1-row batch: row-granular pacing
	elapsed := time.Since(start)
	if n != 400 {
		t.Fatalf("rows = %d", n)
	}
	// 400 rows at 1000 rps ≈ 400ms; accept generous scheduling slop.
	if elapsed < 300*time.Millisecond || elapsed > 700*time.Millisecond {
		t.Errorf("elapsed %v for 400 rows @1000rps", elapsed)
	}
}

func TestPacedUnlimited(t *testing.T) {
	p := NewPaced(NewStream(genTable(), genSummary()), 0)
	if n := len(readAll(p, 3, 0)); n != 7 {
		t.Errorf("rows = %d", n)
	}
}

// shortRows is an outside row producer whose second row is too short.
type shortRows struct{ i int }

func (s *shortRows) Next() ([]int64, bool) {
	s.i++
	return [][]int64{{0, 1, 2}, {1, 1}, {2, 1, 2}}[s.i-1], true
}

// TestPacedForwardsScanError: pacing an external row producer must not
// hide why its scan stopped — the engine asks the source it was handed.
func TestPacedForwardsScanError(t *testing.T) {
	p := NewPaced(batch.FromRows(&shortRows{}), 0)
	if got := readAll(p, 3, 1); len(got) != 1 {
		t.Fatalf("%d rows before the short one, want 1", len(got))
	}
	if err := p.Err(); !errors.Is(err, batch.ErrRowArity) {
		t.Fatalf("Err = %v, want ErrRowArity", err)
	}
	if err := NewPaced(NewStream(genTable(), genSummary()), 0).Err(); err != nil {
		t.Fatalf("a source that cannot fail reported %v", err)
	}
}

func TestMaterializeCSV(t *testing.T) {
	var sb strings.Builder
	n, err := Materialize(&sb, genTable(), genSummary())
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("materialized %d rows", n)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 8 { // header + 7 rows
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "pk,a,fk" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,42,2" {
		t.Errorf("first row = %q", lines[1])
	}
}
