package generator

import (
	"reflect"
	"testing"

	"repro/internal/schema"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// ssTable builds a 3-column table (pk, a, b) and a summary whose rows mix
// fixed, cycling, and unspecced columns with counts that are deliberately
// not multiples of the cycle lengths, so segment hops land mid-cycle.
func ssTable() (*schema.Table, *synopsis.Relation) {
	t := &schema.Table{
		Name: "s",
		Columns: []*schema.Column{
			{Name: "pk", PrimaryKey: true},
			{Name: "a"},
			{Name: "b"},
		},
	}
	fixed := int64(77)
	nine := int64(9)
	rel := &synopsis.Relation{
		Table: "s",
		Total: 100,
		Rows: []synopsis.Row{
			{Count: 37, Specs: []synopsis.ColSpec{
				{Col: 1, Set: value.IntervalSet{value.Ival(0, 5), value.Ival(10, 12)}},
				{Col: 2, Fixed: &fixed},
			}},
			{Count: 13, Specs: []synopsis.ColSpec{
				{Col: 1, Fixed: &fixed},
				{Col: 2, Set: value.IntervalSet{value.Ival(100, 105)}},
			}},
			{Count: 50, Specs: []synopsis.ColSpec{
				{Col: 1, Fixed: &nine},
				{Col: 2, Set: value.IntervalSet{value.Ival(-3, 4)}},
			}},
		},
	}
	return t, rel
}

// reference is the law filtered to the rows whose global index falls in
// ivs — the generate-then-filter semantics SectionSet must match.
func reference(t *testing.T, tab *schema.Table, rel *synopsis.Relation, ivs value.IntervalSet) [][]int64 {
	t.Helper()
	var out [][]int64
	for g, row := range lawRows(tab, rel) {
		if ivs.Contains(int64(g)) {
			out = append(out, row)
		}
	}
	return out
}

func TestSectionSetByteIdentical(t *testing.T) {
	tab, rel := ssTable()
	for _, tc := range []struct {
		name string
		ivs  value.IntervalSet
	}{
		{"empty", nil},
		{"all", value.IntervalSet{value.Ival(0, 100)}},
		{"single-point", value.IntervalSet{value.Ival(42, 43)}},
		{"one-span", value.IntervalSet{value.Ival(10, 30)}},
		{"row-straddle", value.IntervalSet{value.Ival(30, 45)}}, // crosses summary rows 0→1
		{"many", value.IntervalSet{value.Ival(0, 3), value.Ival(7, 8), value.Ival(20, 40), value.Ival(50, 51), value.Ival(99, 100)}},
		{"mid-cycle", value.IntervalSet{value.Ival(8, 9), value.Ival(15, 16), value.Ival(23, 24)}}, // same rank, different cycles
		{"tail", value.IntervalSet{value.Ival(97, 100)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := reference(t, tab, rel, tc.ivs)
			ss := NewStream(tab, rel).SectionSet(tc.ivs)
			if got, wantN := ss.Total(), int64(len(want)); got != wantN {
				t.Fatalf("Total() = %d, want %d", got, wantN)
			}
			sameRows(t, "whole rows", readAll(ss, len(tab.Columns), 32), want)

			// Under a projection the projected columns agree and the
			// others are never touched.
			cols := []int{0, 2}
			ss2 := NewStream(tab, rel).SectionSet(tc.ivs)
			sameRows(t, "projected", readRows(ss2, len(tab.Columns), 16, cols), project(want, cols))
		})
	}
}

func TestSectionSetSeekAndSection(t *testing.T) {
	tab, rel := ssTable()
	ivs := value.IntervalSet{value.Ival(5, 12), value.Ival(33, 60), value.Ival(80, 95)}
	want := reference(t, tab, rel, ivs)

	// SeekRow(i) mid-window resumes at the i-th qualifying row.
	for _, at := range []int64{0, 1, 6, 7, 20, int64(len(want)) - 1, int64(len(want))} {
		ss := NewStream(tab, rel).SectionSet(ivs)
		ss.SeekRow(at)
		got := readAll(ss, len(tab.Columns), 32)
		if wantTail := want[at:]; !reflect.DeepEqual(got, append([][]int64(nil), wantTail...)) {
			if !(len(got) == 0 && len(wantTail) == 0) {
				t.Fatalf("SeekRow(%d): got %d rows, want %d", at, len(got), len(wantTail))
			}
		}
	}

	// Partitioning the pruned space: the concatenation of sections over
	// pruned coordinates reproduces the whole window exactly.
	ss := NewStream(tab, rel).SectionSet(ivs)
	total := ss.Total()
	for _, n := range []int64{1, 2, 3, 7, total, total + 5} {
		var got [][]int64
		for k := int64(0); k < n; k++ {
			lo := total * k / n
			hi := total * (k + 1) / n
			got = append(got, readAll(ss.Section(lo, hi), len(tab.Columns), 32)...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-way section concat: got %d rows, want %d", n, len(got), len(want))
		}
	}

	// Sections nest: a section of a section addresses the inner window.
	mid := ss.Section(3, total-2).(*Stream)
	inner := readAll(mid.Section(1, 4), len(tab.Columns), 32)
	if !reflect.DeepEqual(inner, append([][]int64(nil), want[4:7]...)) {
		t.Fatalf("nested section: got %v, want %v", inner, want[4:7])
	}
}
