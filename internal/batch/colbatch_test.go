package batch

import (
	"reflect"
	"testing"
)

func TestColBatchPopulation(t *testing.T) {
	b := NewCol(5, 8, []int{1, 3})
	if b.Width() != 5 || b.Cap() != 8 || b.Len() != 0 || b.Live() != 0 {
		t.Fatalf("fresh batch: width=%d cap=%d len=%d live=%d", b.Width(), b.Cap(), b.Len(), b.Live())
	}
	for c := 0; c < 5; c++ {
		want := c == 1 || c == 3
		if (b.Col(c) != nil) != want {
			t.Fatalf("Col(%d) nil-ness wrong", c)
		}
	}
	if len(b.Col(1)) != 8 {
		t.Fatalf("populated column length = %d, want cap 8", len(b.Col(1)))
	}
}

func TestColBatchSelection(t *testing.T) {
	b := NewCol(2, 8, []int{0, 1})
	b.SetLen(4)
	for i := 0; i < 4; i++ {
		b.Col(0)[i] = int64(10 + i)
		b.Col(1)[i] = int64(20 + i)
	}
	if b.Live() != 4 || b.Sel() != nil {
		t.Fatalf("dense batch: live=%d sel=%v", b.Live(), b.Sel())
	}
	sel := append(b.SelBuf(), 1, 3)
	b.SetSel(sel)
	if b.Live() != 2 || b.Len() != 4 {
		t.Fatalf("after sel: live=%d len=%d", b.Live(), b.Len())
	}
	row := make([]int64, 2)
	b.LiveRow(0, row)
	if !reflect.DeepEqual(row, []int64{11, 21}) {
		t.Fatalf("live row 0 = %v", row)
	}
	b.LiveRow(1, row)
	if !reflect.DeepEqual(row, []int64{13, 23}) {
		t.Fatalf("live row 1 = %v", row)
	}
	// SetLen re-densifies; Reset empties but keeps storage.
	b.SetLen(3)
	if b.Sel() != nil || b.Live() != 3 {
		t.Fatalf("SetLen did not clear selection")
	}
	b.Reset()
	if b.Len() != 0 || b.Live() != 0 || b.Sel() != nil {
		t.Fatalf("Reset left state behind")
	}
}

func TestColBatchDefaultCap(t *testing.T) {
	b := NewCol(1, 0, []int{0})
	if b.Cap() != DefaultCap {
		t.Fatalf("cap = %d, want DefaultCap", b.Cap())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetLen beyond capacity did not panic")
		}
	}()
	b.SetLen(DefaultCap + 1)
}

// TestColBatchReserve: a column shorter than the rows reserved gets
// exactly that many, a long enough one — every column NewCol populated —
// keeps its storage, and reserving again what is already held allocates
// nothing.
func TestColBatchReserve(t *testing.T) {
	b := NewCol(3, 8, []int{2})
	full := b.Col(2)
	b.Reserve([]int{0, 2}, 5)
	if len(b.Col(0)) != 5 || b.Col(1) != nil || &b.Col(2)[0] != &full[0] || len(b.Col(2)) != 8 {
		t.Fatalf("after Reserve(5): lengths %d/%d/%d", len(b.Col(0)), len(b.Col(1)), len(b.Col(2)))
	}
	if allocs := testing.AllocsPerRun(10, func() { b.Reserve([]int{0, 2}, 5) }); allocs != 0 {
		t.Fatalf("reserving held rows allocates %.0f", allocs)
	}
	b.Reserve([]int{0}, 7)
	if len(b.Col(0)) != 7 {
		t.Fatalf("grown column holds %d rows, want 7", len(b.Col(0)))
	}
}

// TestColBatchPrefixView: a view has the prefix's width and the batch's
// capacity, starts empty, and what a writer fills in it is in the batch.
func TestColBatchPrefixView(t *testing.T) {
	b := NewCol(4, 8, AllCols(4))
	b.SetLen(3)
	b.SetSel(append(b.SelBuf(), 1))
	var v ColBatch
	b.PrefixView(&v, 2)
	if v.Width() != 2 || v.Cap() != 8 || v.Len() != 0 || v.Sel() != nil {
		t.Fatalf("view: width %d cap %d len %d sel %v", v.Width(), v.Cap(), v.Len(), v.Sel())
	}
	v.Col(1)[0] = 42
	if b.Col(1)[0] != 42 {
		t.Fatal("a value written through the view is not in the batch")
	}
	if allocs := testing.AllocsPerRun(10, func() { b.PrefixView(&v, 2) }); allocs != 0 {
		t.Fatalf("PrefixView allocates %.0f", allocs)
	}
	if src := FromRows(&sliceRows{rows: [][]int64{{1, 2}}}); !src.NextColBatch(&v, []int{0, 1}) || v.Len() != 1 {
		t.Fatal("a two-column row source rejected the two-column view of a four-column batch")
	}
}
