package batch

import (
	"math/bits"
	"testing"
)

// TestStoreRecyclesColumns: a store hands the previous set's columns to
// the next, zeroed, shortest fit first, and each only once; the nil store
// allocates.
func TestStoreRecyclesColumns(t *testing.T) {
	var s Store
	a := s.NewCol(3, 8, []int{0})
	root := s.NewCol(2, 8, nil)
	s.Reserve(root, []int{1}, 3)
	a.Col(0)[7], root.Col(1)[2] = 5, 6
	s.Recycle()
	// The 3-row column fits a 2-row reserve better than the 8-row one.
	r := s.NewCol(2, 8, nil)
	s.Reserve(r, []int{0}, 2)
	if &r.Col(0)[0] != &root.Col(1)[0] || r.Col(0)[1] != 0 || len(r.Col(0)) != 2 {
		t.Fatalf("reserve drew %v, want the old 3-row column, zeroed, cut to 2", r.Col(0))
	}
	b := s.NewCol(1, 8, []int{0})
	if &b.Col(0)[0] != &a.Col(0)[0] || b.Col(0)[7] != 0 {
		t.Fatal("the 8-row column was not handed on zeroed")
	}
	if c := s.NewCol(1, 8, []int{0}); &c.Col(0)[0] == &b.Col(0)[0] {
		t.Fatal("a column was handed out twice")
	}
	var none *Store
	if n := none.NewCol(2, 4, []int{1}); len(n.Col(1)) != 4 {
		t.Fatal("the nil store made no column")
	}
}

// TestStoreKeepsBoundedColumns: sets that each reserve one column, one row
// longer than the last, leave the store one column per power of two, not
// one per length.
func TestStoreKeepsBoundedColumns(t *testing.T) {
	var s Store
	const longest = 1000
	for n := 1; n <= longest; n++ {
		s.Recycle()
		s.Reserve(s.NewCol(1, longest, nil), []int{0}, n)
	}
	s.Recycle()
	if want := bits.Len(longest-1) + 1; len(s.free) != want {
		t.Fatalf("the store keeps %d columns, want %d (one per power of two up to %d)", len(s.free), want, longest)
	}
}
