package batch

import "math/bits"

// Store keeps column storage from one set of batches to the next: a
// reader calls Recycle before it builds each set, and the columns the
// previous set drew are handed to the new one wherever it asks for one no
// longer than they are. A reader that rebuilds its batches — the engine
// reopening an ExecState for another plan — thus allocates only where the
// new batches need more than the old ones had. The store hands out the
// shortest free column that fits and never frees one. It makes a column
// only when no free one is long enough, and makes every capacity a power
// of two, so what it keeps is bounded: never more columns of a capacity or
// longer than one set drew. Exact lengths would not bound it — a root
// batch reserves as many rows as a query's LIMIT, and columns of every
// length asked for would accumulate. The nil Store allocates every column
// at its length. One goroutine at a time.
type Store struct {
	held [][]int64 // drawn since the last Recycle
	free [][]int64 // handed back and not drawn again
}

// Recycle begins a new set of batches. Every column the previous set drew
// goes back to the store, so the batches holding them must not be used
// again.
func (s *Store) Recycle() {
	s.free = append(s.free, s.held...)
	clear(s.held)
	s.held = s.held[:0]
}

// NewCol is the package's NewCol with column storage drawn from s.
func (s *Store) NewCol(width, capRows int, populated []int) *ColBatch {
	if capRows <= 0 {
		capRows = DefaultCap
	}
	b := &ColBatch{width: width, capRows: capRows, cols: make([][]int64, width)}
	for _, c := range populated {
		if b.cols[c] == nil {
			b.cols[c] = s.col(capRows)
		}
	}
	return b
}

// Reserve is b.Reserve with the rows drawn from s.
func (s *Store) Reserve(b *ColBatch, cols []int, n int) {
	for _, c := range cols {
		if len(b.cols[c]) < n {
			b.cols[c] = s.col(n)
		}
	}
}

// col returns n zeroed values.
func (s *Store) col(n int) []int64 {
	if s == nil {
		return make([]int64, n)
	}
	best := -1
	for i, c := range s.free {
		if cap(c) >= n && (best < 0 || cap(c) < cap(s.free[best])) {
			best = i
		}
	}
	var c []int64
	if best < 0 {
		c = make([]int64, n, 1<<bits.Len(uint(n-1)))
	} else {
		c = s.free[best][:n]
		clear(c)
		last := len(s.free) - 1
		s.free[best], s.free[last] = s.free[last], nil
		s.free = s.free[:last]
	}
	s.held = append(s.held, c)
	return c
}
