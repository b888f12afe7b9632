package parallel

import "sync/atomic"

// DefaultMorselRows is the default scheduling granule in rows. Large
// enough that per-morsel pipeline setup (a sub-stream seek plus a few
// struct resets) is amortized to noise against generating tens of
// thousands of tuples, small enough that a skewed filter or a slow worker
// cannot hold the pool hostage on one giant static partition.
const DefaultMorselRows = 16384

// Morsels hands out contiguous row ranges of a [0, Total) row space to
// concurrent workers. Next is safe for concurrent use; every row is
// covered by exactly one morsel, and morsels are issued in ascending
// order (workers may of course *finish* them out of order — consumers
// that need the sequential order back tag results with the morsel's lo).
type Morsels struct {
	total int64
	size  int64
	next  atomic.Int64
}

// NewMorsels schedules total rows in morsels of the given size; size < 1
// selects DefaultMorselRows.
func NewMorsels(total, size int64) *Morsels {
	if size < 1 {
		size = DefaultMorselRows
	}
	if total < 0 {
		total = 0
	}
	return &Morsels{total: total, size: size}
}

// Next claims the next morsel [lo, hi); ok is false when the row space is
// exhausted. The final morsel may be shorter than the configured size.
func (m *Morsels) Next() (lo, hi int64, ok bool) {
	lo = m.next.Add(m.size) - m.size
	if lo >= m.total {
		return 0, 0, false
	}
	hi = lo + m.size
	if hi > m.total {
		hi = m.total
	}
	return lo, hi, true
}
