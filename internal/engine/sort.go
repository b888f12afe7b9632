package engine

import (
	"math"
	"slices"
	"sort"

	"repro/internal/batch"
	"repro/internal/generator"
)

// sortState is the ORDER BY operator's sinkState: collected rows live in
// per-column arenas (only the columns the output or the comparator needs
// carry storage), ordered through an index permutation so a swap never moves
// row data. The comparator is a total order up to full-row equality — the
// ORDER BY keys in clause order, then every collected column ascending — so
// the sorted output is byte-identical no matter how rows arrived: batch
// boundaries, morsel partitioning, and worker count all vanish. That is what
// lets one worker-local sortState per worker, merged by concatenation and
// re-sorted, reproduce the sequential result exactly (the partial-state/
// merge contract).
//
// When a LIMIT directly bounds the sort (SortBound = offset+limit > 0) the
// state keeps only the bound smallest rows in a max-heap: a row worse than
// the current bound-th row is rejected in O(log bound) without being stored.
// The heap is an optimization only — merge concatenates worker heaps and
// finish re-sorts and re-truncates, so bounded and unbounded execution agree
// wherever both emit.
//
// A late top-K (late non-nil; see lateSort in exec_col.go) is the bounded
// state over a scan of a summary-backed table whose primary key it
// collects: it collects only the sort keys and the columns up to the
// primary key (PlanNode.lateNeeds), which decide the same total order,
// and reads its other output columns from the summary at emit, for the
// rows emitted alone. Nothing else differs: heap, merge and finish run on
// the narrower arenas unchanged.
//
// Like groupAggState, every piece of storage survives reset: a steady-state
// ORDER BY [+ LIMIT] query on a recycled state allocates nothing.
type sortState struct {
	keys    []SortKey
	collect []int     // collected columns, ascending (the tiebreak domain)
	arena   [][]int64 // per column: collected values by row slot; nil if uncollected
	order   []int32   // live row slots; heap-ordered while bounded, sorted after finish
	slots   int32     // arena rows in use (including the bounded path's scratch slot)
	bound   int       // > 0: retain only the bound smallest rows
	free    int32     // bounded path: arena slot to write the next candidate into
	late    *sortLate // a late top-K's summary reads; nil when every output column is collected
}

// sortLate is what a late top-K reads at emit: the output columns it does
// not collect, gathered from the scanned table's summary at the collected
// primary keys.
type sortLate struct {
	lk   *generator.Lookup // over the table's registered stream; its cursor is this state's
	pk   int               // the primary key's column (collected)
	cols []int             // the output columns read at emit, ascending
}

// sortBound is the top-K bound pn's state keeps, 0 for none: SortBound
// when it is small enough for the heap's int32 slots, else the sort
// collects everything and finish truncates.
func sortBound(pn *PlanNode) int {
	if pn.SortBound > 0 && pn.SortBound <= math.MaxInt32/2 {
		return int(pn.SortBound)
	}
	return 0
}

// newSortState readies a state for pn's keys over a child of the given
// width. collect is the child's materialized column set — output columns
// plus sort keys, or a late top-K's narrower set — and doubles as the
// comparator's tiebreak domain.
func newSortState(pn *PlanNode, collect []int, width int, late *sortLate) *sortState {
	return &sortState{
		keys:    pn.SortKeys,
		collect: collect,
		arena:   make([][]int64, width),
		bound:   sortBound(pn),
		late:    late,
	}
}

func (st *sortState) reset() {
	for _, c := range st.collect {
		st.arena[c] = st.arena[c][:0]
	}
	st.order = st.order[:0]
	st.slots = 0
	st.free = 0
}

func (st *sortState) deferredErr() error { return nil }

// observe folds one child batch in. The unbounded path appends whole column
// runs (unit-stride per collected column, selection-aware); the bounded path
// tests each candidate against the heap max before admitting it.
func (st *sortState) observe(b *batch.ColBatch) {
	live := b.Live()
	if live == 0 {
		return
	}
	sel := b.Sel()
	if st.bound == 0 {
		base := st.slots
		for _, c := range st.collect {
			col := b.Col(c)
			if sel == nil {
				st.arena[c] = append(st.arena[c], col[:live]...)
			} else {
				a := st.arena[c]
				for _, r := range sel {
					a = append(a, col[r])
				}
				st.arena[c] = a
			}
		}
		for i := 0; i < live; i++ {
			st.order = append(st.order, base+int32(i))
		}
		st.slots += int32(live)
		return
	}
	for i := 0; i < live; i++ {
		r := i
		if sel != nil {
			r = int(sel[i])
		}
		st.admit(b, r)
	}
}

// admit offers one row to the bounded (top-K) collection.
func (st *sortState) admit(b *batch.ColBatch, r int) {
	if len(st.order) < st.bound {
		slot := st.slots
		for _, c := range st.collect {
			st.arena[c] = append(st.arena[c], b.Col(c)[r])
		}
		st.slots++
		st.order = append(st.order, slot)
		if len(st.order) == st.bound {
			st.heapify()
			// One scratch slot receives rejected-or-admitted candidates.
			for _, c := range st.collect {
				st.arena[c] = append(st.arena[c], 0)
			}
			st.free = st.slots
			st.slots++
		}
		return
	}
	// Full: the heap max (order[0]) is the bound-th smallest row so far.
	if st.cmpBatch(b, r, st.order[0]) >= 0 {
		return
	}
	slot := st.free
	for _, c := range st.collect {
		st.arena[c][slot] = b.Col(c)[r]
	}
	st.free = st.order[0]
	st.order[0] = slot
	st.siftDown(0)
}

// cmp orders two collected rows: ORDER BY keys first (direction-aware), then
// every collected column ascending. Zero means the rows are identical on all
// collected columns — and therefore identical in any emitted output.
func (st *sortState) cmp(a, b int32) int {
	for _, k := range st.keys {
		av, bv := st.arena[k.Col][a], st.arena[k.Col][b]
		if av != bv {
			if (av < bv) != k.Desc {
				return -1
			}
			return 1
		}
	}
	for _, c := range st.collect {
		av, bv := st.arena[c][a], st.arena[c][b]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// cmpBatch orders a candidate batch row against a collected arena row under
// the same total order as cmp.
func (st *sortState) cmpBatch(b *batch.ColBatch, r int, g int32) int {
	for _, k := range st.keys {
		av, bv := b.Col(k.Col)[r], st.arena[k.Col][g]
		if av != bv {
			if (av < bv) != k.Desc {
				return -1
			}
			return 1
		}
	}
	for _, c := range st.collect {
		av, bv := b.Col(c)[r], st.arena[c][g]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// heapify establishes the max-heap invariant over order[:bound].
func (st *sortState) heapify() {
	for i := len(st.order)/2 - 1; i >= 0; i-- {
		st.siftDown(i)
	}
}

// siftDown restores the max-heap property below index i.
func (st *sortState) siftDown(i int) {
	n := len(st.order)
	for {
		largest := i
		if l := 2*i + 1; l < n && st.cmp(st.order[l], st.order[largest]) > 0 {
			largest = l
		}
		if r := 2*i + 2; r < n && st.cmp(st.order[r], st.order[largest]) > 0 {
			largest = r
		}
		if largest == i {
			return
		}
		st.order[i], st.order[largest] = st.order[largest], st.order[i]
		i = largest
	}
}

// merge appends other's live rows — a worker's partial collection — into
// st's arenas. Order of merging cannot affect the finished output: finish
// re-sorts under the total order and re-applies the bound.
func (st *sortState) merge(o sinkState) {
	other := o.(*sortState)
	for _, g := range other.order {
		slot := st.slots
		for _, c := range st.collect {
			st.arena[c] = append(st.arena[c], other.arena[c][g])
		}
		st.slots++
		st.order = append(st.order, slot)
	}
}

// finish sorts the live rows ascending under the total order and truncates
// to the bound. Implemented on the state itself (sort.Interface, no
// closures) so the steady-state sort allocates nothing.
func (st *sortState) finish() {
	sort.Sort(st)
	if st.bound > 0 && len(st.order) > st.bound {
		st.order = st.order[:st.bound]
	}
}

func (st *sortState) Len() int           { return len(st.order) }
func (st *sortState) Less(i, j int) bool { return st.cmp(st.order[i], st.order[j]) < 0 }
func (st *sortState) Swap(i, j int)      { st.order[i], st.order[j] = st.order[j], st.order[i] }

// emit writes sorted rows order[pos:pos+k] into dst (k bounded by dst's
// capacity), populating only outCols, one column pass at a time: a
// collected column from its arena, a late one from the summary at the
// rows' primary keys.
func (st *sortState) emit(dst *batch.ColBatch, outCols []int, pos int) int {
	k := len(st.order) - pos
	if k <= 0 {
		return 0
	}
	if k > dst.Cap() {
		k = dst.Cap()
	}
	dst.Reserve(outCols, k)
	rows := st.order[pos : pos+k]
	for _, c := range outCols {
		out := dst.Col(c)[:k]
		if l := st.late; l != nil && slices.Contains(l.cols, c) {
			l.lk.Gather(out, c, st.arena[l.pk], rows)
			continue
		}
		src := st.arena[c]
		for i, g := range rows {
			out[i] = src[g]
		}
	}
	dst.SetLen(k)
	return k
}
