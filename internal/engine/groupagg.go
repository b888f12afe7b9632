package engine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/batch"
	"repro/internal/sqlkit"
)

// ErrAggOverflow tags SUM/AVG totals that exceed int64. The policy is
// detect-and-fail, never wrap: a silently wrapped aggregate is a wrong
// answer with no witness. Sums are carried in 128 bits and judged on the
// final total, so the decision depends only on the data — never on batch
// boundaries, morsel partitioning, or worker count. Test with errors.Is.
var ErrAggOverflow = errors.New("aggregate overflow")

// groupAggState is the vectorized hash-aggregation state behind OpGroupAgg
// and OpDistinct (DISTINCT is grouping over the select list with no
// aggregates, emitting only the keys). It implements the sinkState contract
// (sink.go) and is thereby shared by the sequential columnar executor, each
// worker of the parallel executor (partial aggregation via observe, merged
// deterministically in worker order), the summary-direct regime, and the
// Prepared/ExecuteIn reuse path. Batches come in through observe; whole
// per-group partials — another worker's groups in merge, the summary
// fold's closed-form observations — through add, the one per-group
// combine.
//
// Layout is columnar throughout: group keys live in one slice per GROUP BY
// column and accumulators in one slice per aggregate, both indexed by dense
// group id, so a batch is consumed as per-column accumulate passes — rows
// are never pivoted until output. The group hash table is open-addressed
// (linear probing over a power-of-two slot array) rather than a Go map so
// that reset() can recycle every piece of storage: a steady-state grouped
// query on a reused state allocates nothing.
//
// SUM and AVG accumulate exactly in 128 bits (accs = low word, accsHi =
// high word): intermediate partial sums cannot overflow, so sequential
// and parallel execution at any batch size agree on the one check that
// matters — whether the final total fits int64 (finish() raises
// ErrAggOverflow otherwise). AVG finalizes as the truncated integer
// quotient of that exact sum.
type groupAggState struct {
	groupBy []int
	aggs    []AggSpec
	items   []GroupOut

	keys   [][]int64 // per GroupBy column: key value by group id
	hashes []uint64  // per group: key hash (for table growth)
	counts []int64   // per group: row count (COUNT and AVG read it)
	// accs holds one accumulator arena per aggregate, by group id: the
	// MIN/MAX running value, or a 128-bit sum's low word (two's
	// complement) with its high word in the parallel accsHi arena. An
	// aggregate has only the arenas it reads: COUNT, answered from
	// counts, has neither, and MIN/MAX have no accsHi.
	accs   [][]int64
	accsHi [][]int64

	table  []int32   // open-addressed slots: group id + 1, 0 = empty
	rowGid []int32   // scratch: per-batch live-row position -> group id
	gcols  [][]int64 // scratch: the batch's GroupBy column vectors
	keyBuf []int64   // scratch: one row's key tuple
	part   []int64   // scratch: one observation's partials, lo then hi (partials)
	order  []int32   // group ids in deterministic output order

	err error
}

const groupTableMinSlots = 64

// newGroupAggState readies the state for pn's grouping and aggregates. A
// global aggregate (no GROUP BY) always has exactly one group, present even
// over empty input — SQL's one-row answer for SELECT SUM(...) FROM empty.
func newGroupAggState(pn *PlanNode) *groupAggState {
	st := &groupAggState{
		groupBy: pn.GroupBy,
		aggs:    pn.Aggs,
		items:   pn.Items,
		keys:    make([][]int64, len(pn.GroupBy)),
		accs:    make([][]int64, len(pn.Aggs)),
		accsHi:  make([][]int64, len(pn.Aggs)),
		gcols:   make([][]int64, len(pn.GroupBy)),
		keyBuf:  make([]int64, len(pn.GroupBy)),
	}
	st.reset()
	return st
}

// reset recycles the state for another execution: counters to zero, slices
// truncated in place, the slot table cleared. No storage is released.
func (st *groupAggState) reset() {
	for i := range st.keys {
		st.keys[i] = st.keys[i][:0]
	}
	for i := range st.accs {
		st.accs[i] = st.accs[i][:0]
		st.accsHi[i] = st.accsHi[i][:0]
	}
	st.hashes = st.hashes[:0]
	st.counts = st.counts[:0]
	st.order = st.order[:0]
	clear(st.table)
	st.err = nil
	if len(st.groupBy) == 0 {
		st.addGroup(0)
	}
}

// deferredErr reports an aggregate-overflow failure judged at finish,
// implementing the sinkState deferred-error convention.
func (st *groupAggState) deferredErr() error { return st.err }

// addGroup appends a fresh group with the given key hash; the caller fills
// its key values. Accumulators start at the aggregate's identity (MIN at
// MaxInt64, MAX at MinInt64, sums at zero).
func (st *groupAggState) addGroup(h uint64) int32 {
	g := int32(len(st.counts))
	st.counts = append(st.counts, 0)
	st.hashes = append(st.hashes, h)
	for i := range st.accs {
		switch st.aggs[i].Fn {
		case sqlkit.AggMin:
			st.accs[i] = append(st.accs[i], math.MaxInt64)
		case sqlkit.AggMax:
			st.accs[i] = append(st.accs[i], math.MinInt64)
		case sqlkit.AggSum, sqlkit.AggAvg:
			st.accs[i] = append(st.accs[i], 0)
			st.accsHi[i] = append(st.accsHi[i], 0)
		}
	}
	return g
}

// hashKey mixes one key tuple into a table hash (FNV-style combine with a
// final avalanche so sequential codes spread across the slot array).
func hashKey(vals []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h ^= uint64(v)
		h *= 1099511628211
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// lookup finds or inserts the group for the key tuple in vals, growing the
// slot table when it passes half full.
func (st *groupAggState) lookup(vals []int64) int32 {
	if len(st.table) == 0 {
		st.grow(groupTableMinSlots)
	}
	h := hashKey(vals)
	mask := uint64(len(st.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		t := st.table[i]
		if t == 0 {
			g := st.addGroup(h)
			for ki, v := range vals {
				st.keys[ki] = append(st.keys[ki], v)
			}
			st.table[i] = g + 1
			if 2*len(st.counts) > len(st.table) {
				st.grow(2 * len(st.table))
			}
			return g
		}
		g := t - 1
		match := true
		for ki, v := range vals {
			if st.keys[ki][g] != v {
				match = false
				break
			}
		}
		if match {
			return g
		}
	}
}

// grow rehashes every group into a slot table of n slots (a power of two).
func (st *groupAggState) grow(n int) {
	if cap(st.table) >= n {
		st.table = st.table[:n]
		clear(st.table)
	} else {
		st.table = make([]int32, n)
	}
	mask := uint64(n - 1)
	for g, h := range st.hashes {
		for i := h & mask; ; i = (i + 1) & mask {
			if st.table[i] == 0 {
				st.table[i] = int32(g) + 1
				break
			}
		}
	}
}

// observe folds one child batch into the state: an assignment pass maps
// every live row to its dense group id (creating groups as found), then one
// tight pass per aggregate column accumulates under that mapping. The
// selection vector is honored without compacting the batch.
func (st *groupAggState) observe(b *batch.ColBatch) {
	if st.err != nil {
		return
	}
	live := b.Live()
	if live == 0 {
		return
	}
	sel := b.Sel()

	var rowGid []int32
	if len(st.groupBy) > 0 {
		if cap(st.rowGid) < live {
			st.rowGid = make([]int32, live)
		}
		rowGid = st.rowGid[:live]
		for ki, c := range st.groupBy {
			st.gcols[ki] = b.Col(c)
		}
		// A live row whose key tuple repeats the previous one's takes its
		// group without a lookup: regenerated rows come in runs of one
		// summary row, whose Fixed keys repeat for the whole run.
		g := int32(-1)
		for i := 0; i < live; i++ {
			r := i
			if sel != nil {
				r = int(sel[i])
			}
			same := g >= 0
			for ki, col := range st.gcols {
				if v := col[r]; v != st.keyBuf[ki] {
					st.keyBuf[ki], same = v, false
				}
			}
			if !same {
				g = st.lookup(st.keyBuf)
			}
			rowGid[i] = g
			st.counts[g]++
		}
	} else {
		st.counts[0] += int64(live)
	}

	for ai := range st.aggs {
		spec := &st.aggs[ai]
		if spec.Col < 0 {
			continue // COUNT: the assignment pass already counted
		}
		col := b.Col(spec.Col)
		acc := st.accs[ai]
		switch spec.Fn {
		case sqlkit.AggSum, sqlkit.AggAvg:
			accumulateSum128(acc, st.accsHi[ai], col, sel, rowGid, live)
		case sqlkit.AggMin:
			if sel == nil {
				for i := 0; i < live; i++ {
					if g := gid(rowGid, i); col[i] < acc[g] {
						acc[g] = col[i]
					}
				}
			} else {
				for i, r := range sel {
					if g := gid(rowGid, i); col[r] < acc[g] {
						acc[g] = col[r]
					}
				}
			}
		case sqlkit.AggMax:
			if sel == nil {
				for i := 0; i < live; i++ {
					if g := gid(rowGid, i); col[i] > acc[g] {
						acc[g] = col[i]
					}
				}
			} else {
				for i, r := range sel {
					if g := gid(rowGid, i); col[r] > acc[g] {
						acc[g] = col[r]
					}
				}
			}
		}
	}
}

// gid reads the group of live-row i: with no GROUP BY every row belongs to
// the single global group.
func gid(rowGid []int32, i int) int32 {
	if rowGid == nil {
		return 0
	}
	return rowGid[i]
}

// accumulateSum128 adds the selected column values into per-group 128-bit
// sums (lo = two's-complement low word, hi = high word). 128 bits cannot
// overflow from int64 addends at any feasible row count, so accumulation
// itself is infallible; finish() judges the totals.
func accumulateSum128(lo, hi, col []int64, sel []int32, rowGid []int32, live int) {
	if sel == nil {
		for i := 0; i < live; i++ {
			g := gid(rowGid, i)
			add128(&lo[g], &hi[g], col[i])
		}
		return
	}
	for i, r := range sel {
		g := gid(rowGid, i)
		add128(&lo[g], &hi[g], col[r])
	}
}

// add128 adds the sign-extended v into the 128-bit accumulator (*lo, *hi).
func add128(lo, hi *int64, v int64) {
	s, carry := bits.Add64(uint64(*lo), uint64(v), 0)
	*lo = int64(s)
	*hi += (v >> 63) + int64(carry)
}

// sum128Fits reports whether the 128-bit value (lo, hi) is representable
// as int64: the high word must be the sign extension of the low word.
func sum128Fits(lo, hi int64) bool { return hi == lo>>63 }

// merge folds other's partial groups into st through add. Accumulation is
// by key lookup, so morsel partitioning never changes the answer; calling
// merge in worker-index order keeps the (overflow-checked) sum order
// deterministic.
func (st *groupAggState) merge(o sinkState) {
	other := o.(*groupAggState)
	if st.err == nil {
		st.err = other.err
	}
	if st.err != nil {
		return
	}
	lo, hi := st.partials()
	for og := range other.counts {
		for ki := range st.groupBy {
			st.keyBuf[ki] = other.keys[ki][og]
		}
		for ai := range st.aggs {
			if acc := other.accs[ai]; acc != nil {
				lo[ai] = acc[og]
			}
			if acc := other.accsHi[ai]; acc != nil {
				hi[ai] = acc[og]
			}
		}
		st.add(other.counts[og], lo, hi)
	}
}

// partials returns scratch for one observation's per-aggregate partials,
// add's lo and hi, allocated on first use.
func (st *groupAggState) partials() (lo, hi []int64) {
	if st.part == nil {
		st.part = make([]int64, 2*len(st.aggs))
	}
	return st.part[:len(st.aggs)], st.part[len(st.aggs):]
}

// add folds one observation into the group of the key tuple in keyBuf (the
// global group without GROUP BY): cnt rows whose per-aggregate partials are
// lo[ai] — a MIN/MAX value or a sum's low word — and hi[ai], a sum's high
// word. merge and the summary-direct fold (summaryagg.go) both combine
// through it; COUNT reads neither partial.
func (st *groupAggState) add(cnt int64, lo, hi []int64) {
	var g int32
	if len(st.groupBy) > 0 {
		g = st.lookup(st.keyBuf)
	}
	st.counts[g] += cnt
	for ai := range st.aggs {
		switch acc := st.accs[ai]; st.aggs[ai].Fn {
		case sqlkit.AggSum, sqlkit.AggAvg:
			// 128-bit addition: exact, so the total is independent of how
			// the rows were split into observations.
			s, carry := bits.Add64(uint64(acc[g]), uint64(lo[ai]), 0)
			acc[g] = int64(s)
			st.accsHi[ai][g] += hi[ai] + int64(carry)
		case sqlkit.AggMin:
			acc[g] = min(acc[g], lo[ai])
		case sqlkit.AggMax:
			acc[g] = max(acc[g], lo[ai])
		}
	}
}

// finish freezes the deterministic output order — group ids sorted
// ascending by key tuple (GROUP BY clause order); sorting, rather than
// order of first appearance, is what makes sequential and
// parallel-at-any-worker-count output byte-identical at every batch size —
// and judges every SUM/AVG total: a total outside int64 raises
// ErrAggOverflow here, the one place all execution paths share.
func (st *groupAggState) finish() {
	st.order = st.order[:0]
	for g := 0; g < len(st.counts); g++ {
		st.order = append(st.order, int32(g))
	}
	sort.Sort(st)
	if st.err != nil {
		return
	}
	for ai := range st.aggs {
		fn := st.aggs[ai].Fn
		if fn != sqlkit.AggSum && fn != sqlkit.AggAvg {
			continue
		}
		lo, hi := st.accs[ai], st.accsHi[ai]
		for g := range lo {
			if !sum128Fits(lo[g], hi[g]) {
				st.err = aggOverflowErr(fn)
				return
			}
		}
	}
}

// aggOverflowErr builds the judged-overflow error off the hot path; finish
// runs per sink drain, and the formatting must not ride along when every
// total fits.
//
//hydra:coldpath
func aggOverflowErr(fn sqlkit.AggFunc) error {
	return fmt.Errorf("engine: %w: %s total exceeds int64", ErrAggOverflow, fn)
}

// sort.Interface over order, comparing key tuples. Implemented on the state
// itself (not a closure) so the steady-state sort allocates nothing.
func (st *groupAggState) Len() int { return len(st.order) }
func (st *groupAggState) Less(i, j int) bool {
	gi, gj := st.order[i], st.order[j]
	for ki := range st.groupBy {
		a, b := st.keys[ki][gi], st.keys[ki][gj]
		if a != b {
			return a < b
		}
	}
	return false
}
func (st *groupAggState) Swap(i, j int) { st.order[i], st.order[j] = st.order[j], st.order[i] }

// value finalizes one output column for one group. Empty-group identities
// (only the global group can be empty): COUNT is 0, SUM/MIN/MAX/AVG emit 0.
// AVG is the truncated integer quotient of the exact sum.
func (st *groupAggState) value(it GroupOut, g int32) int64 {
	if it.Agg < 0 {
		return st.keys[it.Key][g]
	}
	cnt := st.counts[g]
	switch st.aggs[it.Agg].Fn {
	case sqlkit.AggCount:
		return cnt
	case sqlkit.AggAvg:
		if cnt == 0 {
			return 0
		}
		return st.accs[it.Agg][g] / cnt
	default:
		if cnt == 0 {
			return 0
		}
		return st.accs[it.Agg][g]
	}
}

// emit writes output rows for the sorted groups order[pos:pos+k] into dst
// (k bounded by dst's capacity), populating only outCols, one column pass
// at a time. It returns k; zero means exhausted.
func (st *groupAggState) emit(dst *batch.ColBatch, outCols []int, pos int) int {
	k := len(st.order) - pos
	if k <= 0 {
		return 0
	}
	if k > dst.Cap() {
		k = dst.Cap()
	}
	dst.Reserve(outCols, k)
	for _, oc := range outCols {
		it := st.items[oc]
		out := dst.Col(oc)
		for i := 0; i < k; i++ {
			out[i] = st.value(it, st.order[pos+i])
		}
	}
	dst.SetLen(k)
	return k
}
