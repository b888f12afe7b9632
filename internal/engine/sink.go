package engine

import "repro/internal/batch"

// The sink framework: every blocking root operator — grouped aggregation,
// DISTINCT, ORDER BY, COUNT(*) — is one state object implementing sinkState,
// executed by the single colSinkIter operator, which finishes the state and
// emits it whatever drained it. A sink has one of three drains, chosen in
// one place, openCol's sink case:
//
//   - its spine: observe runs over the child's batches;
//   - the summary-row evaluator (summaryagg.go), for the sink the plan's
//     reading answers: it folds straight into the state and hands the sink
//     no batch;
//   - the morsel pool (exec_parallel.go), which openMorsels makes of the
//     innermost sink's spine: every worker's spine folds its morsels into a
//     partial state with observe, worker 0's being the sink's own child and
//     state, and the partials merge into the sink's state in worker-index
//     order.
//
// A reused ExecState (Prepared.ExecuteIn) recycles the states via reset, so
// grouped, distinct, and sorted steady-state queries allocate nothing.
//
// finish freezes the deterministic output order exactly once; emit is then a
// pure, restartable read. deferredErr surfaces failures that can only be
// judged after the drain (aggregate overflow), replacing the old
// rowIterErr/colIterErr type probes with one convention shared by every
// operator.
type sinkState interface {
	// observe folds one child batch into the state (selection-aware).
	observe(b *batch.ColBatch)
	// merge folds another execution's partial state of the same kind — a
	// parallel worker's — into this one; the finished output must not depend
	// on how the input was split or in what order partials merge.
	merge(other sinkState)
	// finish freezes the deterministic output order and judges deferred
	// failures. Called exactly once per execution, after the last observe —
	// for a morsel-parallel drain, after the last merge.
	finish()
	// emit writes output rows [pos, pos+k) into dst, k at most dst's
	// capacity, populating only outCols — which it first reserves for the
	// k rows (ColBatch.Reserve: the root batch holds no storage until its
	// sink emits) — and returns k (0 = exhausted).
	emit(dst *batch.ColBatch, outCols []int, pos int) int
	// reset recycles the state for another execution without releasing
	// storage (the zero-allocation steady-state contract).
	reset()
	// deferredErr reports a failure detected at finish, or nil.
	deferredErr() error
}

// colSinkIter is the one blocking operator of the columnar pipeline: it
// drains its child into a sinkState on the first Next, then streams the
// state's deterministic output. OpAggregate (COUNT(*), one global group),
// OpGroupAgg and OpDistinct (all groupAggState) and OpSort (sortState) are
// this operator with different states. Its child is a
// spine, a sink, or a drain that folds into st itself and hands it no
// batch: the summary-row evaluator or the morsel pool.
type colSinkIter struct {
	meter
	child   colIterator
	buf     *batch.ColBatch // child output drain batch
	st      sinkState
	outCols []int // output columns the caller materializes
	ctl     *execCtl

	drained bool
	pos     int // next output row to emit
}

// newSinkState returns sink pn's empty state over child batches width
// columns wide: a sort collecting collect (late, for a late top-K), or a
// grouped aggregate.
func newSinkState(pn *PlanNode, collect []int, width int, late *sortLate) sinkState {
	if pn.Op == OpSort {
		return newSortState(pn, collect, width, late)
	}
	return newGroupAggState(pn)
}

// Next's first call covers the whole child drain, so a traced sink's
// inclusive time is dominated by its children; emit batches account for the
// sink's own output.
func (g *colSinkIter) Next(dst *batch.ColBatch) bool {
	g.begin()
	return g.end(dst, g.next(dst))
}

func (g *colSinkIter) next(dst *batch.ColBatch) bool {
	dst.Reset()
	if !g.drained {
		for g.child.Next(g.buf) {
			g.st.observe(g.buf)
		}
		// A drain cut short by cancellation (the child's scan leaf stopped)
		// must not pay for finish — sorting or ordering a large partial
		// state would delay the unwind well past a batch boundary.
		if g.ctl.stopped() {
			return false
		}
		g.st.finish() // freezes order; may park a deferred error
		g.drained = true
	}
	if g.st.deferredErr() != nil {
		return false
	}
	k := g.st.emit(dst, g.outCols, g.pos)
	if k == 0 {
		return false
	}
	g.pos += k
	return true
}

func (g *colSinkIter) rewind(db *Database) error {
	g.st.reset()
	g.drained = false
	g.pos = 0
	g.clear()
	return g.child.rewind(db)
}

func (g *colSinkIter) deferredErr() error {
	if err := g.st.deferredErr(); err != nil {
		return err
	}
	return g.child.deferredErr()
}

// colLimitIter truncates its child's live-row stream to rows
// [offset, offset+limit). It is pure selection arithmetic: a batch's
// selection vector is sliced (or synthesized from the reusable selection
// buffer) and no row data moves. The child is drained to exhaustion even
// after the limit is reached, so every operator's observed cardinality is
// identical across executors and worker counts — annotated-plan fidelity is
// the engine's contract, and a short-circuiting LIMIT would make upstream
// OutRows depend on batch size and execution mode.
type colLimitIter struct {
	meter
	child         colIterator
	limit, offset int64

	seen    int64 // live child rows seen so far
	emitted int64 // rows passed downstream so far
}

func (l *colLimitIter) Next(dst *batch.ColBatch) bool {
	l.begin()
	return l.end(dst, l.next(dst))
}

func (l *colLimitIter) next(dst *batch.ColBatch) bool {
	for {
		if !l.child.Next(dst) {
			return false
		}
		live := int64(dst.Live())
		start := int64(0)
		if l.seen < l.offset {
			start = l.offset - l.seen
			if start > live {
				start = live
			}
		}
		take := live - start
		if rem := l.limit - l.emitted; take > rem {
			take = rem
		}
		l.seen += live
		if take <= 0 {
			continue // keep draining for mode-invariant upstream counts
		}
		end := start + take
		if start > 0 || end < live {
			if sel := dst.Sel(); sel != nil {
				dst.SetSel(sel[start:end])
			} else {
				buf := dst.SelBuf()
				for r := start; r < end; r++ {
					buf = append(buf, int32(r))
				}
				dst.SetSel(buf)
			}
		}
		l.emitted += take
		return true
	}
}

func (l *colLimitIter) rewind(db *Database) error {
	l.seen = 0
	l.emitted = 0
	l.clear()
	return l.child.rewind(db)
}

func (l *colLimitIter) deferredErr() error { return l.child.deferredErr() }
