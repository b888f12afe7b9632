package engine

import (
	"context"

	"repro/internal/batch"
	"repro/internal/parallel"
)

// Morsel-driven parallel execution is a blocking sink's drain. Because a
// dataless scan is a pure function of the summary — any row range of a
// relation can be generated independently — the scan→filter→join spine
// under a plan's innermost sink (COUNT(*), GROUP BY, DISTINCT, ORDER BY)
// splits into contiguous row-range morsels that workers pull from a shared
// atomic queue, and the workers meet at the pipeline breaker, the sink.
// Nothing here builds operators: a worker's spine is an openCol tree like
// any other. The sink's own child is worker 0's; opening it drained every
// hash-join build side into the execution's build cache, so the other
// workers, which the sink opens from the same sub-plan against that cache
// (openMorsels), hit on every join and share the read-only arenas. Per
// morsel a worker points its scan leaf at the morsel's section, resets its
// join cursors and folds its spine's output into its own partial state,
// worker 0's being the sink's.
//
// The sink then drains the pool (morselDrain) in place of its child: like
// the summary-row evaluator, a drain that folds straight into the sink's
// state and hands it no batch. It merges in worker order — node counts and
// spans summed down the spine, partial states folded into the sink's — and
// the sink finishes and emits exactly as after a sequential drain, through
// whatever sinks and LIMIT sit above it. States merge order-insensitively
// (exact 128-bit sums; total-order sorting), so the ExecResult is
// byte-identical to the sequential drive regardless of worker count or
// scheduling. A plan with no sink — rows flowing out of the spine, under a
// LIMIT or not — drains sequentially at every Parallelism, as does a sink
// at Parallelism 1 or over a spine of one morsel. A reused
// ExecState rewinds the pool with its sink: the same spines, states and
// batches serve the next execution.

// morselDrain is a sink's child when the sink drains its spine on morsel
// workers: the leaf's partitionable row space and every worker's spine.
type morselDrain struct {
	src     parallel.Source // the leaf's row space — the pruned one when the opener swapped it in
	size    int64           // morsel rows
	workers []*morselWorker // workers[0] is the sink's own spine and state
	err     error           // a worker's failure, parked for deferredErr
}

// morselWorker is one worker's spine, taken apart into what the morsel loop
// touches.
type morselWorker struct {
	ctl   *execCtl           // the spine's; bound to the pool's context while it runs
	top   colIterator        // spine top: what a morsel drains
	node  *ExecNode          // top's node
	joins []*colHashJoinIter // pair-join probe cursors, reset per morsel
	leaf  *colScanIter       // re-pointed at each morsel's section
	b     *batch.ColBatch    // receives top's batches
	sink  sinkState          // the worker's partial state of the sink it feeds
}

// newMorselWorker takes apart the spine top (ExecNode mirror node), opened
// with ctl, whose batches b receives. Nil when the spine is not
// scan→filter→probe all the way down.
func newMorselWorker(top colIterator, node *ExecNode, b *batch.ColBatch, ctl *execCtl) *morselWorker {
	w := &morselWorker{ctl: ctl, top: top, node: node, b: b}
	for it := top; ; {
		switch s := it.(type) {
		case *colHashJoinIter:
			w.joins = append(w.joins, s)
			it = s.probe
		case *colKeyJoinIter:
			// In place, like a filter: no cursor outlives a batch.
			it = s.probe
		case *colFilterIter:
			it = s.child
		case *colScanIter:
			w.leaf = s
			return w
		default:
			return nil
		}
	}
}

// openMorsels readies sink g, just opened for plan node pn, to drain its
// spine on g.ctl.workers workers — its child becomes their morselDrain — or
// leaves it sequential when the child is not a spine over a partitionable
// leaf, or when the clamp leaves one worker. need is the set g's child was
// opened with; collect and late are g's state's (a late top-K's, after
// sortLate.keep). Every other worker opens pn's child with need against
// builds, which retains what g's child drained, so each of theirs hits on
// every join, and the same prune cache yields the same pruned scans and
// absorbed filters — the spines are identically shaped by construction.
func openMorsels(db *Database, pn *PlanNode, g *colSinkIter, need, collect []int, late *sortLate, capRows int, builds *buildCache) error {
	w0 := newMorselWorker(g.child, g.node.Children[0], g.buf, g.ctl)
	if w0 == nil {
		return nil
	}
	src, ok := w0.leaf.src.(parallel.Source)
	if !ok {
		return nil
	}
	// A worker beyond the morsel count would open a spine only to find the
	// queue empty; the clamp depends only on plan and options, so
	// determinism is preserved. One worker would pay a goroutine, a queue
	// and a section per morsel for no concurrency: it drains in place.
	total := src.Total()
	size := morselRows(total, g.ctl.workers, capRows)
	n := int(min(int64(g.ctl.workers), max((total+size-1)/size, 1)))
	if n < 2 {
		return nil
	}
	w0.sink = g.st
	d := &morselDrain{src: src, size: size, workers: []*morselWorker{w0}}
	for len(d.workers) < n {
		// Each worker owns its cancellation control (latching is
		// single-goroutine state); spans come from the execution's recorder,
		// here, before the pool starts (it is not concurrency-safe).
		ctl := &execCtl{rec: g.ctl.rec, prunes: g.ctl.prunes, store: g.ctl.store}
		it, width, pop, node, err := openCol(db, pn.Children[0], need, capRows, builds, ctl)
		if err != nil {
			return err
		}
		w := newMorselWorker(it, node, ctl.store.NewCol(width, capRows, pop), ctl)
		w.sink = newSinkState(pn, collect, width, late)
		d.workers = append(d.workers, w)
	}
	g.child = d
	return nil
}

// morselRows picks the scheduling granule: bounded above by the default
// morsel size, bounded below by the batch capacity (a morsel smaller than
// one batch would only add setup overhead), and scaled so every worker
// sees several morsels even on small relations.
func morselRows(total int64, workers, batchSize int) int64 {
	if batchSize <= 0 {
		batchSize = batch.DefaultCap
	}
	m := total / int64(workers*4)
	if m > parallel.DefaultMorselRows {
		m = parallel.DefaultMorselRows
	}
	if b := int64(batchSize); m < b {
		m = b
	}
	return m
}

// Next drains the pool into the sink's state and hands the sink no batch.
func (d *morselDrain) Next(*batch.ColBatch) bool {
	d.err = d.drain()
	return false
}

// drain runs the morsel pool under the execution's context, binds worker
// 0's control — the sink's — back to that context, and merges the other
// workers into worker 0's spine nodes, spans and state in worker order. The
// first real worker error cancels the siblings, and pure cancellation
// surfaces the context's own error deterministically (parallel.RunCtx). A
// per-execution fan-out, not per-batch work: it starts goroutines and a
// morsel queue.
//
//hydra:coldpath
func (d *morselDrain) drain() error {
	w0 := d.workers[0]
	ctx := w0.ctl.ctx
	morsels := parallel.NewMorsels(d.src.Total(), d.size)
	err := parallel.RunCtx(ctx, len(d.workers), func(wctx context.Context, i int) error {
		return d.workers[i].run(wctx, d.src, morsels)
	})
	// Worker 0 ran under the pool's context; the sink's emit runs on the
	// calling goroutine under the caller's, so a cancellation arriving
	// during a large merged-sort emit still unwinds at the next batch
	// boundary.
	w0.ctl.bind(ctx)
	if err != nil {
		return err
	}
	// The spines are identically shaped, so the fold walks them in step down
	// the probe side (a join's build subtree, Children[1], was drained once
	// and is already final); traced runs fold spans the same way — summed
	// durations, widened windows.
	for _, w := range d.workers[1:] {
		for dst, src := w0.node, w.node; ; dst, src = dst.Children[0], src.Children[0] {
			dst.OutRows += src.OutRows
			if dst.sp != nil {
				dst.sp.Merge(src.sp)
			}
			if len(dst.Children) == 0 {
				break
			}
		}
		w0.sink.merge(w.sink)
	}
	return nil
}

// run drains morsels from the queue through the worker's spine into its
// partial state until the queue or the context ends. A section that stopped
// on bad input fails the query at any worker count, as it does the
// sequential drive.
func (w *morselWorker) run(ctx context.Context, src parallel.Source, morsels *parallel.Morsels) error {
	w.ctl.bind(ctx)
	defer w.ctl.unbind()
	for !w.ctl.stopped() {
		lo, hi, ok := morsels.Next()
		if !ok {
			return nil
		}
		w.leaf.src = src.Section(lo, hi)
		for _, ji := range w.joins {
			ji.reset()
		}
		for w.top.Next(w.b) {
			w.sink.observe(w.b)
		}
		if err := w.top.deferredErr(); err != nil {
			return err
		}
	}
	return w.ctl.err
}

// rewind readies every worker's spine, and every partial state but worker
// 0's (the sink resets its own), for another execution of the same plan.
func (d *morselDrain) rewind(db *Database) error {
	d.err = nil
	for i, w := range d.workers {
		if i > 0 {
			w.sink.reset()
		}
		if err := w.top.rewind(db); err != nil {
			return err
		}
	}
	return nil
}

// deferredErr is the drain's parked failure: every worker checked its
// spine's deferred error after each morsel.
func (d *morselDrain) deferredErr() error { return d.err }
