package engine

import (
	"context"
	"sort"

	"repro/internal/batch"
	"repro/internal/parallel"
)

// Morsel-driven parallel execution. Because a dataless scan is a pure
// function of the summary — any row range of a relation can be generated
// independently — the probe side of a plan's scan→filter(→probe) pipeline
// splits into contiguous row-range morsels that workers pull from a shared
// atomic queue. Nothing here builds operators: a worker's pipeline is an
// openCol tree like any other. The execution's own tree, opened first, is
// worker 0's; it drained every hash-join build side into the execution's
// build cache on the way, so the other workers, opened from the same
// sub-plan against that cache, hit on every join and share the read-only
// arenas. Per morsel a worker points its scan leaf at the morsel's section,
// resets its join cursors and drains its pipeline.
//
// Root sinks — COUNT(*), GROUP BY, DISTINCT, ORDER BY, LIMIT — compose via
// the partial-state/merge contract of sink.go rather than parallel-specific
// operator code: each worker folds its morsels' spine output into the state
// of its own innermost sink, partials merge into worker 0's in worker-index
// order, and worker 0's tree then emits from the merged state through the
// sinks it was opened with. The merge is deterministic end to end: operator
// counts are summed in worker order, sink states merge order-insensitively
// (exact 128-bit sums; total-order sorting), and sample rows are
// re-assembled in morsel order, so the ExecResult is byte-identical to the
// sequential drive of the same tree, regardless of worker count or
// scheduling.

// isRootSink reports whether op is a blocking root operator handled by the
// sink framework (everything that is not part of the probe spine).
func isRootSink(op OpKind) bool {
	switch op {
	case OpAggregate, OpGroupAgg, OpDistinct, OpSort, OpLimit:
		return true
	}
	return false
}

// sinkInput returns the operator a root sink operator drains, nil when it is
// a spine operator.
func sinkInput(it colIterator) colIterator {
	switch s := it.(type) {
	case *colSinkIter:
		return s.child
	case *colLimitIter:
		return s.child
	}
	return nil
}

// parallelPlan is what a parallel execution holds besides its tree: the
// leaf's partitionable row space, cut into morsels, and one pipeline per
// worker.
type parallelPlan struct {
	src     parallel.Source // the leaf's row space — the pruned one when the opener swapped it in
	morsels *parallel.Morsels
	workers []*morselWorker // workers[0] runs the execution's own tree
	// bottom is the innermost root sink of the execution's tree (the spine
	// top when the plan has none): the operator the workers' output merges
	// into, below which every worker has its own copy.
	bottom colIterator
}

// morselWorker is one worker's pipeline: the part of an opened tree from the
// innermost root sink down, taken apart into what the morsel loop touches.
type morselWorker struct {
	ctl   *execCtl           // the tree's; bound to the pool's context while it runs
	top   colIterator        // spine top: what a morsel drains
	node  *ExecNode          // top's node
	joins []*colHashJoinIter // pair-join probe cursors, reset per morsel
	leaf  *colScanIter       // re-pointed at each morsel's section
	b     *batch.ColBatch    // receives top's batches
	sink  sinkState          // the innermost sink's state; nil when rows flow out (bare spine, LIMIT)
	runs  []sampleRun
}

// newMorselWorker takes apart the tree it (ExecNode mirror node), rooted at
// a plan's innermost root sink or spine top and opened with ctl. b receives
// the spine's batches when no sink brings its own drain batch. Nil when the
// spine is not scan→filter→probe all the way down.
func newMorselWorker(it colIterator, node *ExecNode, b *batch.ColBatch, ctl *execCtl) *morselWorker {
	w := &morselWorker{ctl: ctl, node: node, b: b}
	if s, ok := it.(*colSinkIter); ok {
		w.sink, w.b = s.st, s.buf
	}
	if in := sinkInput(it); in != nil {
		w.node, it = node.Children[0], in
	}
	w.top = it
	for {
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

// openParallel readies the tree just opened for plan — it and its mirror
// node, over builds and ctl, with root batch b — for morsel-driven
// execution, or returns nil when its leaf scan is not partitionable and the
// tree is to be driven as it stands. It walks plan and tree down to the
// innermost root sink, makes that sub-tree worker 0, and opens the other
// workers from the same sub-plan: builds retains what the first open
// drained, so each of theirs hits on every join, and the same prune cache
// yields the same pruned scans and absorbed filters — the trees are
// identically shaped by construction.
func openParallel(db *Database, plan *Plan, it colIterator, node *ExecNode, b *batch.ColBatch, opts ExecOptions, builds *buildCache, ctl *execCtl) (*parallelPlan, error) {
	pn, need := plan.Root, rootNeed(plan, opts)
	for isRootSink(pn.Op) && isRootSink(pn.Children[0].Op) {
		need, pn, node, it = pn.childNeeds(need)[0], pn.Children[0], node.Children[0], sinkInput(it)
	}
	w0 := newMorselWorker(it, node, b, ctl)
	if w0 == nil {
		return nil, nil
	}
	src, ok := w0.leaf.src.(parallel.Source)
	if !ok {
		return nil, nil
	}
	// A worker beyond the morsel count would open a pipeline only to find
	// the queue empty; clamping costs nothing and changes nothing (the merge
	// is a sum). The clamp depends only on plan and options, so determinism
	// is preserved.
	total := src.Total()
	size := morselRows(total, opts.Parallelism, opts.BatchSize)
	workers := int(min(int64(opts.Parallelism), max((total+size-1)/size, 1)))
	pp := &parallelPlan{src: src, morsels: parallel.NewMorsels(total, size), workers: []*morselWorker{w0}, bottom: it}
	for len(pp.workers) < workers {
		// Each worker owns its cancellation control (latching is
		// single-goroutine state); spans come from the execution's recorder,
		// here, before the pool starts (it is not concurrency-safe).
		wctl := &execCtl{rec: ctl.rec, prunes: ctl.prunes}
		wit, width, pop, wnode, err := openCol(db, pn, need, opts.BatchSize, builds, wctl)
		if err != nil {
			return nil, err
		}
		var wb *batch.ColBatch
		if w0.sink == nil {
			wb = batch.NewCol(width, opts.BatchSize, pop)
		}
		pp.workers = append(pp.workers, newMorselWorker(wit, wnode, wb, wctl))
	}
	return pp, nil
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

// sampleRun is the output rows one worker collected from one morsel, tagged
// with the morsel's row offset so the sequential output order can be
// reassembled deterministically. The plain spine collects up to SampleLimit
// rows per morsel; a root LIMIT collects up to offset+SampleLimit, since the
// true first offset+k output rows are contained in the first offset+k of
// each morsel.
type sampleRun struct {
	lo   int64
	rows [][]int64
}

// runMorsel drains one morsel through a worker's pipeline — into the
// worker's sink state, or, when rows flow out of the spine, into the
// returned run of at most runCap rows — and reports the pipeline's deferred
// error: a section that stopped on bad input fails the query at any worker
// count, as it does the sequential drive.
func runMorsel(it colIterator, b *batch.ColBatch, sink sinkState, runCap int64) ([][]int64, error) {
	var rows [][]int64
	for it.Next(b) {
		if sink != nil {
			sink.observe(b) // infallible; totals are judged at merge-side finish
			continue
		}
		for i, live := 0, b.Live(); int64(len(rows)) < runCap && i < live; i++ {
			row := make([]int64, b.Width())
			b.LiveRow(i, row)
			rows = append(rows, row)
		}
	}
	return rows, it.deferredErr()
}

// run executes the opened plan on its workers and merges their state into
// st's tree and result, identical to the sequential drive's. Workers observe
// ctx per morsel and — through their scan leaves — per batch; the first real
// worker error cancels the siblings, and pure cancellation surfaces the
// context's own error deterministically (parallel.RunCtx). Worker partials
// fold into the execution's own nodes, spans and sink state, so a
// parallelPlan runs once.
func (pp *parallelPlan) run(ctx context.Context, st *ExecState, plan *Plan, opts ExecOptions) error {
	// Workers collect output-row runs when rows (not sink partials) flow out
	// of the spine and the caller samples them: the pure spine, or a root
	// LIMIT directly over it.
	sinkIt, _ := pp.bottom.(*colSinkIter)
	limitIt, _ := pp.bottom.(*colLimitIter)
	var runCap int64
	if opts.SampleLimit > 0 && sinkIt == nil {
		runCap = int64(opts.SampleLimit)
		if limitIt != nil {
			runCap += limitIt.offset
		}
	}
	err := parallel.RunCtx(ctx, len(pp.workers), func(wctx context.Context, i int) error {
		w := pp.workers[i]
		w.ctl.bind(wctx)
		for {
			if w.ctl.stopped() {
				// Drain cleanly: abandon remaining morsels, surface the
				// context error for deterministic selection in RunCtx.
				return w.ctl.err
			}
			lo, hi, ok := pp.morsels.Next()
			if !ok {
				return nil
			}
			w.leaf.src = pp.src.Section(lo, hi)
			for _, ji := range w.joins {
				ji.reset()
			}
			rows, err := runMorsel(w.top, w.b, w.sink, runCap)
			if err != nil {
				return err
			}
			if len(rows) > 0 {
				w.runs = append(w.runs, sampleRun{lo: lo, rows: rows})
			}
		}
	})
	// Worker 0 ran the execution's own tree under the pool's context; what
	// is left of the drive runs on the calling goroutine under the caller's,
	// so a cancellation arriving during a large merged-sort emit still
	// unwinds at the next batch boundary.
	st.ctl.bind(ctx)
	if err != nil {
		return err
	}

	// Deterministic merge: per-node sums are schedule-independent, sink
	// partials fold in worker order, and output runs reassemble in morsel
	// (= sequential row) order. The worker trees are identically shaped, so
	// the fold walks them in step down the probe spine (a join's build
	// subtree, Children[1], was drained once and is already final); traced
	// runs fold spans the same way — summed durations, widened windows.
	w0 := pp.workers[0]
	for _, w := range pp.workers[1:] {
		for dst, src := w0.node, w.node; ; dst, src = dst.Children[0], src.Children[0] {
			dst.OutRows += src.OutRows
			if dst.sp != nil {
				dst.sp.Merge(src.sp)
			}
			if len(dst.Children) == 0 {
				break
			}
		}
		if w0.sink != nil {
			w0.sink.merge(w.sink)
		}
	}
	if sinkIt != nil {
		// The merged state finishes once and worker 0's tree emits it through
		// the very sinks the sequential drive runs.
		sinkIt.adopt()
		return runColumnar(st, plan, opts)
	}
	// Rows flowed out of the spine: the count is the merged spine top's, a
	// LIMIT over it pure arithmetic, and the sample is cut from the
	// morsel-ordered runs.
	res := &st.res
	var skip int64
	res.Rows = w0.node.OutRows
	if limitIt != nil {
		skip = limitIt.offset
		res.Rows = min(max(res.Rows-skip, 0), limitIt.limit)
		limitIt.node.OutRows = res.Rows
		if limitIt.sp != nil {
			// No operator ran for the arithmetic LIMIT; mirror its
			// cardinality into the span so traced shapes stay mode-invariant.
			limitIt.sp.Rows = res.Rows
		}
	}
	res.Sample = mergedRunRows(pp.workers, skip, res.Rows, opts.SampleLimit)
	return nil
}

// mergedRunRows reassembles the workers' morsel-tagged output runs in
// sequential row order and returns the sample: up to sampleLimit rows after
// skipping skip rows, capped at emit rows total.
func mergedRunRows(workers []*morselWorker, skip, emit int64, sampleLimit int) [][]int64 {
	if sampleLimit <= 0 || emit <= 0 {
		return nil
	}
	var runs []sampleRun
	for _, w := range workers {
		runs = append(runs, w.runs...)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].lo < runs[j].lo })
	var out [][]int64
	var skipped, taken int64
	for _, r := range runs {
		for _, row := range r.rows {
			if skipped < skip {
				skipped++
				continue
			}
			if taken >= emit || len(out) >= sampleLimit {
				return out
			}
			out = append(out, row)
			taken++
		}
	}
	return out
}
