package engine

import (
	"context"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Morsel-driven parallel execution over the columnar spine. Because a
// dataless scan is a pure function of the summary — any row range of a
// relation can be generated independently — the probe side of a plan's
// scan→filter(→probe) pipeline splits into contiguous row-range morsels
// that workers pull from a shared atomic queue. Hash-join build sides are
// consumed once, sequentially, into read-only colJoinBuild arenas shared
// by every worker; each worker probes them with its own columnar pipeline
// (projected scans, selection-vector filters), accumulating per-operator
// cardinalities into worker-local shadow ExecNodes.
//
// Root sinks — COUNT(*), GROUP BY, DISTINCT, ORDER BY, LIMIT — compose via
// the partial-state/merge contract of sink.go rather than parallel-specific
// operator code: each worker folds its morsels' spine output into a private
// sinkState (groupAggState, sortState, or the plain row count), partials
// merge in worker-index order, and the merged state is emitted through the
// same colSinkIter/colLimitIter operators the sequential executor runs. The
// merge is deterministic end to end: shadow counts are summed in worker
// order, sink states merge order-insensitively (exact 128-bit sums; total-
// order sorting), and sample rows are re-assembled in morsel order, so the
// ExecResult is byte-identical to the sequential columnar executor's,
// regardless of worker count or scheduling.

// isRootSink reports whether op is a blocking root operator handled by the
// sink framework (everything that is not part of the probe spine).
func isRootSink(op OpKind) bool {
	switch op {
	case OpAggregate, OpGroupAgg, OpDistinct, OpSort, OpLimit:
		return true
	}
	return false
}

// joinStage is one hash join of the probe spine: the shared read-only
// build state plus what a worker needs to instantiate its probe iterator.
type joinStage struct {
	jb        *colJoinBuild
	leftKey   int
	probeCols int
	probePop  []int     // populated columns of the stage's probe-side batches
	outNeed   []int     // output columns the stage materializes
	node      *ExecNode // real (merged) node
}

// parallelPlan is a plan opened for morsel-driven execution: the root sink
// stack peeled off (outermost first), the probe spine decomposed into
// scan → optional filter → join stages (innermost first), all build sides
// already consumed into shared arenas, and required-column sets resolved
// top-down through sinks and spine alike.
type parallelPlan struct {
	plan *Plan
	rec  *trace.Recorder // non-nil when the execution is traced

	src      parallel.Source
	scanNeed []int // projection pushed into each morsel's scan
	scanNode *ExecNode

	filterPn   *PlanNode // nil when the scan is unfiltered
	filterNode *ExecNode

	stages []joinStage // innermost (nearest the scan) first

	// The root sink stack, outermost first: sinks[len-1] (the bottom sink,
	// nearest the spine) is what workers fold their spine output into;
	// everything above it is applied once, at merge time, through the same
	// operators the sequential executor uses. sinkNeeds[i] is the column
	// set sink i's output must materialize (sinkNeeds[0] derives from the
	// root; sinkNeeds[len] is the spine top's need).
	sinks     []*PlanNode
	sinkNodes []*ExecNode
	sinkNeeds [][]int

	root    *ExecNode
	width   int   // output width of the spine top (below any sink)
	topNeed []int // populated columns of the spine top's batches
}

// bottom returns the innermost sink plan node, or nil when the plan is pure
// spine.
func (pp *parallelPlan) bottom() *PlanNode {
	if len(pp.sinks) == 0 {
		return nil
	}
	return pp.sinks[len(pp.sinks)-1]
}

// sinkWidth returns the output width of sink i; i == len(sinks) addresses
// the spine top.
func (pp *parallelPlan) sinkWidth(i int) int {
	if i == len(pp.sinks) {
		return pp.width
	}
	switch sn := pp.sinks[i]; sn.Op {
	case OpGroupAgg, OpDistinct:
		return len(sn.Items)
	case OpAggregate:
		return 1
	default: // OpSort, OpLimit: layout passes through
		return pp.sinkWidth(i + 1)
	}
}

// spineNodes lists the real probe-spine ExecNodes in merge order.
func (pp *parallelPlan) spineNodes() []*ExecNode {
	nodes := []*ExecNode{pp.scanNode}
	if pp.filterNode != nil {
		nodes = append(nodes, pp.filterNode)
	}
	for i := range pp.stages {
		nodes = append(nodes, pp.stages[i].node)
	}
	return nodes
}

// openParallel decomposes the plan into sink stack + probe spine + build
// sides. A nil parallelPlan (with nil error) means the plan is not
// morsel-partitionable — the leaf scan's source lacks the parallel.Source
// contract or the spine has an unexpected shape — and the caller must fall
// drive the plan sequentially; the returned scanOverride then carries the
// already-opened leaf source, if any, so it is reused rather than opened
// a second time. ctl guards the sequential build-side drains: a drain the
// context interrupts surfaces the context error as an open failure.
func openParallel(db *Database, plan *Plan, opts ExecOptions, builds buildCache, ctl *execCtl) (*parallelPlan, *scanOverride, error) {
	pp := &parallelPlan{plan: plan}
	pn := plan.Root
	for isRootSink(pn.Op) {
		pp.sinks = append(pp.sinks, pn)
		pn = pn.Children[0]
	}
	// Collect the probe spine top-down: joins, then an optional filter,
	// then the leaf scan.
	var joinPns []*PlanNode // outermost first
	for pn.Op == OpHashJoin {
		joinPns = append(joinPns, pn)
		pn = pn.Children[0]
	}
	if pn.Op == OpFilter {
		pp.filterPn = pn
		pn = pn.Children[0]
	}
	if pn.Op != OpScan {
		return nil, nil, nil
	}

	// The leaf must expose a partitionable row space before any build-side
	// work is worth doing.
	src, err := db.openScan(pn.Table)
	if err != nil {
		return nil, nil, err
	}
	ps, ok := src.(parallel.Source)
	if !ok {
		return nil, &scanOverride{table: pn.Table, src: src}, nil
	}
	pp.src = ps

	// Predicate pushdown into generation: swap the leaf's row space for the
	// precomputed qualifying one, so morsels partition only live rows and
	// workers never inherit dead ranges. An absorbed filter disappears from
	// the spine — the residual-free case — exactly as on the sequential
	// path, keeping the operator shape mode-invariant.
	var prune *scanPrune
	if fp := pp.filterPn; fp != nil {
		if pr := ctl.prunes.scan(fp); pr != nil {
			if rs, ok := src.(rowSpaceSource); ok {
				if pruned, ok := rs.SectionSet(pr.ivs).(parallel.Source); ok {
					pp.src = pruned
					prune = pr
					if pr.absorbed {
						pp.filterPn = nil
					}
				}
			}
		}
	}

	// Required-column analysis, top-down: the root's need (samples
	// materialize the full output, COUNT(*) only its count column) is
	// translated through each sink by the same childNeeds the sequential
	// executor uses, then along the join spine.
	pp.sinkNeeds = make([][]int, len(pp.sinks)+1)
	pp.sinkNeeds[0] = rootNeed(plan, opts)
	for i, sn := range pp.sinks {
		pp.sinkNeeds[i+1] = sn.childNeeds(pp.sinkNeeds[i])[0]
	}
	need := pp.sinkNeeds[len(pp.sinks)]
	pp.topNeed = need
	probeNeeds := make([][]int, len(joinPns)) // by joinPns index (outermost first)
	buildNeeds := make([][]int, len(joinPns))
	outNeeds := make([][]int, len(joinPns))
	for i, jpn := range joinPns {
		cn := jpn.childNeeds(need)
		outNeeds[i] = need
		probeNeeds[i], buildNeeds[i] = cn[0], cn[1]
		need = probeNeeds[i]
	}
	if fp := pp.filterPn; fp != nil {
		need = fp.childNeeds(need)[0]
	}
	pp.scanNeed = need
	// The populated set of each stage's probe-side batches: the scan's
	// pushed-down projection for the innermost join (predicate columns ride
	// along in the same physical batch), the inner join's materialized
	// output for the rest.
	probePops := make([][]int, len(joinPns))
	for i := len(joinPns) - 1; i >= 0; i-- {
		if i == len(joinPns)-1 {
			probePops[i] = pp.scanNeed
		} else {
			probePops[i] = outNeeds[i+1]
		}
	}

	// Real ExecNode tree, mirroring openCol's shape exactly. Traced
	// executions annotate every real node with a span: workers record into
	// private spans and the real ones receive the worker-order merge.
	pp.rec = ctl.rec
	pp.scanNode = &ExecNode{Op: OpScan.String(), Table: pn.Table}
	if prune != nil {
		pp.scanNode.RowsPruned = prune.pruned
		pp.scanNode.SummaryRowsSkipped = prune.skipped
	}
	ctl.annotate(pp.scanNode)
	width := len(db.Schema.Table(pn.Table).Columns)
	cur := pp.scanNode
	if fp := pp.filterPn; fp != nil {
		table := db.Schema.Table(fp.Pred.Table)
		pp.filterNode = &ExecNode{Op: OpFilter.String(), Table: fp.Pred.Table, PredSQL: fp.Pred.SQL(table), Children: []*ExecNode{cur}}
		ctl.annotate(pp.filterNode)
		cur = pp.filterNode
	}
	// Build sides are consumed innermost-first (the order the sequential
	// executor drains them in); each becomes a shared read-only arena —
	// or is served straight from the prepared build cache.
	for i := len(joinPns) - 1; i >= 0; i-- {
		jpn := joinPns[i]
		var jb *colJoinBuild
		var buildNode *ExecNode
		var bw int
		var buildNS int64
		if pb, ok := builds[jpn]; ok {
			jb = pb.jb
			buildNode = cloneExecNode(pb.node)
			bw = jb.width
			ctl.annotateFrozen(buildNode)
		} else {
			buildIt, w, buildPop, bn, err := openCol(db, jpn.Children[1], buildNeeds[i], opts.BatchSize, nil, builds, ctl)
			if err != nil {
				return nil, nil, err
			}
			bstart := time.Now()
			jb, err = newColJoinBuild(buildIt, w, jpn.RightKey, opts.BatchSize, buildNeeds[i], buildPop)
			buildNS = time.Since(bstart).Nanoseconds()
			if ctl.stopped() {
				return nil, nil, ctl.err
			}
			if err != nil {
				return nil, nil, err
			}
			buildNode, bw = bn, w
		}
		node := &ExecNode{Op: OpHashJoin.String(), JoinSQL: jpn.JoinSQL, Children: []*ExecNode{cur, buildNode}}
		if sp := ctl.annotate(node); sp != nil {
			sp.BuildNS = buildNS
			buildNode.sp.Detached = true
		}
		pp.stages = append(pp.stages, joinStage{
			jb:        jb,
			leftKey:   jpn.LeftKey,
			probeCols: width,
			probePop:  probePops[i],
			outNeed:   outNeeds[i],
			node:      node,
		})
		width += bw
		cur = node
	}
	pp.width = width
	// Sink ExecNodes wrap the spine, innermost-out.
	pp.sinkNodes = make([]*ExecNode, len(pp.sinks))
	for i := len(pp.sinks) - 1; i >= 0; i-- {
		node := &ExecNode{Op: pp.sinks[i].Op.String(), Children: []*ExecNode{cur}}
		ctl.annotate(node)
		pp.sinkNodes[i] = node
		cur = node
	}
	pp.root = cur
	return pp, nil, nil
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

// workerState is one worker's private accumulation: shadow ExecNodes for
// the spine (merged by summation afterwards), the count of rows the spine
// top produced, morsel-tagged output runs, and — when the bottom sink is a
// grouped aggregate, DISTINCT, or ORDER BY — the worker's partial sink
// state (the partial-state half of the partial-state/merge contract).
type workerState struct {
	shadow []*ExecNode
	rows   int64
	runs   []sampleRun
	group  *groupAggState
	sort   *sortState
}

// run executes the opened plan on opts.Parallelism workers and merges worker
// state into res, identical to the sequential result. Workers observe ctx
// per morsel and — through their scan leaves — per batch; the first real
// worker error cancels the siblings, and pure cancellation surfaces the
// context's own error deterministically (parallel.RunCtx). Worker partials
// fold into the plan's own nodes and spans, so a parallelPlan runs once.
func (pp *parallelPlan) run(ctx context.Context, res *ExecResult, opts ExecOptions) error {
	workers := opts.Parallelism
	total := pp.src.Total()
	size := morselRows(total, workers, opts.BatchSize)
	// A worker beyond the morsel count would build a pipeline only to find
	// the queue empty; clamping costs nothing and changes nothing (the
	// merge is a sum). The clamp depends only on plan and options, so
	// determinism is preserved.
	if n := (total + size - 1) / size; int64(workers) > n {
		workers = int(n)
		if workers < 1 {
			workers = 1
		}
	}
	morsels := parallel.NewMorsels(total, size)

	bottom := pp.bottom()
	// Workers collect output-row runs when rows (not sink partials) flow out
	// of the spine and the caller samples them: the pure spine, or a root
	// LIMIT directly over it.
	var runCap int64
	if opts.SampleLimit > 0 {
		switch {
		case bottom == nil:
			runCap = int64(opts.SampleLimit)
		case bottom.Op == OpLimit:
			runCap = bottom.Offset + int64(opts.SampleLimit)
		}
	}

	states := make([]*workerState, workers)
	for w := range states {
		states[w] = &workerState{}
		if bottom != nil {
			switch bottom.Op {
			case OpGroupAgg, OpDistinct:
				states[w].group = newGroupAggState(bottom)
			case OpSort:
				states[w].sort = newSortState(bottom, pp.topNeed, pp.width)
			}
		}
	}

	// Traced runs give each worker private spans for its spine pipeline,
	// created here (the recorder is not concurrency-safe) and folded into
	// the real nodes' spans after the pool joins — in worker order, so the
	// merged trace is deterministic. Positions follow spineNodes order.
	spine := pp.spineNodes()
	var wspans [][]*trace.Span
	if pp.rec != nil {
		wspans = make([][]*trace.Span, workers)
		for w := range wspans {
			spans := make([]*trace.Span, len(spine))
			for i, node := range spine {
				spans[i] = pp.rec.NewSpan(node.Op, "")
			}
			wspans[w] = spans
		}
	}

	err := parallel.RunCtx(ctx, workers, func(wctx context.Context, w int) error {
		st := states[w]
		// Each worker owns its cancellation control (latching is
		// single-goroutine state) over the pool's shared child context.
		wctl := &execCtl{ctx: wctx}
		// Worker-local columnar pipeline over shadow nodes; the scan source
		// is swapped per morsel, join iterators reset their probe cursors.
		scanShadow := &ExecNode{}
		st.shadow = append(st.shadow, scanShadow)
		scanIt := &colScanIter{cols: pp.scanNeed, node: scanShadow, ctl: wctl}
		if wspans != nil {
			scanIt.sp, scanIt.rowBytes = wspans[w][0], 8*int64(len(pp.scanNeed))
		}
		var cur colIterator = scanIt
		if fp := pp.filterPn; fp != nil {
			filterShadow := &ExecNode{}
			st.shadow = append(st.shadow, filterShadow)
			fi := &colFilterIter{child: cur, m: fp.Pred.Matcher(), node: filterShadow}
			if wspans != nil {
				fi.sp = wspans[w][1]
			}
			cur = fi
		}
		joinIts := make([]*colHashJoinIter, len(pp.stages))
		for i := range pp.stages {
			stage := &pp.stages[i]
			joinShadow := &ExecNode{}
			st.shadow = append(st.shadow, joinShadow)
			ji := newColHashJoinIter(cur, stage.jb, stage.probeCols, stage.leftKey, stage.outNeed, stage.probePop, opts.BatchSize)
			ji.node = joinShadow
			if wspans != nil {
				ji.sp, ji.rowBytes = wspans[w][len(st.shadow)-1], 8*int64(len(stage.outNeed))
			}
			joinIts[i] = ji
			cur = ji
		}
		topPop := pp.topNeed
		if len(pp.stages) == 0 {
			topPop = pp.scanNeed
		}
		b := batch.NewCol(pp.width, opts.BatchSize, topPop)
		for {
			if wctl.stopped() {
				// Drain cleanly: abandon remaining morsels, surface the
				// context error for deterministic selection in RunCtx.
				return wctl.err
			}
			lo, hi, ok := morsels.Next()
			if !ok {
				return nil
			}
			scanIt.src = pp.src.Section(lo, hi)
			for _, ji := range joinIts {
				ji.reset()
			}
			run := sampleRun{lo: lo}
			for cur.Next(b) {
				live := b.Live()
				st.rows += int64(live)
				switch {
				case st.group != nil:
					st.group.observe(b) // infallible; totals are judged at merge-side finish
				case st.sort != nil:
					st.sort.observe(b)
				default:
					for i := 0; int64(len(run.rows)) < runCap && i < live; i++ {
						row := make([]int64, b.Width())
						b.LiveRow(i, row)
						run.rows = append(run.rows, row)
					}
				}
			}
			if len(run.rows) > 0 {
				st.runs = append(st.runs, run)
			}
		}
	})
	if err != nil {
		return err
	}

	// Deterministic merge: per-node sums are schedule-independent, sink
	// partials fold in worker order, and output runs reassemble in morsel
	// (= sequential row) order. Traced runs fold worker spans into the real
	// nodes' spans the same way — summed durations, widened windows.
	for i, node := range spine {
		var sum int64
		for _, st := range states {
			sum += st.shadow[i].OutRows
		}
		node.OutRows = sum
		if node.sp != nil {
			for _, spans := range wspans {
				node.sp.Merge(spans[i])
			}
		}
	}
	var outRows int64
	for _, st := range states {
		outRows += st.rows
	}

	switch {
	case bottom == nil:
		res.Rows = outRows
		res.Sample = mergedRunRows(states, 0, outRows, opts.SampleLimit)
		pp.root.OutRows = res.Rows
		return nil

	case bottom.Op == OpLimit:
		// LIMIT over the bare spine: pure arithmetic over the merged counts,
		// with sample rows cut from the morsel-ordered runs.
		em := outRows - bottom.Offset
		if em < 0 {
			em = 0
		}
		if em > bottom.Limit {
			em = bottom.Limit
		}
		res.Rows = em
		res.Sample = mergedRunRows(states, bottom.Offset, em, opts.SampleLimit)
		limitNode := pp.sinkNodes[len(pp.sinks)-1]
		limitNode.OutRows = em
		if limitNode.sp != nil {
			// No operator ran for the arithmetic LIMIT; mirror its
			// cardinality into the span so traced shapes stay mode-invariant.
			limitNode.sp.Rows = em
		}
		pp.root.OutRows = res.Rows
		return nil
	}

	// Sink-state bottom: fold worker partials in worker order, finish once,
	// then emit the merged state through the very operators the sequential
	// executor runs for the sinks above it.
	var merged sinkState
	switch bottom.Op {
	case OpGroupAgg, OpDistinct:
		g := states[0].group
		for _, st := range states[1:] {
			g.merge(st.group)
		}
		merged = g
	case OpSort:
		s := states[0].sort
		for _, st := range states[1:] {
			s.merge(st.sort)
		}
		merged = s
	case OpAggregate:
		merged = &countState{n: outRows}
	}
	merged.finish()

	bi := len(pp.sinks) - 1
	var cur colIterator = &stateEmitIter{
		st: merged, outCols: pp.sinkNeeds[bi], node: pp.sinkNodes[bi],
		sp: pp.sinkNodes[bi].sp, rowBytes: 8 * int64(len(pp.sinkNeeds[bi])),
	}
	for i := bi - 1; i >= 0; i-- {
		sn := pp.sinks[i]
		childW := pp.sinkWidth(i + 1)
		switch sn.Op {
		case OpSort:
			cur = &colSinkIter{
				child:    cur,
				buf:      batch.NewCol(childW, opts.BatchSize, pp.sinkNeeds[i+1]),
				st:       newSortState(sn, pp.sinkNeeds[i+1], childW),
				outCols:  pp.sinkNeeds[i],
				node:     pp.sinkNodes[i],
				sp:       pp.sinkNodes[i].sp,
				rowBytes: 8 * int64(len(pp.sinkNeeds[i])),
			}
		case OpLimit:
			cur = &colLimitIter{child: cur, limit: sn.Limit, offset: sn.Offset, node: pp.sinkNodes[i], sp: pp.sinkNodes[i].sp}
		}
	}
	b := batch.NewCol(pp.sinkWidth(0), opts.BatchSize, pp.sinkNeeds[0])
	// The merge-side emission runs on the calling goroutine under the same
	// context: a cancellation arriving during a large merged-sort emit still
	// unwinds at the next batch boundary.
	mctl := &execCtl{ctx: ctx}
	derr := runColumnar(mctl, cur, b, pp.plan, opts, res)
	if mctl.err != nil {
		return mctl.err
	}
	return derr
}

// mergedRunRows reassembles the workers' morsel-tagged output runs in
// sequential row order and returns the sample: up to sampleLimit rows after
// skipping skip rows, capped at emit rows total.
func mergedRunRows(states []*workerState, skip, emit int64, sampleLimit int) [][]int64 {
	if sampleLimit <= 0 || emit <= 0 {
		return nil
	}
	var runs []sampleRun
	for _, st := range states {
		runs = append(runs, st.runs...)
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
