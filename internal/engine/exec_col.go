package engine

import (
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/pred"
	"repro/internal/trace"
)

// The columnar operator set — the engine's only operator implementations.
// Operators move rows in column-major batches (batch.ColBatch) under late
// materialization: required-column analysis (plan.go) decides which columns
// each operator must populate, scans expand only those columns from the
// summary, filters flip a selection vector instead of compacting row data,
// and hash joins read nothing but the key column until output
// materialization. Blocking root operators (GROUP BY, DISTINCT, ORDER BY)
// are the sink framework in sink.go. The one executor (Prepared.run)
// composes these same operators every way it runs: it drives them
// batch-wise, or through the row pivot (exec.go), or replicates the probe
// spine per worker over shared build arenas and folds sink partial states
// (exec_parallel.go), and a caller-owned ExecState recycles the opened
// tree. The parity suites hold all of them to byte-identical results.

// colIterator is the engine-internal columnar operator contract — the one
// operator set every execution composes. Next resets dst, fills it
// with up to dst.Cap() physical output rows (of which Live() are selected),
// and reports whether it produced any. After the first false return the
// operator is exhausted. rewind restores the just-opened state for another
// execution of the same plan (the Prepared reuse path), zeroing the
// operator's own ExecNode count; shared join builds and their frozen
// build-side counts are untouched. deferredErr is the engine's single
// deferred-error convention: a failure only detectable after an operator's
// drain (aggregate overflow) parks in the operator and is surfaced here,
// recursively through the tree, once the drive loop finishes.
type colIterator interface {
	Next(dst *batch.ColBatch) bool
	rewind(db *Database) error
	deferredErr() error
}

// rowSeeker is the rewind capability of deterministic scan sources: the
// generator's Stream and the stored-relation cursor both reposition to an
// absolute row index.
type rowSeeker interface {
	SeekRow(int64)
}

// failingSource is the capability of a scan source that can stop early on
// bad input (batch.RowScan over a caller's row producer): the scan operator
// surfaces Err as its deferred error once the drain ends.
type failingSource interface {
	Err() error
}

// scanOverride hands an already-opened scan source to openCol, so a caller
// that had to open a table's source to inspect it (openParallel probing
// partitionability, openPrunedFilter probing for a row-space) does not
// invoke the table's DatagenFunc a second time — the func's contract is one
// invocation per scan. Self-joins are rejected at planning, so the table
// name identifies the scan uniquely; used guards against regressions.
type scanOverride struct {
	table string
	src   batch.ColProjector
	used  bool
}

// open returns the table's scan source: the handed-down one on its first
// request, a freshly opened one otherwise.
func (ov *scanOverride) open(db *Database, table string) (batch.ColProjector, error) {
	if ov != nil && !ov.used && ov.table == table {
		ov.used = true
		return ov.src, nil
	}
	return db.openScan(table)
}

// buildCache maps hash-join plan nodes to build state prepared ahead of
// execution (Prepare): the shared read-only columnar arena plus the
// build-side ExecNode subtree with its counts frozen at build time. An
// execution that finds its join in the cache pays probe cost only.
type buildCache map[*PlanNode]*preparedBuild

type preparedBuild struct {
	jb   *colJoinBuild
	node *ExecNode // build-child subtree template; cloned per execution
}

// cloneExecNode deep-copies a frozen build-side ExecNode subtree so each
// execution reports its own annotated plan.
func cloneExecNode(n *ExecNode) *ExecNode {
	out := *n
	if len(n.Children) > 0 {
		out.Children = make([]*ExecNode, len(n.Children))
		for i, c := range n.Children {
			out.Children[i] = cloneExecNode(c)
		}
	}
	return &out
}

// rootNeed is the column set the plan's root output must materialize: the
// count column for aggregates (wherever the aggregate sits under root
// sinks), every column when output rows are sampled, nothing otherwise
// (cardinalities alone flow through the spine).
func rootNeed(plan *Plan, opts ExecOptions) []int {
	if plan.countStar() {
		return []int{0}
	}
	if opts.SampleLimit > 0 {
		return batch.AllCols(len(plan.Root.Cols))
	}
	return nil
}

// runColumnar drives the opened operator tree to exhaustion, accumulating
// rows, samples, and the COUNT value into res, and returns the pipeline's
// deferred error once the drain completes. The drive loop is one of
// the engine's cancellation points: it stops pulling batches once ctl
// observes the context done (covering sink emit phases, which pull no scan
// batches); the caller surfaces ctl.err, which takes precedence over the
// returned deferred error.
//
//hydra:hotpath
func runColumnar(ctl *execCtl, it colIterator, b *batch.ColBatch, plan *Plan, opts ExecOptions, res *ExecResult) error {
	agg := plan.countStar()
	for !ctl.stopped() && it.Next(b) {
		live := b.Live()
		res.Rows += int64(live)
		if opts.SampleLimit > 0 {
			for i := 0; len(res.Sample) < opts.SampleLimit && i < live; i++ {
				row := make([]int64, b.Width())
				b.LiveRow(i, row)
				res.Sample = append(res.Sample, row)
			}
		}
		if agg && live > 0 {
			// The aggregate row may arrive under a selection (a LIMIT above
			// the COUNT slices the batch); read the last live row.
			r := b.Len() - 1
			if sel := b.Sel(); sel != nil {
				r = int(sel[live-1])
			}
			res.Count = b.Col(0)[r]
		}
	}
	res.Root.OutRows = res.Rows
	return it.deferredErr()
}

// openCol builds the columnar operator tree for pn and its ExecNode mirror,
// materializing only the need columns of pn's output. It returns, besides
// the operator's output width, the populated column set of the batches the
// operator fills — a superset of need when a scan also writes predicate or
// key columns that ride along in the same physical batch — which the
// parent must use to size its receiving batch. Like the row path,
// hash-join build sides are consumed at open time — unless builds already
// carries them, in which case the shared arena is probed directly and the
// frozen build subtree is cloned into the plan annotation. ctl is the
// execution's cancellation control, threaded into every scan leaf (the
// engine's per-batch check point); a build drain interrupted by
// cancellation surfaces the context error here, as an open failure.
func openCol(db *Database, pn *PlanNode, need []int, capRows int, ov *scanOverride, builds buildCache, ctl *execCtl) (colIterator, int, []int, *ExecNode, error) {
	switch pn.Op {
	case OpScan:
		src, err := ov.open(db, pn.Table)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		node := &ExecNode{Op: pn.Op.String(), Table: pn.Table}
		width := len(db.Schema.Table(pn.Table).Columns)
		s := &colScanIter{table: pn.Table, src: src, cols: need, node: node, ctl: ctl}
		s.sp, s.rowBytes = ctl.annotate(node), 8*int64(len(need))
		return s, width, need, node, nil

	case OpFilter:
		// A precomputed qualifying row-space turns filter-over-scan into a
		// pruned scan: non-matching tuples are never generated, and when
		// every conjunct was proven the filter operator disappears.
		if pr := ctl.prunes.scan(pn); pr != nil {
			return openPrunedFilter(db, pn, pr, need, capRows, ov, builds, ctl)
		}
		// The filter refines the child's selection in place, so its output
		// batches are the child's: populated set passes through.
		childNeed := pn.childNeeds(need)[0]
		child, width, pop, childNode, err := openCol(db, pn.Children[0], childNeed, capRows, ov, builds, ctl)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		table := db.Schema.Table(pn.Pred.Table)
		node := &ExecNode{Op: pn.Op.String(), Table: pn.Pred.Table, PredSQL: pn.Pred.SQL(table), Children: []*ExecNode{childNode}}
		return &colFilterIter{child: child, m: pn.Pred.Matcher(), node: node, sp: ctl.annotate(node)}, width, pop, node, nil

	case OpHashJoin:
		cn := pn.childNeeds(need)
		probeNeed, buildNeed := cn[0], cn[1]
		probe, pw, probePop, probeNode, err := openCol(db, pn.Children[0], probeNeed, capRows, ov, builds, ctl)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		var jb *colJoinBuild
		var buildNode *ExecNode
		var bw int
		var buildNS int64
		if pb, ok := builds[pn]; ok {
			jb = pb.jb
			buildNode = cloneExecNode(pb.node)
			bw = jb.width
			ctl.annotateFrozen(buildNode)
		} else {
			var buildIt colIterator
			var buildPop []int
			buildIt, bw, buildPop, buildNode, err = openCol(db, pn.Children[1], buildNeed, capRows, ov, builds, ctl)
			if err != nil {
				return nil, 0, nil, nil, err
			}
			bstart := time.Now()
			jb, err = newColJoinBuild(buildIt, bw, pn.RightKey, capRows, buildNeed, buildPop)
			buildNS = time.Since(bstart).Nanoseconds()
			if ctl.stopped() {
				// The drain ended early because the context was done: the
				// arena is incomplete and the execution is over.
				return nil, 0, nil, nil, ctl.err
			}
			if err != nil {
				return nil, 0, nil, nil, err
			}
		}
		node := &ExecNode{Op: pn.Op.String(), JoinSQL: pn.JoinSQL, Children: []*ExecNode{probeNode, buildNode}}
		ji := newColHashJoinIter(probe, jb, pw, pn.LeftKey, need, probePop, capRows)
		ji.node = node
		if sp := ctl.annotate(node); sp != nil {
			// The build side drains at open, outside this operator's Next
			// window: detach it from self-time math and report the drain
			// wall clock on the join itself.
			sp.BuildNS = buildNS
			buildNode.sp.Detached = true
			ji.sp, ji.rowBytes = sp, 8*int64(len(need))
		}
		return ji, pw + bw, need, node, nil

	case OpAggregate:
		child, width, pop, childNode, err := openCol(db, pn.Children[0], nil, capRows, ov, builds, ctl)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		node := &ExecNode{Op: pn.Op.String(), Children: []*ExecNode{childNode}}
		c := &colCountStarIter{child: child, buf: batch.NewCol(width, capRows, pop), node: node, sp: ctl.annotate(node)}
		return c, 1, []int{0}, node, nil

	case OpGroupAgg, OpDistinct:
		// The child materializes exactly the grouping (or distinct) keys and
		// aggregate inputs (childNeeds ignores the parent's need); the
		// node's own output batches populate only the columns the caller
		// asked for — nothing when just the group count flows, every select
		// item when rows are sampled. Both operators are the one sink
		// operator over the one hash-aggregation state.
		childNeed := pn.childNeeds(nil)[0]
		child, width, pop, childNode, err := openCol(db, pn.Children[0], childNeed, capRows, ov, builds, ctl)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		node := &ExecNode{Op: pn.Op.String(), Children: []*ExecNode{childNode}}
		g := &colSinkIter{
			child:   child,
			buf:     batch.NewCol(width, capRows, pop),
			st:      newGroupAggState(pn),
			outCols: need,
			node:    node,
			ctl:     ctl,
		}
		g.sp, g.rowBytes = ctl.annotate(node), 8*int64(len(need))
		return g, len(pn.Items), need, node, nil

	case OpSort:
		// The child materializes the output columns plus the sort keys; the
		// state collects exactly that set, which is also the comparator's
		// tiebreak domain (identical however the plan is executed).
		childNeed := pn.childNeeds(need)[0]
		child, width, pop, childNode, err := openCol(db, pn.Children[0], childNeed, capRows, ov, builds, ctl)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		node := &ExecNode{Op: pn.Op.String(), Children: []*ExecNode{childNode}}
		s := &colSinkIter{
			child:   child,
			buf:     batch.NewCol(width, capRows, pop),
			st:      newSortState(pn, childNeed, width),
			outCols: need,
			node:    node,
			ctl:     ctl,
		}
		s.sp, s.rowBytes = ctl.annotate(node), 8*int64(len(need))
		return s, width, need, node, nil

	case OpLimit:
		// Pure truncation over the child's batches: output layout and
		// populated set pass through untouched.
		child, width, pop, childNode, err := openCol(db, pn.Children[0], pn.childNeeds(need)[0], capRows, ov, builds, ctl)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		node := &ExecNode{Op: pn.Op.String(), Children: []*ExecNode{childNode}}
		l := &colLimitIter{child: child, limit: pn.Limit, offset: pn.Offset, node: node, sp: ctl.annotate(node)}
		return l, width, pop, node, nil

	default:
		return nil, 0, nil, nil, fmt.Errorf("engine: unknown operator %v", pn.Op)
	}
}

// openPrunedFilter opens an OpFilter whose qualifying row-space was
// precomputed: the child scan iterates only the qualifying intervals via
// the source's SectionSet. When the filter was fully absorbed the scan
// replaces it outright (and skips materializing the predicate columns the
// MatchVec would have read); otherwise the residual filter wraps the pruned
// scan — exact because pruning only removed provably-failing tuples and
// never reordered survivors. A source without the row-space capability (a
// paced stream, caller-supplied datagen) is handed down to the ordinary
// path unopened-again, honoring the one-invocation-per-scan contract.
func openPrunedFilter(db *Database, pn *PlanNode, pr *scanPrune, need []int, capRows int, ov *scanOverride, builds buildCache, ctl *execCtl) (colIterator, int, []int, *ExecNode, error) {
	scanPn := pn.Children[0]
	src, err := ov.open(db, scanPn.Table)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	rs, ok := src.(rowSpaceSource)
	if !ok {
		local := &scanOverride{table: scanPn.Table, src: src}
		childNeed := pn.childNeeds(need)[0]
		child, width, pop, childNode, err := openCol(db, scanPn, childNeed, capRows, local, builds, ctl)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		table := db.Schema.Table(pn.Pred.Table)
		node := &ExecNode{Op: pn.Op.String(), Table: pn.Pred.Table, PredSQL: pn.Pred.SQL(table), Children: []*ExecNode{childNode}}
		return &colFilterIter{child: child, m: pn.Pred.Matcher(), node: node, sp: ctl.annotate(node)}, width, pop, node, nil
	}
	width := len(db.Schema.Table(scanPn.Table).Columns)
	scanCols := need
	if !pr.absorbed {
		scanCols = pn.childNeeds(need)[0]
	}
	scanNode := &ExecNode{Op: OpScan.String(), Table: scanPn.Table, RowsPruned: pr.pruned, SummaryRowsSkipped: pr.skipped}
	s := &colScanIter{table: scanPn.Table, src: rs.SectionSet(pr.ivs), cols: scanCols, node: scanNode, ctl: ctl}
	s.sp, s.rowBytes = ctl.annotate(scanNode), 8*int64(len(scanCols))
	if pr.absorbed {
		return s, width, scanCols, scanNode, nil
	}
	table := db.Schema.Table(pn.Pred.Table)
	node := &ExecNode{Op: pn.Op.String(), Table: pn.Pred.Table, PredSQL: pn.Pred.SQL(table), Children: []*ExecNode{scanNode}}
	return &colFilterIter{child: s, m: pn.Pred.Matcher(), node: node, sp: ctl.annotate(node)}, width, scanCols, node, nil
}

// colScanIter passes projected source batches through, counting them. It
// is the engine's per-batch cancellation point: every unbounded loop in
// the tree — the filter's skip loop, sink and COUNT(*) drains, hash-join
// build drains, probe pulls — advances only by pulling scan batches, so a
// single check here stops them all within one batch of the context ending.
type colScanIter struct {
	table    string
	src      batch.ColProjector
	cols     []int
	node     *ExecNode
	ctl      *execCtl
	sp       *trace.Span // nil when untraced
	rowBytes int64       // bytes materialized per output row (populated cols × 8)
}

func (s *colScanIter) Next(dst *batch.ColBatch) bool {
	if s.sp == nil {
		return s.next(dst)
	}
	s.sp.Begin()
	if !s.next(dst) {
		s.sp.ObserveEmpty()
		return false
	}
	s.sp.Observe(int64(dst.Len()), int64(dst.Len())*s.rowBytes)
	return true
}

func (s *colScanIter) next(dst *batch.ColBatch) bool {
	if s.ctl.stopped() {
		return false
	}
	if !s.src.NextColBatch(dst, s.cols) {
		return false
	}
	s.node.OutRows += int64(dst.Len())
	return true
}

func (s *colScanIter) rewind(db *Database) error {
	s.node.OutRows = 0
	if sk, ok := s.src.(rowSeeker); ok {
		sk.SeekRow(0)
		return nil
	}
	// Not seekable (paced or opaque source): a rewind is a fresh scan.
	src, err := db.openScan(s.table)
	if err != nil {
		return err
	}
	s.src = src
	return nil
}

// deferredErr reports why the source stopped early, when it can say: a
// short final batch and a failed scan look the same to Next.
func (s *colScanIter) deferredErr() error {
	if fs, ok := s.src.(failingSource); ok {
		return fs.Err()
	}
	return nil
}

// colFilterIter refines each child batch's selection vector in place with
// the compiled predicate's vector matcher. No row data moves; order is
// preserved. Batches whose selection empties are skipped.
type colFilterIter struct {
	child colIterator
	m     *pred.Matcher
	node  *ExecNode
	sp    *trace.Span // nil when untraced
}

func (f *colFilterIter) Next(dst *batch.ColBatch) bool {
	if f.sp == nil {
		return f.next(dst)
	}
	f.sp.Begin()
	if !f.next(dst) {
		f.sp.ObserveEmpty()
		return false
	}
	// The filter moves no row data: rows pass, bytes stay zero.
	f.sp.Observe(int64(dst.Live()), 0)
	return true
}

func (f *colFilterIter) next(dst *batch.ColBatch) bool {
	for {
		if !f.child.Next(dst) {
			return false
		}
		sel := f.m.MatchVec(dst.Cols(), dst.Len(), dst.Sel(), dst.SelBuf())
		if len(sel) > 0 {
			dst.SetSel(sel)
			f.node.OutRows += int64(len(sel))
			return true
		}
		// Whole batch filtered out; pull the next one.
	}
}

func (f *colFilterIter) rewind(db *Database) error {
	f.node.OutRows = 0
	return f.child.rewind(db)
}

func (f *colFilterIter) deferredErr() error { return f.child.deferredErr() }

// colJoinBuild is the one-time build side of a hash join: per-column
// arenas of the build rows the output needs (unneeded columns carry no
// storage) plus a key → row-index map. Selection vectors are compacted
// away during the drain, so arena row r is the r-th surviving build row.
// After construction a colJoinBuild is read-only: the parallel executor
// shares one across all workers, and Prepare shares one across executions.
type colJoinBuild struct {
	width int
	arena [][]int64 // len width; nil for unpopulated columns
	idx   map[int64][]int32
	rows  int32
}

// newColJoinBuild drains the build-side iterator into the arenas + index:
// only the need columns are retained (need must include the key column);
// pop is the populated set of the build child's batches. The drain is a
// complete execution of the build subtree, so its deferred error (a scan
// source that stopped on bad input) is returned here.
func newColJoinBuild(build colIterator, width, rightKey, capRows int, need, pop []int) (*colJoinBuild, error) {
	jb := &colJoinBuild{width: width, arena: make([][]int64, width), idx: make(map[int64][]int32)}
	b := batch.NewCol(width, capRows, pop)
	var n int32
	for build.Next(b) {
		if sel := b.Sel(); sel == nil {
			k := b.Len()
			for _, c := range need {
				jb.arena[c] = append(jb.arena[c], b.Col(c)[:k]...)
			}
		} else {
			for _, c := range need {
				col := b.Col(c)
				a := jb.arena[c]
				for _, r := range sel {
					a = append(a, col[r])
				}
				jb.arena[c] = a
			}
		}
		for _, k := range jb.arena[rightKey][n:] {
			jb.idx[k] = append(jb.idx[k], n)
			n++
		}
	}
	jb.rows = n
	return jb, build.deferredErr()
}

// colHashJoinIter streams probe batches against a colJoinBuild. Until a
// probe row matches, only its key column is read; output materialization
// gathers exactly the needed columns — probe values replicated per match
// run, build values fetched from the arenas by match index.
type colHashJoinIter struct {
	probe     colIterator
	node      *ExecNode
	sp        *trace.Span // nil when untraced
	rowBytes  int64       // bytes materialized per output row
	leftKey   int
	probeCols int
	build     *colJoinBuild
	probeOut  []int // needed output columns from the probe side
	buildOut  []int // needed output columns from the build side (build-local indices)

	// probe cursor, carried across Next calls when dst fills mid-batch
	pbatch  *batch.ColBatch
	pi      int // next unprocessed live row of pbatch (selection order)
	curRow  int // current probe physical row
	matches []int32
	mi      int
	done    bool
}

// newColHashJoinIter builds the probe-side iterator: need is the join
// output's required columns, probePop the populated set of the probe
// child's batches.
func newColHashJoinIter(probe colIterator, jb *colJoinBuild, probeCols, leftKey int, need, probePop []int, capRows int) *colHashJoinIter {
	h := &colHashJoinIter{
		probe:     probe,
		leftKey:   leftKey,
		probeCols: probeCols,
		build:     jb,
		pbatch:    batch.NewCol(probeCols, capRows, probePop),
	}
	for _, c := range need {
		if c < probeCols {
			h.probeOut = append(h.probeOut, c)
		} else {
			h.buildOut = append(h.buildOut, c-probeCols)
		}
	}
	return h
}

// reset clears the probe-side cursor so the iterator can serve a fresh
// probe source (the parallel executor reuses one iterator per worker
// across morsels). The shared build state is untouched.
func (h *colHashJoinIter) reset() {
	h.pbatch.Reset()
	h.pi = 0
	h.matches = nil
	h.mi = 0
	h.done = false
}

func (h *colHashJoinIter) rewind(db *Database) error {
	h.reset()
	h.node.OutRows = 0
	return h.probe.rewind(db)
}

// deferredErr surfaces probe-side deferred errors; the build side is fully
// consumed at open time, so any failure there was already returned
// (newColJoinBuild).
func (h *colHashJoinIter) deferredErr() error { return h.probe.deferredErr() }

func (h *colHashJoinIter) Next(dst *batch.ColBatch) bool {
	if h.sp == nil {
		return h.next(dst)
	}
	h.sp.Begin()
	if !h.next(dst) {
		h.sp.ObserveEmpty()
		return false
	}
	h.sp.Observe(int64(dst.Len()), int64(dst.Len())*h.rowBytes)
	return true
}

func (h *colHashJoinIter) next(dst *batch.ColBatch) bool {
	dst.Reset()
	capRows := dst.Cap()
	j := 0
	for j < capRows {
		if h.mi < len(h.matches) {
			k := len(h.matches) - h.mi
			if k > capRows-j {
				k = capRows - j
			}
			for _, c := range h.probeOut {
				v := h.pbatch.Col(c)[h.curRow]
				out := dst.Col(c)[j : j+k]
				for i := range out {
					out[i] = v
				}
			}
			for _, bc := range h.buildOut {
				src := h.build.arena[bc]
				out := dst.Col(h.probeCols + bc)[j : j+k]
				for i := 0; i < k; i++ {
					out[i] = src[h.matches[h.mi+i]]
				}
			}
			h.mi += k
			j += k
			continue
		}
		if h.done {
			break
		}
		if h.pi >= h.pbatch.Live() {
			if !h.probe.Next(h.pbatch) {
				h.done = true
				break
			}
			h.pi = 0
			continue
		}
		if sel := h.pbatch.Sel(); sel != nil {
			h.curRow = int(sel[h.pi])
		} else {
			h.curRow = h.pi
		}
		h.pi++
		h.matches = h.build.idx[h.pbatch.Col(h.leftKey)[h.curRow]]
		h.mi = 0
	}
	dst.SetLen(j)
	h.node.OutRows += int64(j)
	return j > 0
}

// colCountStarIter drains its child, emitting the single COUNT(*) row. Its
// drain batch materializes no columns at all: pure cardinality flow.
type colCountStarIter struct {
	child colIterator
	buf   *batch.ColBatch
	node  *ExecNode
	sp    *trace.Span // nil when untraced
	done  bool
}

func (c *colCountStarIter) Next(dst *batch.ColBatch) bool {
	if c.sp == nil {
		return c.next(dst)
	}
	c.sp.Begin()
	if !c.next(dst) {
		c.sp.ObserveEmpty()
		return false
	}
	c.sp.Observe(1, 8)
	return true
}

func (c *colCountStarIter) next(dst *batch.ColBatch) bool {
	dst.Reset()
	if c.done {
		return false
	}
	c.done = true
	var n int64
	for c.child.Next(c.buf) {
		n += int64(c.buf.Live())
	}
	dst.SetLen(1)
	dst.Col(0)[0] = n
	c.node.OutRows++
	return true
}

func (c *colCountStarIter) rewind(db *Database) error {
	c.done = false
	c.node.OutRows = 0
	return c.child.rewind(db)
}

func (c *colCountStarIter) deferredErr() error { return c.child.deferredErr() }
