package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/batch"
	"repro/internal/generator"
	"repro/internal/pred"
	"repro/internal/trace"
)

// The columnar operator set — the engine's only operator implementations.
// Operators move rows in column-major batches (batch.ColBatch) under late
// materialization: required-column analysis (plan.go) decides which columns
// each operator must populate, scans expand only those columns from the
// summary, filters flip a selection vector instead of compacting row data,
// and joins read nothing but the key column until output materialization.
// A join's build side is one of two kinds. A hash build drains its child
// into read-only arenas at open and indexes them. A positional build — the
// build table regenerates from its summary and the key is its primary key
// — drains nothing: each probe key is looked up in the summary
// (generator.Lookup) and the matched tuple's columns are read under the
// generator's law. A join whose build has at most one match per key — a
// positional one, or a hash build whose keys turned out unique — runs in
// place (colKeyJoinIter): its probe child fills the join's own output
// batch, the join narrows that batch's selection to the rows whose key
// matches, as a filter does, and reads the build columns into those same
// rows, so a spine of scan, filters and key joins shares one batch. Only a
// hash build with repeated keys pairs rows into a batch of its own
// (colHashJoinIter). Blocking root operators (COUNT(*), GROUP BY,
// DISTINCT, ORDER BY) are the sink framework in sink.go; at a plan's root a
// sink's batch holds only the rows it emits (Prepared.open, Reserve). A
// bounded sort over a scan of such a table runs late by the same law
// (lateSort): the scan materializes only the sort keys and the columns up
// to the primary key, and the winners' other columns are read from the
// summary at emit. The one executor (Prepared.run) composes these same
// operators, opened by the one opener (openCol), every way it runs: it
// drives them batch-wise through runColumnar; an innermost sink may drain
// its spine on morsel workers, each opened by openCol over shared build
// arenas, and fold their partial states (exec_parallel.go); and a
// caller-owned ExecState recycles the opened tree, workers included. The
// parity suites hold all of them to byte-identical results, and to the
// materialized database's answers.

// colIterator is the engine-internal columnar operator contract — the one
// operator set every execution composes. Next resets dst, fills it
// with up to dst.Cap() physical output rows (of which Live() are selected),
// and reports whether it produced any. After the first false return the
// operator is exhausted. Every operator's Next is its meter's bracket
// around its own next. rewind restores the just-opened state for another
// execution of the same plan (the Prepared reuse path), clearing the
// operator's meter; a join's build side is never rewound, so its subtree
// keeps the counts of its drain. deferredErr is the engine's single
// deferred-error convention: a failure only detectable after an operator's
// drain (aggregate overflow) parks in the operator and is surfaced here,
// recursively through the tree, once the drive loop finishes.
type colIterator interface {
	Next(dst *batch.ColBatch) bool
	rewind(db *Database) error
	deferredErr() error
}

// meter is the one account of an operator's output, embedded in every
// operator: the rows of the batches its Next returns, added to its
// ExecNode's OutRows and, when the execution is traced, observed on its
// span with the Next call's wall time and rowBytes per row.
type meter struct {
	node     *ExecNode
	sp       *trace.Span // nil when untraced
	rowBytes int64       // bytes materialized per output row
}

// begin stamps a Next call's entry.
func (m *meter) begin() {
	if m.sp != nil {
		m.sp.Begin()
	}
}

// end accounts for the Next call that produced dst when ok, and returns ok.
func (m *meter) end(dst *batch.ColBatch, ok bool) bool {
	if !ok {
		if m.sp != nil {
			m.sp.ObserveEmpty()
		}
		return false
	}
	live := int64(dst.Live())
	m.node.OutRows += live
	if m.sp != nil {
		m.sp.Observe(live, live*m.rowBytes)
	}
	return true
}

// clear zeroes the account for another execution.
func (m *meter) clear() {
	m.node.OutRows = 0
	if m.sp != nil {
		m.sp.Reset()
	}
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

// buildCache is where openCol's hash builds find their build sides — the
// read-only columnar arena plus the build-side ExecNode subtree with its
// counts as the drain left them (the drained operators are never rewound,
// so nothing clears them) — and where it leaves the ones it had to drain.
// Two layers: base is a Prepared's own builds, drained by Prepare over
// every build column and never written by an execution; m belongs to
// whoever is opening (Prepare filling its builds, or one parallel execution
// whose sink opens its workers' spines one after another, so the first
// drains and the rest hit). A nil m retains nothing: a sequential execution
// opens each join once.
type buildCache struct {
	m    map[*PlanNode]*preparedBuild
	base map[*PlanNode]*preparedBuild
}

type preparedBuild struct {
	jb   *colJoinBuild
	node *ExecNode // build-child subtree template; cloned per use
}

// build returns join pn's build side, holding at least the need columns, and
// the ExecNode subtree that reports it: a cached side is probed as is, its
// subtree cloned into the caller's plan annotation with the drain's counts;
// an uncached one is opened and drained here — the one place a build side is
// drained, whoever asks — and retained when the cache retains. buildNS is
// the drain's wall clock, zero on a hit. The drain is a cancellation point
// through its scan leaves: one the context interrupts leaves an incomplete
// arena, and surfaces the context error as an open failure.
func (bc *buildCache) build(db *Database, pn *PlanNode, need []int, capRows int, ctl *execCtl) (jb *colJoinBuild, node *ExecNode, buildNS int64, err error) {
	pb := bc.m[pn]
	if pb == nil {
		pb = bc.base[pn]
	}
	if pb != nil {
		node = cloneExecNode(pb.node)
		ctl.annotateFrozen(node)
		return pb.jb, node, 0, nil
	}
	it, width, pop, node, err := openCol(db, pn.Children[1], need, capRows, bc, ctl)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	jb, err = newColJoinBuild(it, width, pn.RightKey, capRows, need, pop)
	buildNS = time.Since(start).Nanoseconds()
	if ctl.stopped() {
		return nil, nil, 0, ctl.err
	}
	if err != nil {
		return nil, nil, 0, err
	}
	if bc.m != nil {
		bc.m[pn] = &preparedBuild{jb: jb, node: node}
	}
	return jb, node, buildNS, nil
}

// positionalLeaf returns the scan join pn probes by position, with that
// scan's reading (nil for a bare scan), or nil when the join builds a hash
// table. A build is positional when its leaf is a scan of a summary-backed
// table — bare, or under a filter the reading absorbed — and its key is
// that table's primary key: tuple k of such a table is a pure function of
// its summary and has primary key k, so a probe key finds its one match,
// if any, by a lookup in the summary (generator.Lookup), and nothing is
// drained. A residual filter stays an operator and a non-key build column
// has many matches, so those leaves hash, as stored, paced and datagen
// ones do. So do all leaves without a reading (the PathRegen ceiling):
// full regeneration drains every build side.
func positionalLeaf(db *Database, pn *PlanNode, pc *pruneCache) (*PlanNode, *scanPrune) {
	if pc == nil {
		return nil, nil
	}
	leaf := pn.Children[1]
	if leaf.Op == OpFilter {
		leaf = leaf.Children[0]
		if pr := pc.scan(leaf); pr == nil || !pr.absorbed {
			return nil, nil
		}
	}
	if _, ok := db.summaries[leaf.Table]; !ok || leaf.Op != OpScan || db.Schema.Table(leaf.Table).PKIndex() != pn.RightKey {
		return nil, nil
	}
	return leaf, pc.scan(leaf)
}

// lateSort returns the summary reads of sort pn when it runs as a late
// top-K, with the narrowed set its child materializes instead of collect
// (the sort's collected set, childNeeds'), or nil and collect. A sort runs
// late when it is bounded (sortBound), its child is a scan of a
// summary-backed table — whole, a morsel's section or a pruned row-space,
// bare or under filters — collect holds that table's primary key, and
// some collected column lies past it: then the child materializes only
// the sort keys, the predicate columns and the collected columns up to the
// primary key (PlanNode.lateNeeds), which decide the sort's total order
// alone, and the other collected columns are read at emit for the rows
// emitted, from the table's registered stream at their primary keys —
// tuple k of such a table is a pure function of its summary and has
// primary key k (the positionalLeaf argument). Stored, paced and datagen
// tables, joins under the sort, unbounded sorts and sorts that do not
// collect the key collect every column. The decision depends on the plan,
// the registrations and collect alone, so the sequential tree, every
// parallel worker and a reused ExecState make it alike.
func lateSort(db *Database, pn *PlanNode, collect []int) (*sortLate, []int) {
	if sortBound(pn) == 0 {
		return nil, collect
	}
	leaf := pn.Children[0]
	for leaf.Op == OpFilter {
		leaf = leaf.Children[0]
	}
	sc, ok := db.summaries[leaf.Table]
	if !ok || leaf.Op != OpScan {
		return nil, collect
	}
	pk := db.Schema.Table(leaf.Table).PKIndex()
	if !slices.Contains(collect, pk) {
		return nil, collect
	}
	child, cols := pn.lateNeeds(collect, pk)
	if len(cols) == 0 {
		return nil, collect
	}
	return &sortLate{lk: sc.gen.Lookup(), pk: pk, cols: cols}, child
}

// keep moves into the collected set collect every late column the sort's
// child materializes anyway — pop holds a residual filter's predicate
// columns — so the sort keeps it in its arena instead of reading it again
// at emit. Past the primary key, a kept column never decides the order. A
// sort left with no late column is an ordinary bounded sort: nil.
func (l *sortLate) keep(collect, pop []int) ([]int, *sortLate) {
	collect = slices.Clip(collect) // the child's need: grow a copy
	late := l.cols[:0]
	for _, c := range l.cols {
		if slices.Contains(pop, c) {
			collect = addCol(collect, c)
		} else {
			late = append(late, c)
		}
	}
	if len(late) == 0 {
		return collect, nil
	}
	l.cols = late
	return collect, l
}

// markLateScan names, on the scan leaf under a late sort's child node n,
// the columns its batches populate (pop), and re-derives the leaf's span
// detail to show them.
func markLateScan(db *Database, n *ExecNode, pop []int) {
	for n.Op == OpFilter.String() {
		n = n.Children[0]
	}
	t := db.Schema.Table(n.Table)
	for _, c := range pop {
		n.Cols = append(n.Cols, t.Columns[c].Name)
	}
	if n.sp != nil {
		n.sp.Detail = nodeDetail(n)
	}
}

// cloneExecNode deep-copies a drained build-side ExecNode subtree so each
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

// runColumnar drives st's opened operator tree to exhaustion, accumulating
// rows, samples (in st's sample rows), and the COUNT value into st.res,
// and returns the pipeline's deferred error once the drain completes. The
// drive loop is one of the engine's cancellation points: it stops pulling
// batches once the state's ctl observes the context done (covering sink
// emit phases, which pull no scan batches); the caller surfaces ctl.err,
// which takes precedence over the returned deferred error.
//
//hydra:hotpath
func runColumnar(st *ExecState, plan *Plan, opts ExecOptions) error {
	agg := plan.countStar()
	it, b, res := st.it, st.b, &st.res
	st.sample.n = 0
	for !st.ctl.stopped() && it.Next(b) {
		live := b.Live()
		res.Rows += int64(live)
		for i := 0; st.sample.n < opts.SampleLimit && i < live; i++ {
			b.LiveRow(i, st.sample.next(b.Width()))
		}
		if agg && live > 0 {
			// COUNT(*) emits exactly one row, and a LIMIT above it never
			// selects within a one-row batch, so the count is row 0.
			res.Count = b.Col(0)[0]
		}
	}
	res.Sample = st.sample.taken()
	return it.deferredErr()
}

// sampleRows holds an execution's sample rows, one allocation each the
// first time a row is taken. A reused ExecState recycles them — the result
// aliases the state anyway — so a sampled steady state allocates nothing;
// a fresh state's rows are its caller's.
type sampleRows struct {
	rows [][]int64 // every row allocated so far; the first n are this execution's
	n    int
}

// next returns the storage of the execution's next row, w wide: the
// root's width, the same for every execution an opened state runs.
func (s *sampleRows) next(w int) []int64 {
	if s.n == len(s.rows) {
		s.rows = append(s.rows, make([]int64, w))
	}
	s.n++
	return s.rows[s.n-1]
}

// taken returns the rows the execution took, nil for none.
func (s *sampleRows) taken() [][]int64 {
	if s.n == 0 {
		return nil
	}
	return s.rows[:s.n:s.n]
}

// openCol builds the columnar operator tree for pn and its ExecNode mirror,
// materializing only the need columns of pn's output — the only code that
// turns a plan node into an operator, for every caller: the sequential
// tree, each morsel worker's spine, a build side about to be drained.
// It returns, besides the operator's output width, the populated column set
// of the batches the operator fills — a superset of need when a scan also
// writes predicate or key columns that ride along in the same physical
// batch, as do the probe columns under an in-place key join — which the
// parent must use to size its receiving batch. Hash
// builds are consumed at open time, through builds (see buildCache.build);
// positional ones are looked up (positionalLeaf). ctl is the execution's
// cancellation control, threaded into every scan leaf (the engine's
// per-batch check point), and carries the plan's pruned row-spaces.
func openCol(db *Database, pn *PlanNode, need []int, capRows int, builds *buildCache, ctl *execCtl) (colIterator, int, []int, *ExecNode, error) {
	switch pn.Op {
	case OpScan:
		// The one place a scan source opens: the whole table, or — predicate
		// pushdown into generation — the stream its reading was judged
		// against, restricted to the qualifying row-space, so non-matching
		// tuples are never generated and parallel morsels partition live
		// rows only.
		node := &ExecNode{Op: pn.Op.String(), Table: pn.Table}
		var src batch.ColProjector
		if pr := ctl.prunes.scan(pn); pr != nil {
			src = pr.gen.SectionSet(pr.ivs)
			node.RowsPruned, node.SummaryRowsSkipped = pr.pruned, pr.skipped
		} else {
			var err error
			if src, err = db.openScan(pn.Table); err != nil {
				return nil, 0, nil, nil, err
			}
		}
		width := len(db.Schema.Table(pn.Table).Columns)
		s := &colScanIter{meter: ctl.meter(node, 8*int64(len(need))), table: pn.Table, src: src, width: width, cols: need, ctl: ctl}
		return s, width, need, node, nil

	case OpFilter:
		// When every conjunct was proven on the pruned scan beneath, the
		// scan replaces the filter outright, opened with the parent's need
		// — skipping the predicate columns the MatchVec would have read.
		// Otherwise the filter refines the child's selection in place (a
		// residual filter over a pruned scan is exact: pruning only removed
		// provably-failing tuples and never reordered survivors), so its
		// output batches are the child's: populated set passes through.
		if pr := ctl.prunes.scan(pn.Children[0]); pr != nil && pr.absorbed {
			return openCol(db, pn.Children[0], need, capRows, builds, ctl)
		}
		child, width, pop, childNode, err := openCol(db, pn.Children[0], pn.childNeeds(need)[0], capRows, builds, ctl)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		table := db.Schema.Table(pn.Pred.Table)
		node := &ExecNode{Op: pn.Op.String(), Table: pn.Pred.Table, PredSQL: pn.Pred.SQL(table), Children: []*ExecNode{childNode}}
		// The filter moves no row data: rows pass, bytes stay zero.
		return &colFilterIter{meter: ctl.meter(node, 0), child: child, m: pn.Pred.Matcher()}, width, pop, node, nil

	case OpHashJoin:
		cn := pn.childNeeds(need)
		probe, pw, probePop, probeNode, err := openCol(db, pn.Children[0], cn[0], capRows, builds, ctl)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		var (
			jb        *colJoinBuild
			lk        *generator.Lookup
			buildNode *ExecNode
			buildNS   int64
			bw        int
		)
		if leaf, pr := positionalLeaf(db, pn, ctl.prunes); leaf != nil {
			// The build side is looked up, not drained: its leaf reports
			// the reading's pruning and generates nothing.
			gen := db.summaries[leaf.Table].gen
			buildNode = &ExecNode{Op: leaf.Op.String(), Table: leaf.Table, Positional: true}
			if pr != nil {
				gen = pr.gen.SectionSet(pr.ivs)
				buildNode.RowsPruned, buildNode.SummaryRowsSkipped = pr.pruned, pr.skipped
			}
			ctl.annotate(buildNode)
			lk, bw = gen.Lookup(), gen.Cols()
		} else {
			if jb, buildNode, buildNS, err = builds.build(db, pn, cn[1], capRows, ctl); err != nil {
				return nil, 0, nil, nil, err
			}
			bw = jb.width
		}
		node := &ExecNode{Op: pn.Op.String(), JoinSQL: pn.JoinSQL, Children: []*ExecNode{probeNode, buildNode}}
		m := ctl.meter(node, 8*int64(len(need)))
		if m.sp != nil {
			// The build side drains at open, outside this operator's Next
			// window: detach it from self-time math and report the drain
			// wall clock on the join itself (0 for a positional build).
			m.sp.BuildNS = buildNS
			buildNode.sp.Detached = true
		}
		if lk != nil || jb.unique() {
			// At most one match per key: the join runs in place in its
			// probe's batch, which also carries the build columns it reads.
			kj := &colKeyJoinIter{meter: m, probe: probe, leftKey: pn.LeftKey, probeCols: pw, build: jb, pos: lk}
			pop := slices.Clip(probePop)
			for _, c := range need {
				if c >= pw {
					kj.buildOut = append(kj.buildOut, c-pw)
					pop = append(pop, c)
				}
			}
			kj.rowBytes = 8 * int64(len(kj.buildOut))
			return kj, pw + bw, pop, node, nil
		}
		ji := newColHashJoinIter(probe, jb, pw, pn.LeftKey, need, probePop, capRows, ctl.store)
		ji.meter = m
		return ji, pw + bw, need, node, nil

	case OpAggregate, OpGroupAgg, OpDistinct, OpSort:
		// The blocking sinks are one operator over two states, and this is
		// the one place a sink's drain is chosen. The sink the plan's
		// reading answers (execCtl.answer) is drained by the summary-row
		// evaluator: it folds the reading's provably exact rows into the
		// sink's state, no tuple is generated and the node is childless.
		if pn == ctl.answer {
			e := newSummaryAggEval(db, pn, ctl)
			node := &ExecNode{Op: OpSummaryAgg.String(), Table: e.table}
			g := &colSinkIter{meter: ctl.meter(node, 8*int64(len(need))), child: e, st: e.st, outCols: need, ctl: ctl}
			if g.sp != nil {
				g.sp.Detail = fmt.Sprintf("%s [%d summary rows]", e.table, len(e.rel.Rows))
			}
			return g, len(pn.Items), need, node, nil
		}
		// Any other sink drains its child spine, which openMorsels may turn
		// into the morsel pool below. What the child materializes is the
		// sink's to say (childNeeds): exactly the keys and aggregate inputs
		// for COUNT(*) (none: only cardinalities flow), GROUP BY and
		// DISTINCT, whatever the parent needs; the output columns plus the
		// sort keys for ORDER BY — the set the sort state collects, which
		// is also its comparator's tiebreak domain (identical however the
		// plan is executed) — narrowed, for a late top-K, to the keys and
		// the columns up to the primary key (lateSort). The sink's own
		// output batches populate only need.
		childNeed := pn.childNeeds(need)[0]
		var late *sortLate
		if pn.Op == OpSort {
			late, childNeed = lateSort(db, pn, childNeed)
		}
		child, width, pop, childNode, err := openCol(db, pn.Children[0], childNeed, capRows, builds, ctl)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		openNeed := childNeed
		if late != nil {
			childNeed, late = late.keep(childNeed, pop)
		}
		node := &ExecNode{Op: pn.Op.String(), Late: late != nil, Children: []*ExecNode{childNode}}
		g := &colSinkIter{
			meter:   ctl.meter(node, 8*int64(len(need))),
			child:   child,
			buf:     ctl.store.NewCol(width, capRows, pop),
			st:      newSinkState(pn, childNeed, width, late),
			outCols: need,
			ctl:     ctl,
		}
		if late != nil {
			markLateScan(db, childNode, pop)
		}
		if pn.Op != OpSort {
			width = len(pn.Items)
		}
		if ctl.workers >= 2 {
			// The innermost sink over a partitionable spine drains it on
			// morsel workers, each opened as its child was (openMorsels).
			if err := openMorsels(db, pn, g, openNeed, childNeed, late, capRows, builds); err != nil {
				return nil, 0, nil, nil, err
			}
		}
		return g, width, need, node, nil

	case OpLimit:
		// Pure truncation over the child's batches: output layout and
		// populated set pass through untouched.
		child, width, pop, childNode, err := openCol(db, pn.Children[0], pn.childNeeds(need)[0], capRows, builds, ctl)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		node := &ExecNode{Op: pn.Op.String(), Children: []*ExecNode{childNode}}
		// Pure selection arithmetic: rows pass, no bytes move.
		l := &colLimitIter{meter: ctl.meter(node, 0), child: child, limit: pn.Limit, offset: pn.Offset}
		return l, width, pop, node, nil

	default:
		return nil, 0, nil, nil, fmt.Errorf("engine: unknown operator %v", pn.Op)
	}
}

// colScanIter passes projected source batches through, counting them. It
// is the engine's per-batch cancellation point: every unbounded loop in
// the tree — the filter's skip loop, sink and COUNT(*) drains, hash-join
// build drains, probe pulls — advances only by pulling scan batches, so a
// single check here stops them all within one batch of the context ending.
// The source fills a view of the batch's first width columns, so it sees
// its table's width even in a batch that is wider — an in-place key
// join's, whose build columns follow the probe's.
type colScanIter struct {
	meter
	table string
	src   batch.ColProjector
	width int // the table's column count
	cols  []int
	view  batch.ColBatch // the source's view of the batch it fills
	ctl   *execCtl
}

func (s *colScanIter) Next(dst *batch.ColBatch) bool {
	s.begin()
	return s.end(dst, s.next(dst))
}

func (s *colScanIter) next(dst *batch.ColBatch) bool {
	if s.ctl.stopped() {
		return false
	}
	dst.Reset()
	dst.PrefixView(&s.view, s.width)
	if !s.src.NextColBatch(&s.view, s.cols) {
		return false
	}
	dst.SetLen(s.view.Len())
	return true
}

func (s *colScanIter) rewind(db *Database) error {
	s.clear()
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
	meter
	child colIterator
	m     *pred.Matcher
}

func (f *colFilterIter) Next(dst *batch.ColBatch) bool {
	f.begin()
	return f.end(dst, f.next(dst))
}

func (f *colFilterIter) next(dst *batch.ColBatch) bool {
	for {
		if !f.child.Next(dst) {
			return false
		}
		sel := f.m.MatchVec(dst.Cols(), dst.Len(), dst.Sel(), dst.SelBuf())
		if len(sel) > 0 {
			dst.SetSel(sel)
			return true
		}
		// Whole batch filtered out; pull the next one.
	}
}

func (f *colFilterIter) rewind(db *Database) error {
	f.clear()
	return f.child.rewind(db)
}

func (f *colFilterIter) deferredErr() error { return f.child.deferredErr() }

// colJoinBuild is the one-time build side of a hash join: per-column
// arenas of the build rows the output needs (unneeded columns carry no
// storage) plus a flat key index over them. Selection vectors are compacted
// away during the drain, so arena row r is the r-th surviving build row.
// After construction a colJoinBuild is read-only: the parallel executor
// shares one across all workers, and a Prepared across its executions.
// A build whose keys turned out unique (unique) is probed in place
// (colKeyJoinIter): each key's run is its one arena row. One with repeated
// keys pairs probe rows with runs (colHashJoinIter).
//
// The index groups the arena rows by key into runs, one per distinct key in
// first-seen order, laid out compressed-sparse-row: run g's rows are
// byKey[start[g]:start[g+1]], ascending, with key keys[g]. slots is an
// open-addressed table (power of two, at least twice the build rows, so
// under half full) of run number + 1, 0 marking an empty slot; a key's home
// slot is the top bits of a multiplicative hash — keys that differ only in
// high bits (i<<32 strides) still spread — and collisions probe linearly.
type colJoinBuild struct {
	width int
	arena [][]int64 // len width; nil for unpopulated columns
	slots []int32
	keys  []int64
	start []int32 // len(keys)+1
	byKey []int32
	shift uint // 64 − log2(len(slots))
}

// unique reports whether no key repeats: one run per arena row.
func (jb *colJoinBuild) unique() bool { return len(jb.keys) == len(jb.byKey) }

// hashMul is 2^64/φ: Fibonacci hashing's multiplier.
const hashMul = 0x9E3779B97F4A7C15

// matches returns the bounds of key k's run: byKey[lo:hi] are the ascending
// arena rows whose key is k, and lo == hi for none: an empty slot (0) reads
// start[0] twice. Small enough to inline into the probe loop.
func (jb *colJoinBuild) matches(k int64) (lo, hi int32) {
	s := jb.slots[jb.slot(k)]
	return jb.start[max(s, 1)-1], jb.start[s]
}

// slot returns the index of key k's slot, or of the empty slot that ends
// its probe sequence when k is absent.
func (jb *colJoinBuild) slot(k int64) int {
	mask := len(jb.slots) - 1
	i := int(uint64(k) * hashMul >> jb.shift)
	for s := jb.slots[i]; s != 0 && jb.keys[s-1] != k; s = jb.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// runOf returns key k's run, adding it when absent.
func (jb *colJoinBuild) runOf(k int64) int32 {
	i := jb.slot(k)
	if jb.slots[i] == 0 {
		jb.keys = append(jb.keys, k)
		jb.start = append(jb.start, 0)
		jb.slots[i] = int32(len(jb.keys))
	}
	return jb.slots[i] - 1
}

// index builds the key index over the drained key column: one pass inserts
// the runs and counts their rows into start, a prefix sum turns the counts
// into run ends, and a reverse pass places each row just below its run's
// end — leaving runs ascending and start[g] at run g's first row.
func (jb *colJoinBuild) index(key []int64) {
	size := 1
	for size < 2*len(key) {
		size <<= 1
	}
	jb.slots = make([]int32, size)
	jb.shift = uint(64 - bits.TrailingZeros(uint(size)))
	// A run per row at most: exact for unique-key builds, so runOf's appends
	// never regrow.
	jb.keys = make([]int64, 0, len(key))
	jb.start = make([]int32, 0, len(key)+1)
	for _, k := range key {
		jb.start[jb.runOf(k)]++
	}
	var end int32
	for g, c := range jb.start {
		end += c
		jb.start[g] = end
	}
	jb.start = append(jb.start, end)
	jb.byKey = make([]int32, len(key))
	for r := len(key) - 1; r >= 0; r-- {
		g := jb.runOf(key[r])
		jb.start[g]--
		jb.byKey[jb.start[g]] = int32(r)
	}
}

// maxBuildRows is the most rows a hash build indexes: the index holds arena
// rows, run numbers and run bounds as int32.
const maxBuildRows = math.MaxInt32

// checkBuildRows fails a build that has reached rows rows, when the index
// could not address them all: a build sound or an error, never one whose
// int32 row numbers wrapped.
func checkBuildRows(rows int) error {
	if rows > maxBuildRows {
		return fmt.Errorf("engine: hash-join build side of more than %d rows (%d drained) exceeds the join index", maxBuildRows, rows)
	}
	return nil
}

// newColJoinBuild drains the build-side iterator into the arenas, then
// indexes them: only the need columns are retained (need must include the
// key column); pop is the populated set of the build child's batches. The
// drain is a complete execution of the build subtree, so its deferred error
// (a scan source that stopped on bad input) is returned here, as is a build
// too large to index (checkBuildRows).
func newColJoinBuild(build colIterator, width, rightKey, capRows int, need, pop []int) (*colJoinBuild, error) {
	jb := &colJoinBuild{width: width, arena: make([][]int64, width)}
	b := batch.NewCol(width, capRows, pop)
	rows := 0
	for build.Next(b) {
		rows += b.Live()
		if err := checkBuildRows(rows); err != nil {
			return nil, err
		}
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
	}
	jb.index(jb.arena[rightKey])
	return jb, build.deferredErr()
}

// colKeyJoinIter is a join whose build side has at most one match per
// probe key — a positional build (pos), or a hash build whose keys turned
// out unique (build) — run in place: it owns no batch. Its probe child
// fills the join's own output batch, which is wide enough for both sides;
// per batch the join narrows that batch's selection to the live rows whose
// key matches, in place as colFilterIter does, then reads each needed
// build column into those same physical rows — from the summary at the
// row's key (Lookup.Scatter), or from the arena at the key's one row. No
// probe value moves, and a batch in which every key misses is skipped.
type colKeyJoinIter struct {
	meter     // rowBytes counts the build columns only
	probe     colIterator
	leftKey   int
	probeCols int
	buildOut  []int             // needed output columns from the build side (build-local indices)
	build     *colJoinBuild     // a unique-key hash build; nil for a positional join
	pos       *generator.Lookup // the positional build; nil for a hash join
	rows      []int32           // hash build: the arena row of each selected row, in selection order
}

func (k *colKeyJoinIter) Next(dst *batch.ColBatch) bool {
	k.begin()
	return k.end(dst, k.next(dst))
}

func (k *colKeyJoinIter) next(dst *batch.ColBatch) bool {
	for {
		if !k.probe.Next(dst) {
			return false
		}
		keys, sel, live := dst.Col(k.leftKey), dst.Sel(), dst.Live()
		// The narrowed selection overwrites the one it reads: the write
		// index never passes the read index.
		out := dst.SelBuf()
		if jb := k.build; jb != nil {
			if cap(k.rows) < dst.Cap() {
				k.rows = make([]int32, 0, dst.Cap())
			}
			rows := k.rows[:0]
			for i := 0; i < live; i++ {
				p := int32(i)
				if sel != nil {
					p = sel[i]
				}
				if lo, hi := jb.matches(keys[p]); lo < hi {
					out = append(out, p)
					rows = append(rows, jb.byKey[lo])
				}
			}
			for _, bc := range k.buildOut {
				src, col := jb.arena[bc], dst.Col(k.probeCols+bc)
				for i, p := range out {
					col[p] = src[rows[i]]
				}
			}
		} else {
			for i := 0; i < live; i++ {
				p := int32(i)
				if sel != nil {
					p = sel[i]
				}
				if k.pos.Has(keys[p]) {
					out = append(out, p)
				}
			}
			for _, bc := range k.buildOut {
				k.pos.Scatter(dst.Col(k.probeCols+bc), bc, keys, out)
			}
		}
		if len(out) == 0 {
			continue // every key missed; pull the next batch
		}
		if sel != nil || len(out) < live {
			dst.SetSel(out)
		}
		return true
	}
}

func (k *colKeyJoinIter) rewind(db *Database) error {
	k.clear()
	return k.probe.rewind(db)
}

// deferredErr surfaces probe-side deferred errors; a hash build was fully
// consumed at open, so any failure there was already returned.
func (k *colKeyJoinIter) deferredErr() error { return k.probe.deferredErr() }

// colHashJoinIter streams probe batches against a hash build with repeated
// keys in two phases per output batch. The pair loop walks the live probe
// rows in selection order, reading nothing but the key column, looks each
// key up once and appends a pair per match; then one tight gather loop per
// needed column fills the output — probe columns from the probe batch by
// pRows, build columns from the arenas by bRows.
type colHashJoinIter struct {
	meter
	probe     colIterator
	leftKey   int
	probeCols int
	build     *colJoinBuild
	probeOut  []int // needed output columns from the probe side
	buildOut  []int // needed output columns from the build side (build-local indices)

	// The pair vectors, capacity the output batch's: pair i is output row i.
	pRows, bRows []int32

	// probe cursor, carried across Next calls when dst fills mid-batch
	pbatch   *batch.ColBatch
	pi       int   // next unprocessed live row of pbatch (selection order)
	curRow   int32 // probe physical row of a run cut by a full output batch
	mi, mEnd int32 // the cut run's unemitted rows: byKey[mi:mEnd]
	done     bool
}

// newColHashJoinIter builds the probe-side iterator over build side jb:
// need is the join output's required columns, probePop the populated set
// of the probe child's batches, drawn from store.
func newColHashJoinIter(probe colIterator, jb *colJoinBuild, probeCols, leftKey int, need, probePop []int, capRows int, store *batch.Store) *colHashJoinIter {
	pbatch := store.NewCol(probeCols, capRows, probePop)
	h := &colHashJoinIter{
		probe:     probe,
		leftKey:   leftKey,
		probeCols: probeCols,
		build:     jb,
		pRows:     make([]int32, pbatch.Cap()),
		bRows:     make([]int32, pbatch.Cap()),
		pbatch:    pbatch,
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
// across morsels), dropping a run cut by the last output batch. The shared
// build state is untouched.
func (h *colHashJoinIter) reset() {
	h.pbatch.Reset()
	h.pi = 0
	h.mi, h.mEnd = 0, 0
	h.done = false
}

func (h *colHashJoinIter) rewind(db *Database) error {
	h.reset()
	h.clear()
	return h.probe.rewind(db)
}

// deferredErr surfaces probe-side deferred errors; the build side is fully
// consumed at open time, so any failure there was already returned
// (newColJoinBuild).
func (h *colHashJoinIter) deferredErr() error { return h.probe.deferredErr() }

func (h *colHashJoinIter) Next(dst *batch.ColBatch) bool {
	h.begin()
	return h.end(dst, h.next(dst))
}

// next fills dst with up to Cap pairs' output. A probe pull overwrites
// pbatch, so the probe columns of the pairs collected before one are
// gathered first (from is where the ungathered pairs start); output
// batches stay packed across probe batches.
func (h *colHashJoinIter) next(dst *batch.ColBatch) bool {
	dst.Reset()
	capRows := dst.Cap()
	pRows, bRows := h.pRows[:capRows], h.bRows[:capRows]
	jb := h.build
	byKey := jb.byKey
	j, from := 0, 0
	// The pair loop.
	for j < capRows {
		if h.mi < h.mEnd {
			// The rest of a run the previous batch cut.
			run := byKey[h.mi:min(h.mEnd, h.mi+int32(capRows-j))]
			for _, r := range run {
				pRows[j], bRows[j] = h.curRow, r
				j++
			}
			h.mi += int32(len(run))
			continue
		}
		if h.done {
			break
		}
		live := h.pbatch.Live()
		if h.pi >= live {
			h.gatherProbe(dst, from, j)
			from = j
			if !h.probe.Next(h.pbatch) {
				h.done = true
				break
			}
			h.pi = 0
			continue
		}
		keys, sel := h.pbatch.Col(h.leftKey), h.pbatch.Sel()
		pi := h.pi
		for pi < live && j < capRows {
			p := int32(pi)
			if sel != nil {
				p = sel[pi]
			}
			pi++
			lo, hi := jb.matches(keys[p])
			if end := lo + int32(capRows-j); hi > end {
				h.curRow, h.mi, h.mEnd = p, end, hi
				hi = end
			}
			for _, r := range byKey[lo:hi] {
				pRows[j], bRows[j] = p, r
				j++
			}
		}
		h.pi = pi
	}
	// The gather: one loop per needed column.
	h.gatherProbe(dst, from, j)
	for _, bc := range h.buildOut {
		src, out := jb.arena[bc], dst.Col(h.probeCols + bc)[:j]
		for i, r := range bRows[:j] {
			out[i] = src[r]
		}
	}
	dst.SetLen(j)
	return j > 0
}

// gatherProbe fills the probe columns of output rows [from, to) from the
// current probe batch.
func (h *colHashJoinIter) gatherProbe(dst *batch.ColBatch, from, to int) {
	rows := h.pRows[from:to]
	for _, c := range h.probeOut {
		src, out := h.pbatch.Col(c), dst.Col(c)[from:to]
		for i, r := range rows {
			out[i] = src[r]
		}
	}
}
