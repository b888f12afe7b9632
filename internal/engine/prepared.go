package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/batch"
	"repro/internal/trace"
)

// Prepared is a plan readied for repeated execution against one database:
// every hash build side has been drained into a read-only columnar arena
// the Prepared owns (a positional one needs nothing ahead: it is looked up
// in the summary), so each Execute pays probe cost only. The arenas are
// valid until a table of the database is registered again, after which
// executions fail with ErrStalePrepared. A Prepared is safe for concurrent
// Execute calls (each opens fresh probe state over the read-only builds).
// This is what the serve front end caches per normalized query —
// steady-state traffic never rebuilds a hash table. Cancellation cannot
// poison a Prepared: the arenas are immutable after their drain, and a
// canceled execution abandons only its private probe state.
//
// Prepared is also the engine's one executor: every entry point is run over
// some Prepared and some ExecState. What each owns:
//
//	entry point                 Prepared            ExecState
//	ExecuteContext (ad hoc)     empty caches        fresh
//	Prepared.Execute[Context]   the caller's        fresh
//	Prepared.ExecuteIn[Context] the caller's        the caller's, reused
//
// Empty caches mean nothing is drained or read ahead: hash builds drain
// live at open, and open reads the registered summaries (buildPruneCache)
// itself. Either way each plan reads each summary once. Under the PathRegen
// ceiling there is no reading, so no join is positional: a build Prepare
// left to lookups drains live at open.
type Prepared struct {
	db     *Database
	plan   *Plan
	reg    uint64                       // db.reg when prepared: a later registration makes the Prepared stale
	builds map[*PlanNode]*preparedBuild // every hash join's build side over all its columns, drained by Prepare
	prunes *pruneCache                  // the plan's reading of the summaries, taken at Prepare time
}

// ErrStalePrepared is returned by a Prepared's executions once a table of
// its database has been registered again (AddRelation, SetDatagen,
// SetSummary): the summary-direct proof and the row-spaces it judged at
// Prepare time may no longer hold. Prepare the plan again. Test with
// errors.Is.
var ErrStalePrepared = errors.New("prepared statement is stale: a table was registered again")

// Plan returns the compiled plan the Prepared executes.
func (p *Prepared) Plan() *Plan { return p.plan }

// Prepare drains the plan's hash builds into the Prepared's arenas, and
// reads the summaries once; positional builds need nothing more. Hash
// builds materialize every build-side column, so later executions may
// request any sample projection. opts supplies the build drain's batch
// size; Parallelism, SampleLimit, Timeout, and Regime are ignored here (the
// drain is deliberately uncancellable: a Prepared under construction is not
// yet shared, and a per-request deadline belongs to executions, not to the
// cache-fill work other requests will reuse).
func Prepare(db *Database, plan *Plan, opts ExecOptions) (*Prepared, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	p := &Prepared{db: db, plan: plan, reg: db.reg, builds: make(map[*PlanNode]*preparedBuild)}
	// The reading is taken once and shared by every execution (and by the
	// build drain below, so cached build sides make the same prune
	// decisions as live ones — span-shape parity depends on it).
	p.prunes = buildPruneCache(db, plan)
	if err := p.drainBuilds(plan.Root, opts.BatchSize, &buildCache{m: p.builds}, &execCtl{prunes: p.prunes}); err != nil {
		return nil, err
	}
	return p, nil
}

// drainBuilds drains the build side of every hash join under pn, over all
// its columns, into p.builds; a positional one is looked up at open, never
// drained.
func (p *Prepared) drainBuilds(pn *PlanNode, capRows int, builds *buildCache, ctl *execCtl) error {
	for _, c := range pn.Children {
		if err := p.drainBuilds(c, capRows, builds, ctl); err != nil {
			return err
		}
	}
	if pn.Op != OpHashJoin {
		return nil
	}
	if leaf, _ := positionalLeaf(p.db, pn, p.prunes); leaf != nil {
		return nil
	}
	_, _, _, err := builds.build(p.db, pn, batch.AllCols(len(pn.Children[1].Cols)), capRows, ctl)
	return err
}

// Execute runs the prepared plan in a fresh ExecState: identical results to
// ad-hoc execution of the raw plan, minus the build cost. It is
// ExecuteContext over context.Background().
func (p *Prepared) Execute(opts ExecOptions) (*ExecResult, error) {
	return p.ExecuteContext(context.Background(), opts)
}

// ExecuteContext is Execute under a context, with the engine's
// batch-boundary cancellation contract (see the package-level
// ExecuteContext). The Prepared's build arenas are untouched by a canceled
// execution.
func (p *Prepared) ExecuteContext(ctx context.Context, opts ExecOptions) (*ExecResult, error) {
	return p.run(ctx, new(ExecState), opts)
}

// ExecState is caller-owned reusable execution state for ExecuteIn: the
// opened operator tree (or the summary-direct evaluator), its ExecNode
// mirror, the root column batch, the result struct, and the execution's
// cancellation control (owned for the state's lifetime and rebound per
// call, so context plumbing costs no allocations). One goroutine per
// ExecState.
type ExecState struct {
	it     colIterator     // the operator tree; nil when sagg answers
	b      *batch.ColBatch // it's root batch
	sagg   *summaryAggEval // summary-direct evaluator when that regime answers
	par    *parallelPlan   // it's morsel workers when opts.Parallelism >= 1 found a partitionable leaf
	res    ExecResult
	sample sampleRows  // res.Sample's storage, recycled by the next execution
	opts   ExecOptions // the options the state was opened for: the reuse key
	ctl    execCtl
	valid  bool
}

// ExecuteIn runs the prepared plan inside st, reusing every piece of
// per-execution state from the previous call: iterators are rewound
// (deterministic scans re-seek to row zero instead of reopening), batches,
// selection buffers, and ExecNodes are recycled, and the returned result
// aliases st — it is valid until the next ExecuteIn on the same state.
// After the first call, sequential executions with an unchanged opts value
// allocate nothing, sampled ones included (the state recycles its sample
// rows): the steady-state scan→filter→count path runs at zero allocations
// per query, which TestSteadyStateZeroAlloc pins. (With opts.Parallelism
// >= 1 the state is reopened per call: worker partials fold into the
// tree, so a parallel plan runs once.) It is ExecuteInContext over
// context.Background().
func (p *Prepared) ExecuteIn(st *ExecState, opts ExecOptions) (*ExecResult, error) {
	return p.ExecuteInContext(context.Background(), st, opts)
}

// ExecuteInContext is ExecuteIn under a context: cancellation is observed
// at batch boundaries through the state's own execCtl (a field rebind, not
// a per-batch closure, so the zero-allocation steady state survives — with
// a background context and no Timeout, nothing is allocated). A canceled
// or failed execution leaves st reusable: the next call rewinds or reopens
// the same state, and results are unaffected — neither can poison the
// prepared state.
func (p *Prepared) ExecuteInContext(ctx context.Context, st *ExecState, opts ExecOptions) (*ExecResult, error) {
	return p.run(ctx, st, opts)
}

// run is the engine's one executor, behind every entry point: it normalizes
// the options (the one place Parallelism is clamped), folds the timeout
// into ctx, opens st for opts unless st already is, and drives whatever
// open chose.
func (p *Prepared) run(ctx context.Context, st *ExecState, opts ExecOptions) (*ExecResult, error) {
	if p.reg != p.db.reg {
		return nil, fmt.Errorf("engine: %w", ErrStalePrepared)
	}
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	// The deadline now lives in ctx; zero the field so state reuse keys on
	// the execution-shaping options only (a per-call Timeout change must
	// not rebuild the operator tree).
	opts.Timeout = 0
	st.ctl.bind(ctx)
	if st.valid && st.opts == opts {
		if st.ctl.rec != nil {
			st.ctl.rec.Reset()
		}
		if st.it != nil {
			if err := st.it.rewind(p.db); err != nil {
				return nil, err
			}
		}
	} else if err := p.open(st, opts); err != nil {
		return nil, err
	}
	res := &st.res
	res.Rows, res.Count, res.Sample = 0, 0, nil
	switch {
	case st.sagg != nil:
		err = st.sagg.run(&st.ctl, res, &st.sample, opts)
	case st.par != nil:
		err = st.par.run(ctx, st, p.plan, opts)
	default:
		err = runColumnar(st, p.plan, opts)
	}
	// A context error latched mid-drive takes precedence over the
	// pipeline's deferred error.
	if st.ctl.err != nil {
		return nil, st.ctl.err
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// open decides the regime under opts.Regime's ceiling and builds st's
// execution state for it — the one place either happens. Below the
// PathRegen ceiling it takes the plan's reading of the summaries (the
// Prepare-time one, or one read now when there is none): summary-direct
// answers when the reading proved the candidate exact; failing that the
// operator tree opens over the reading's pruned row-spaces, or over full
// scans under the PathRegen ceiling — one openCol of the plan's root,
// whatever drives it afterwards. With
// opts.Parallelism >= 1 and a partitionable leaf scan that tree becomes the
// first of the workers' (openParallel); otherwise it is driven as it
// stands, so a table's DatagenFunc is invoked once per scan operator either
// way. st is reset before anything is built and valid only once open
// succeeds, so a failed open never leaves a half-built state behind for the
// reuse branch to trust.
// Everything here — the trace arena (Trace is part of the reuse key), the
// evaluator's scratch, the tree — is then recycled in place by later calls
// with the same opts.
func (p *Prepared) open(st *ExecState, opts ExecOptions) error {
	*st = ExecState{ctl: execCtl{ctx: st.ctl.ctx}}
	if opts.Trace {
		st.ctl.rec = trace.NewRecorder(countPlanNodes(p.plan.Root))
	}
	rd := p.prunes
	switch {
	case opts.Regime == PathRegen:
		rd = nil
	case rd == nil:
		rd = buildPruneCache(p.db, p.plan)
	}
	root, path := (*ExecNode)(nil), PathSummary
	if st.sagg = summaryAggFor(p.db, p.plan, opts, rd); st.sagg != nil {
		st.sagg.open(&st.ctl)
		root = &st.sagg.node
	} else {
		st.ctl.prunes = rd
		builds := &buildCache{base: p.builds}
		if opts.Regime == PathRegen && p.prunes != nil && len(p.prunes.scans) > 0 {
			// The cached build sides were drained over pruned scans; full
			// regeneration drains them live.
			builds.base = nil
		}
		if opts.Parallelism >= 1 {
			// What this open drains, its other workers' opens find.
			builds.m = make(map[*PlanNode]*preparedBuild)
		}
		it, width, pop, node, err := openCol(p.db, p.plan.Root, rootNeed(p.plan, opts), opts.BatchSize, builds, &st.ctl)
		if err != nil {
			return err
		}
		if p.plan.sinkRoot() {
			// A sink's output is only what it emits: its root batch opens
			// without storage, and each emit reserves the rows it writes.
			pop = nil
		}
		st.it, st.b, root = it, batch.NewCol(width, opts.BatchSize, pop), node
		if opts.Parallelism >= 1 {
			if st.par, err = openParallel(p.db, p.plan, it, node, st.b, opts, builds, &st.ctl); err != nil {
				return err
			}
		}
		if path = PathRegen; prunedRows(root) > 0 {
			path = PathPruned
		}
	}
	st.res = ExecResult{Root: root, Trace: root.sp, Path: path}
	// Worker partials fold into a parallel plan's own nodes and spans, so it
	// runs once: the state stays invalid and the next call reopens.
	st.opts, st.valid = opts, st.par == nil
	return nil
}

// prunedRows sums RowsPruned over the tree's scans — live ones and the
// frozen build sides a Prepared carries alike.
func prunedRows(n *ExecNode) int64 {
	total := n.RowsPruned
	for _, c := range n.Children {
		total += prunedRows(c)
	}
	return total
}
