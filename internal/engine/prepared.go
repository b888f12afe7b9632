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
// size; Parallelism, SampleLimit and Regime are ignored here (the
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
// opened operator tree (whichever regime answers), its ExecNode mirror, the
// root column batch, the result struct, and the execution's cancellation
// control (owned for the state's lifetime and rebound per call, so context
// plumbing costs no allocations). One goroutine per ExecState.
type ExecState struct {
	it     colIterator     // the operator tree, morsel workers included
	b      *batch.ColBatch // it's root batch
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
// per query, which TestSteadyStateZeroAlloc pins. A parallel state is
// rewound the same way, its sink's morsel workers with it; only the
// drain's goroutines and morsel queue are new per call. It is
// ExecuteInContext over context.Background().
func (p *Prepared) ExecuteIn(st *ExecState, opts ExecOptions) (*ExecResult, error) {
	return p.ExecuteInContext(context.Background(), st, opts)
}

// ExecuteInContext is ExecuteIn under a context: cancellation is observed
// at batch boundaries through the state's own execCtl (a field rebind, not
// a per-batch closure, so the zero-allocation steady state survives — with
// a background context, nothing is allocated). A canceled or failed
// execution leaves st reusable: the next call rewinds or reopens the same
// state, and results are unaffected — neither can poison the prepared
// state.
func (p *Prepared) ExecuteInContext(ctx context.Context, st *ExecState, opts ExecOptions) (*ExecResult, error) {
	return p.run(ctx, st, opts)
}

// run is the engine's one executor, behind every entry point: it normalizes
// the options (the one place Parallelism is clamped), opens st for opts
// unless st already is, and drives whatever open chose through
// runColumnar — a sink's morsel workers run inside its drain.
func (p *Prepared) run(ctx context.Context, st *ExecState, opts ExecOptions) (*ExecResult, error) {
	if p.reg != p.db.reg {
		return nil, fmt.Errorf("engine: %w", ErrStalePrepared)
	}
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	st.ctl.bind(ctx)
	if st.valid && st.opts == opts {
		if st.ctl.rec != nil {
			st.ctl.rec.Reset()
		}
		if err := st.it.rewind(p.db); err != nil {
			return nil, err
		}
	} else if err := p.open(st, opts); err != nil {
		return nil, err
	}
	res := &st.res
	res.Rows, res.Count, res.Sample = 0, 0, nil
	err = runColumnar(st, p.plan, opts)
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
// Prepare-time one, or one read now when there is none), and the regime is
// read from it: summary when the reading answers the root sink and no
// ceiling is set, pruned when some judged scan prunes tuples, regen
// otherwise. The answered sink rides the execution's control into openCol,
// which drains it with the summary-row evaluator; every other scan runs
// over the reading's pruned row-spaces, or whole under the PathRegen
// ceiling — one openCol over the plan's root. With opts.Parallelism >= 2
// the innermost sink over a partitionable spine opens its other morsel
// workers' spines inside that openCol (openMorsels), so a table's
// DatagenFunc is invoked once per scan operator: once per worker for such a
// leaf. st is reset before anything is built and valid only once open
// succeeds, so a failed open never leaves a half-built state behind for the
// reuse branch to trust. Everything here — the spans (Trace is part of the
// reuse key), the evaluator's scratch, the tree and its workers — is then
// recycled in place by later calls with the same opts.
func (p *Prepared) open(st *ExecState, opts ExecOptions) error {
	*st = ExecState{ctl: execCtl{ctx: st.ctl.ctx, workers: opts.Parallelism}}
	if opts.Trace {
		st.ctl.rec = trace.NewRecorder()
	}
	rd := p.prunes
	switch {
	case opts.Regime == PathRegen:
		rd = nil
	case rd == nil:
		rd = buildPruneCache(p.db, p.plan)
	}
	st.ctl.prunes = rd
	path := PathRegen
	switch {
	case rd == nil:
	case rd.answer != nil && opts.Regime == "":
		path, st.ctl.answer = PathSummary, rd.answer
	case rd.pruned():
		path = PathPruned
	}
	builds := &buildCache{base: p.builds}
	if opts.Regime == PathRegen && p.prunes != nil && len(p.prunes.scans) > 0 {
		// The cached build sides were drained over pruned scans; full
		// regeneration drains them live.
		builds.base = nil
	}
	if opts.Parallelism >= 2 {
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
	st.it, st.b = it, batch.NewCol(width, opts.BatchSize, pop)
	st.res = ExecResult{Root: node, Trace: node.sp, Path: path}
	st.opts, st.valid = opts, true
	return nil
}
