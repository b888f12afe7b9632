package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/trace"
)

// ExecNode mirrors one plan operator after execution, carrying the observed
// output cardinality. ExecNode trees are the raw material for annotated
// query plans. When the execution is traced, each node also carries its
// span — same tree, timing view — reachable from ExecResult.Trace.
type ExecNode struct {
	Op      string `json:"op"`
	Table   string `json:"table,omitempty"`
	PredSQL string `json:"pred,omitempty"`
	JoinSQL string `json:"join,omitempty"`
	// OutRows is the operator's observed output cardinality. Under scan
	// pruning (prune.go) the invariant is: a SCAN reports the rows it
	// actually generated — the pruned row-space, a pure function of the
	// summary and the predicate, so the number is identical on every
	// entry point and across prepared re-executions — and a residual
	// FILTER reports its survivors. A fully absorbed filter disappears
	// from the tree; the scan's OutRows then equals what the filter's
	// output was unpruned, which is what keeps the execution-mode
	// invariance the parity suites pin.
	OutRows int64 `json:"out_rows"`
	// RowsPruned and SummaryRowsSkipped are set on SCAN nodes whose
	// row-space was pruned: tuples proven non-matching and never
	// generated, and whole summary rows excluded outright.
	RowsPruned         int64 `json:"rows_pruned,omitempty"`
	SummaryRowsSkipped int64 `json:"summary_rows_skipped,omitempty"`
	// Positional marks a join's build-side SCAN that is looked up by
	// primary key in its summary instead of drained (see positionalLeaf):
	// it generates nothing, so its OutRows is 0, and it keeps the pruning
	// counts of the row-space its lookups are confined to.
	Positional bool `json:"positional,omitempty"`
	// Late marks a SORT that runs as a late top-K (see lateSort): it
	// collects only its keys and the columns up to the scanned table's
	// primary key, and reads its other output columns from the summary for
	// the rows it emits. Cols, on that sort's SCAN, names the columns the
	// scan materializes.
	Late     bool        `json:"late,omitempty"`
	Cols     []string    `json:"cols,omitempty"`
	Children []*ExecNode `json:"children,omitempty"`

	sp *trace.Span // span mirror when traced, nil otherwise
}

// ExecResult is the outcome of executing a plan.
type ExecResult struct {
	Root *ExecNode // operator tree with observed cardinalities
	// Rows is the number of rows the root produced (for COUNT(*) queries
	// this is 1; see Count).
	Rows int64
	// Count is the aggregate value for COUNT(*) queries, else 0.
	Count int64
	// Sample holds up to ExecOptions.SampleLimit of the root's output rows.
	Sample [][]int64
	// Trace is the per-operator span tree when the execution ran with
	// ExecOptions.Trace, nil otherwise. It mirrors Root's shape, with wall
	// time, rows, batches, and bytes per operator.
	Trace *trace.Span
	// Path names the regime that answered the query, in the vocabulary
	// ExecOptions.Regime takes: PathSummary when the summary-direct aggregate
	// fast path did, PathPruned when the operator pipeline ran over at least
	// one scan whose row-space was pruned (some SCAN in Root reports
	// RowsPruned > 0), PathRegen when every scan regenerated its whole table
	// (or, a positional build leaf, looked keys up across all of it).
	Path string
}

// The three execution regimes, best first: what ExecResult.Path reports and
// what ExecOptions.Regime caps. Untyped string constants, so they compare
// against a plain string as well as against the fields.
const (
	PathSummary = "summary" // answered from summary-row arithmetic, no tuple generated
	PathPruned  = "pruned"  // operator pipeline over scans that skip provably dead tuples
	PathRegen   = "regen"   // operator pipeline over full regeneration
)

// ExecOptions tune execution.
type ExecOptions struct {
	// SampleLimit caps how many output rows are retained in the result.
	SampleLimit int
	// BatchSize overrides the execution batch capacity in rows (<= 0 means
	// batch.DefaultCap, < 0 is rejected by Normalize). Mainly for tests
	// exercising batch boundaries.
	BatchSize int
	// Parallelism selects morsel-driven parallel execution: 0 (the
	// default) drives the operator tree sequentially, n >= 1 runs the
	// scan→filter→probe pipeline on n workers (see exec_parallel.go) when
	// the plan's leaf scan is partitionable. Normalize clamps it into
	// [0, GOMAXPROCS]; that is its one meaning on every entry point.
	Parallelism int
	// Timeout bounds the execution's wall clock when positive: the
	// context-taking entry points derive a deadline from it (stacked on
	// whatever deadline the caller's context already carries — the
	// earlier one wins) and the query fails with context.DeadlineExceeded
	// at the next batch boundary after it expires. Zero means no
	// engine-imposed deadline; negative is rejected by Normalize. The
	// ctx-free entry points honor it too, so a plain Execute with a Timeout
	// is self-limiting.
	Timeout time.Duration
	// Trace enables per-operator span recording: the result carries a span
	// tree (ExecResult.Trace) mirroring the annotated plan with wall time,
	// rows, batches, and bytes per operator. Off (the default), the engine
	// records nothing and the steady-state zero-allocation contract is
	// byte-for-byte the untraced one; on, recording writes into spans
	// preallocated at open time, so even traced ExecuteIn steady state
	// allocates nothing per query.
	Trace bool
	// Regime is a ceiling on the execution regime. The zero value lets the
	// engine take the best regime it can prove: summary-direct, else pruned
	// scans, else full regeneration. PathPruned rules out the summary-direct
	// answer (the operator pipeline runs, pruning where it can); PathRegen
	// also rules out pruning (every scan iterates [0, Total), every filter
	// runs as a MatchVec operator, and every join drains its build side:
	// none is positional). Lower regimes are byte-identical by
	// construction; the ceiling exists for verification flows comparing
	// full operator trees and for references and benchmarks that measure
	// regeneration. ExecResult.Path reports the regime that ran. Prepare
	// ignores it: it is a per-execution choice.
	Regime string
}

// ErrInvalidOptions tags ExecOptions validation failures; test with
// errors.Is.
var ErrInvalidOptions = errors.New("invalid exec options")

// validate rejects option values that would otherwise silently misbehave.
func (o ExecOptions) validate() error {
	if o.BatchSize < 0 {
		return fmt.Errorf("engine: %w: BatchSize %d is negative", ErrInvalidOptions, o.BatchSize)
	}
	if o.Timeout < 0 {
		return fmt.Errorf("engine: %w: Timeout %v is negative", ErrInvalidOptions, o.Timeout)
	}
	switch o.Regime {
	case "", PathPruned, PathRegen:
	default:
		return fmt.Errorf("engine: %w: Regime %q is not one of \"\", %q, %q", ErrInvalidOptions, o.Regime, PathPruned, PathRegen)
	}
	return nil
}

// Normalize validates the options and clamps Parallelism into
// [0, GOMAXPROCS], returning the normalized copy. A typed error (wrapping
// ErrInvalidOptions) reports values with no sensible interpretation.
func (o ExecOptions) Normalize() (ExecOptions, error) {
	if err := o.validate(); err != nil {
		return o, err
	}
	if o.Parallelism < 0 {
		o.Parallelism = 0
	}
	if max := runtime.GOMAXPROCS(0); o.Parallelism > max {
		o.Parallelism = max
	}
	return o, nil
}

// ExecuteContext runs a plan against the database and returns the annotated
// operator tree. Scans honor each table's datagen setting, so the same call
// serves both stored and dataless execution. It is the ad-hoc entry to the
// engine's one executor (Prepared.run): a Prepared with empty caches and a
// fresh ExecState, so nothing is drained ahead and open reads the
// summaries the plan scans, once. Cancellation (and opts.Timeout,
// stacked onto any deadline ctx already carries) is observed cooperatively
// at batch boundaries, and a stopped query returns context.Canceled or
// context.DeadlineExceeded — identically sequential or parallel, with no
// goroutine left behind.
func ExecuteContext(ctx context.Context, db *Database, plan *Plan, opts ExecOptions) (*ExecResult, error) {
	p := Prepared{db: db, plan: plan, reg: db.reg}
	return p.run(ctx, new(ExecState), opts)
}
