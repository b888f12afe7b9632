// Package hydra is the public API of this reproduction of
// "HYDRA: A Dynamic Big Data Regenerator" (Sanghi et al., PVLDB 11(12),
// 2018). It re-exports the pipeline's building blocks and wires them into
// the three flows of the paper's demonstration:
//
//	Capture      — client site: execute the workload, annotate plans,
//	               assemble the transfer package (optionally anonymized).
//	Build        — vendor site: preprocess AQPs, region-partition each
//	               relation, solve the per-relation LPs, and align the
//	               solution into a minuscule database summary.
//	Regen/Verify — runtime: execute queries against dataless tables whose
//	               scans stream from the summary at a regulated velocity,
//	               and measure volumetric similarity.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of the paper's evaluation exhibits.
package hydra

import (
	"context"

	"repro/internal/anonymize"
	"repro/internal/aqp"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/scenario"
	"repro/internal/schema"
	"repro/internal/sqlkit"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Re-exported types. The concrete implementations live in internal
// packages; these aliases are the supported surface.
type (
	// Schema describes tables, columns, and the foreign-key graph.
	Schema = schema.Schema
	// Table is one relation's schema.
	Table = schema.Table
	// Column is one attribute with its coded domain.
	Column = schema.Column

	// Database is the in-memory engine database (stored or dataless). A
	// table has one source: stored rows, a summary it regenerates from
	// (Database.SetSummary), or a datagen function (Database.SetDatagen).
	Database = engine.Database
	// Relation is a stored table.
	Relation = engine.Relation
	// ColProjector is the scan contract: the one thing a scan source is.
	// NextColBatch fills the projected columns of a ColBatch. The
	// generator's Stream, a Pace-d source, stored relations and FromRows
	// all speak it, and a datagen function (Database.SetDatagen) returns
	// one; a table registered with Database.SetSummary needs none, its
	// scans are cut from one Stream over the whole table.
	ColProjector = batch.ColProjector
	// RowSource yields coded rows one at a time. It survives only as the
	// input type of FromRows, for row-at-a-time producers outside this
	// module.
	RowSource = batch.RowSource
	// RowReader reads a ColProjector one row at a time; see Rows.
	RowReader = batch.RowReader

	// ExecOptions tune query execution: sample retention, batch capacity,
	// and morsel-driven parallelism (Parallelism 0 = sequential; n >= 2
	// drains the scan→filter→join pipeline under a COUNT(*), GROUP BY,
	// DISTINCT or ORDER BY on up to n workers, with results byte-identical
	// to sequential execution; one worker drains in place). A deadline is not an option: set it on the
	// context QueryContext takes.
	ExecOptions = engine.ExecOptions
	// ExecResult is an executed query's outcome: rows, COUNT value, sample,
	// and the cardinality-annotated operator tree.
	ExecResult = engine.ExecResult
	// ExecNode is one operator of an executed plan with its observed
	// output cardinality.
	ExecNode = engine.ExecNode
	// TraceSpan is one operator of a traced execution: wall time, self
	// time, rows, batches, and bytes, in a tree mirroring the plan.
	// Executions record spans when ExecOptions.Trace is set — which
	// Query/QueryContext set automatically for EXPLAIN ANALYZE queries —
	// and surface the root via ExecResult.Trace.
	TraceSpan = trace.Span

	// ColBatch is the column-major batch (one vector per populated column
	// plus a selection vector) — the only layout the generator, stored
	// relations and the engine move tuples in.
	ColBatch = batch.ColBatch

	// Prepared is a plan readied for repeated execution: hash-join build
	// sides are drained once into read-only arenas the Prepared owns, so
	// every Execute pays probe cost only. The serve front end caches one per
	// normalized query.
	Prepared = engine.Prepared
	// ExecState is caller-owned reusable state for Prepared.ExecuteIn,
	// the zero-allocation steady-state execution path.
	ExecState = engine.ExecState

	// AQP is a query with its cardinality-annotated plan.
	AQP = aqp.AQP
	// PlanNode is one annotated operator.
	PlanNode = aqp.Node

	// TransferPackage is the client→vendor information synopsis.
	TransferPackage = core.TransferPackage
	// CaptureOptions tunes client-site capture.
	CaptureOptions = core.CaptureOptions

	// Summary is the memory-resident database summary.
	Summary = summary.Database
	// BuildOptions tunes vendor-side summary construction.
	BuildOptions = summary.BuildOptions
	// BuildReport details per-relation LP complexity and accuracy.
	BuildReport = summary.BuildReport

	// Report is a volumetric-similarity verification report.
	Report = verify.Report

	// Scenario describes a what-if environment (§4.4).
	Scenario = scenario.Scenario
	// Feasibility is the outcome of building a what-if scenario.
	Feasibility = scenario.Feasibility

	// Mapping is the private anonymization mapping kept at the client.
	Mapping = anonymize.Mapping
)

// The three execution regimes, best first: what ExecResult.Path reports and
// what ExecOptions.Regime caps (the zero value means the best provable).
const (
	PathSummary = engine.PathSummary // answered from summary-row arithmetic; no tuple generated
	PathPruned  = engine.PathPruned  // operator pipeline over scans that skip provably dead tuples
	PathRegen   = engine.PathRegen   // operator pipeline over full regeneration
)

// DefaultBuildOptions returns the options used by the demo flows.
func DefaultBuildOptions() BuildOptions { return summary.DefaultBuildOptions() }

// Capture executes the workload on the client database and assembles the
// transfer package (schema, statistics, AQPs) — §4.1 of the paper.
func Capture(db *Database, queries []string, opts CaptureOptions) (*TransferPackage, error) {
	return core.CaptureClient(db, queries, opts)
}

// Anonymize passes the package through the client-side anonymization layer:
// string dictionaries become opaque order-preserving tokens and workload
// literals are rewritten equivalently. The returned mapping stays with the
// client.
func Anonymize(pkg *TransferPackage) (*TransferPackage, *Mapping, error) {
	return anonymize.Anonymize(pkg)
}

// Build runs the vendor-site pipeline on a transfer package and returns the
// database summary with a construction report — §4.2.
func Build(pkg *TransferPackage, opts BuildOptions) (*Summary, *BuildReport, error) {
	return core.BuildFromPackage(pkg, opts)
}

// Regen returns a dataless database over the summary: every scan streams
// tuples from the generator, throttled to rowsPerSec when positive — the
// dynamic regeneration of §4.3.
func Regen(sum *Summary, rowsPerSec float64) *Database {
	return core.RegenDatabase(sum, rowsPerSec)
}

// Materialize expands the summary into stored rows (the demo's optional
// materialize mode).
func Materialize(sum *Summary) (*Database, error) {
	return core.MaterializedDatabase(sum)
}

// Verify re-executes the workload against db and compares every operator
// cardinality with its annotation — the generation-quality panel of §4.2.
func Verify(db *Database, workload []*AQP) (*Report, error) {
	return verify.Verify(db, workload)
}

// Query parses, plans, and executes one SQL query against db (stored or
// dataless): SPJ, COUNT(*), or grouped aggregation — SELECT with GROUP BY
// and COUNT/SUM/MIN/MAX/AVG select items (sums are carried exactly in 128
// bits and AVG finalized as the truncated quotient; a SUM/AVG total
// outside int64 is detected and fails the query rather than wrapping,
// identically on every path) — optionally shaped by SELECT DISTINCT,
// ORDER BY col [ASC|DESC], ..., and LIMIT n [OFFSET k]. Group rows are
// returned through ExecResult.Rows/Sample in select-list order, sorted
// ascending by group key; DISTINCT outputs the selected columns, one row
// per distinct tuple, sorted ascending; ORDER BY breaks ties by the
// remaining columns ascending; a LIMIT directly above an ORDER BY runs as
// a bounded top-K sort. All of it identically on every execution path.
// With opts.Parallelism >= 2 the pipeline under a query's aggregate,
// DISTINCT or ORDER BY is morsel-parallel (per-worker partial states merged
// deterministically); a query with none of them runs sequentially. ExecResult.Path names the regime that answered —
// summary, pruned, or regen — and opts.Regime caps it. db is safe for
// concurrent Query calls because every execution opens fresh scan state.
// Query and Prepare are the ctx-free conveniences; the engine package
// itself takes a context everywhere.
func Query(db *Database, sql string, opts ExecOptions) (*ExecResult, error) {
	return QueryContext(context.Background(), db, sql, opts)
}

// QueryContext is Query under a context: execution observes ctx's
// cancellation and deadline cooperatively at batch boundaries on every path — sequential, parallel, and inside hash-join
// build drains — and returns ctx's error (context.Canceled or
// context.DeadlineExceeded) once it stops. Cancellation never leaks a
// goroutine: parallel workers drain cleanly and are always waited for.
func QueryContext(ctx context.Context, db *Database, sql string, opts ExecOptions) (*ExecResult, error) {
	q, err := sqlkit.Parse(sql)
	if err != nil {
		return nil, err
	}
	if q.Explain {
		// EXPLAIN ANALYZE executes the query it prefixes with per-operator
		// tracing; the span tree rides back on ExecResult.Trace (render it
		// with RenderTrace).
		opts.Trace = true
	}
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		return nil, err
	}
	return engine.ExecuteContext(ctx, db, plan, opts)
}

// RenderTrace draws a traced execution's span tree (ExecResult.Trace) as
// the EXPLAIN ANALYZE text plan: one line per operator with wall time, self
// time, rows, batches, and selectivity.
func RenderTrace(sp *TraceSpan) string { return trace.Render(sp) }

// Prepare parses, plans, and readies one SQL query for repeated execution
// against db: hash-join build sides are consumed once into the Prepared's
// read-only arenas, so each Prepared.Execute pays probe cost only —
// identical results to Query, minus the build latency. For single-threaded
// steady-state loops, Prepared.ExecuteIn additionally recycles all
// per-execution state — including the grouped pipeline's hash-aggregation
// state and the sort pipeline's arenas and top-K heap — and runs
// allocation-free.
func Prepare(db *Database, sql string, opts ExecOptions) (*Prepared, error) {
	q, err := sqlkit.Parse(sql)
	if err != nil {
		return nil, err
	}
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		return nil, err
	}
	return engine.Prepare(db, plan, opts)
}

// Stream opens a raw tuple-generation stream for one table of the summary,
// for callers that want tuples rather than query execution. The stream is
// a ColProjector: call NextColBatch with a batch from NewColBatch, or read
// it row by row through Rows.
func Stream(sum *Summary, table string) *generator.Stream {
	return generator.NewStream(sum.Schema.Table(table), sum.Relations[table])
}

// NewColBatch returns an empty column batch of the given row width with
// every column populated (whole rows); capRows <= 0 selects the default
// capacity.
func NewColBatch(width, capRows int) *ColBatch {
	return batch.NewCol(width, capRows, batch.AllCols(width))
}

// Rows reads src one row at a time through b — the one row view over a
// scan source. b's capacity is the read-ahead: over a Pace-d source a
// 1-row batch delivers rows on the requested schedule from the first row,
// a larger one trades schedule granularity for throughput. The returned
// row slice is reused across Next calls.
func Rows(src ColProjector, b *ColBatch) *RowReader { return batch.NewRowReader(src, b) }

// FromRows adapts a row-at-a-time producer to the scan contract, for
// datagen functions supplied from outside this module. A row whose length
// differs from the table's width stops the scan and fails the query.
func FromRows(src RowSource) ColProjector { return batch.FromRows(src) }

// Pace throttles a scan source to rowsPerSec (the demo's velocity slider);
// a non-positive rate returns the source unchanged. The paced source
// forwards the projection and credits each batch it produces against an
// absolute schedule, so the caller's batch capacity is the pacing granule.
func Pace(src ColProjector, rowsPerSec float64) ColProjector {
	if rowsPerSec <= 0 {
		return src
	}
	return generator.NewPaced(src, rowsPerSec)
}
