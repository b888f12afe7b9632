package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/batch"
	"repro/internal/trace"
)

// Cooperative cancellation. The executor (Prepared.run) takes a context;
// the only ctx-free signatures left in this package, Prepared.Execute and
// Prepared.ExecuteIn, are thin wrappers over context.Background().
// Cancellation is cooperative at batch boundaries: the engine never preempts a kernel mid-batch (a batch is at
// most a few thousand rows, microseconds of work), it checks between
// batches and unwinds.
//
// The checks live in exactly three places, chosen so every unbounded loop
// in the engine passes through at least one of them:
//
//   - colScanIter.Next — the leaf every operator ultimately pulls from.
//     One check per physical batch covers the filter's skip loop, the
//     sink and COUNT(*) drain loops, hash-join build drains, and the join
//     probe's pull loop, because all of them advance only by pulling scan
//     batches.
//   - the root drive loop (runColumnar) — covers the emit phase of
//     blocking sinks, whose output streaming pulls no scan batches.
//   - the morsel worker's loop in a sink's parallel drain — each worker
//     carries its own execCtl (latching is single-goroutine state),
//     re-checked per morsel and, through the worker's scan leaf, per batch.
//
// The state is an execCtl struct threaded through the operator tree as a
// field at open time — never a per-batch closure — so the steady-state
// reuse path (Prepared.ExecuteIn) keeps its zero-allocation contract: the
// ExecState owns one execCtl for its lifetime and rebinding it to the next
// call's context writes two words. Every control is unbound again when its
// execution returns (each morsel worker's when its loop ends, the state's
// when run does), so a state kept between calls holds no context.
//
// The control also opens each operator's meter (meter, exec_col.go): the
// operator's ExecNode and, when traced, its span, allocated here with the
// tree. A rewind clears each operator's own meter; the recorder only
// re-bases its epoch.

// execCtl carries one execution's cancellation state and, when the
// execution is traced (ExecOptions.Trace), its span recorder. It is single-
// goroutine by construction: the sequential tree shares one, each parallel
// worker owns one. A nil ctx never stops (the Prepare-time build drain and
// ctx-free wrappers run uncancellable); a nil rec records nothing — its
// meters carry no span, so the untraced hot path pays a nil check per
// operator Next and allocates nothing, preserving the steady-state
// contract above.
type execCtl struct {
	ctx context.Context
	err error // first observed ctx error, latched for the execution
	rec *trace.Recorder
	// prunes holds the precomputed qualifying row-space of each filtered
	// OpScan plan node (prune.go). A nil cache (the PathRegen ceiling)
	// misses every lookup, so operators need no separate gate.
	prunes *pruneCache
	// answer is the sink the reading answers when the execution takes the
	// summary-direct regime (Prepared.open), nil otherwise: openCol drains
	// it with the summary-row evaluator.
	answer *PlanNode
	// workers is ExecOptions.Parallelism: the morsel workers the innermost
	// sink drains its spine with (openMorsels). Below 2 — and every worker's
	// own control carries 0 — it drains in place.
	workers int
	// store is the ExecState's column storage, which every batch the tree
	// opens draws from (batch.Store): nil on a state's first open, and on
	// the Prepare-time build drain's control, which allocates. Batches are
	// made at open, on one goroutine, so the workers' controls share it.
	store *batch.Store
}

// bind points the control at the next execution's context, clearing any
// error latched by a previous (canceled) execution on the same state.
func (c *execCtl) bind(ctx context.Context) {
	c.ctx = ctx
	c.err = nil
}

// unbind drops the context once the execution returns, so a state kept
// for reuse holds no request's context between calls. A latched error
// stays for the caller to read; the next bind clears it.
func (c *execCtl) unbind() { c.ctx = nil }

// stopped reports whether the execution should halt, latching the context
// error on first observation so every later check agrees without touching
// the context again.
func (c *execCtl) stopped() bool {
	if c.err != nil {
		return true
	}
	if c.ctx == nil {
		return false
	}
	if err := c.ctx.Err(); err != nil {
		c.err = err
		return true
	}
	return false
}

// meter returns the account of the operator node mirrors: its OutRows and,
// when traced, its span (annotate). rowBytes is what the operator
// materializes per output row.
func (c *execCtl) meter(node *ExecNode, rowBytes int64) meter {
	return meter{node: node, sp: c.annotate(node), rowBytes: rowBytes}
}

// annotate mirrors a freshly built ExecNode into a trace span when the
// execution is traced, wiring the children's already-created spans into the
// tree (openCol builds children first, so they are annotated by the time
// the parent node exists). Returns nil when tracing is off; meters store
// the nil and skip recording on it.
func (c *execCtl) annotate(node *ExecNode) *trace.Span {
	if c.rec == nil {
		return nil
	}
	sp := c.rec.NewSpan(node.Op, nodeDetail(node))
	for _, ch := range node.Children {
		if ch.sp != nil {
			sp.Children = append(sp.Children, ch.sp)
		}
	}
	node.sp = sp
	return sp
}

// annotateFrozen mirrors a cloned prepared-build ExecNode subtree into
// spans: cardinalities come from the counts its drain left, no wall time is
// attributed (the drain ran before this execution), and the subtree root is
// detached from the join's self-time math. This keeps the span tree the
// same shape whether a join's build side was drained live or served from
// the build cache. No operator runs these spans, so no rewind clears them.
func (c *execCtl) annotateFrozen(node *ExecNode) *trace.Span {
	if c.rec == nil {
		return nil
	}
	for _, ch := range node.Children {
		c.annotateFrozen(ch)
	}
	sp := c.annotate(node)
	sp.Rows = node.OutRows
	return sp
}

// nodeDetail picks the operator's distinguishing argument for its span. A
// pruned scan reports its prune counts here, so EXPLAIN ANALYZE and the
// span tree surface what generation never materialized. (annotate runs once
// per open, off the hot path, so the formatting cost is irrelevant.)
func nodeDetail(n *ExecNode) string {
	detail := n.Table
	switch {
	case n.PredSQL != "":
		return n.PredSQL
	case n.JoinSQL != "":
		return n.JoinSQL
	case n.RowsPruned > 0 || n.SummaryRowsSkipped > 0:
		detail = fmt.Sprintf("%s [pruned %d rows, skipped %d summary rows]", n.Table, n.RowsPruned, n.SummaryRowsSkipped)
	}
	if n.Positional {
		detail += " [positional]"
	}
	if n.Cols != nil {
		detail += " [cols " + strings.Join(n.Cols, ", ") + "]"
	}
	if n.Late {
		detail = "[late]"
	}
	return detail
}
