// Package trace is the engine's query-level tracing substrate: a span
// recorder built for an executor whose steady state allocates nothing.
//
// A Span mirrors one operator of an executed plan and accumulates the
// operator's observed batches: wall time inside its Next calls (inclusive
// of nested children, like any call stack), output rows, batch count, and
// bytes materialized into output batches. Spans are allocated with the
// operator tree, one per operator at open, and the hot path only ever
// writes fields of already-allocated spans. An operator that is run again
// (a reused execution state) clears its own span with Span.Reset, and the
// Recorder's Reset only re-bases the epoch; Observe and both resets perform
// no allocation, so a traced steady-state execution (Prepared.ExecuteIn
// with Trace on) stays at zero allocations per query once the tree is
// open. With tracing off no Recorder exists at all and the engine's 0
// allocs/op contract is untouched.
//
// Time accounting is inclusive: a parent's duration covers the child Next
// calls it makes. Self time is therefore derived, not stored:
// SelfNS = DurNS − Σ(nested children DurNS). Hash-join build sides are the
// exception — they drain at operator-open time, outside the parent's Next
// window — and are marked Detached so self-time math excludes them; the
// drain wall clock is reported separately as the join's BuildNS. A
// positional build side drains nothing: its span stays empty (0 rows, no
// BuildNS), detached all the same, and its lookups are the join's own time.
package trace

import (
	"sort"
	"time"
)

// Span is the per-operator trace record. Counter fields are written by one
// goroutine at a time (the sequential tree shares one goroutine; each
// parallel worker owns private spans merged afterwards in worker order).
type Span struct {
	// Op is the operator name (the engine's OpKind spelling); Detail is the
	// operator's distinguishing argument — table name, predicate SQL, or
	// join SQL — when it has one.
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`

	// StartNS/StopNS bound the operator's observed activity window,
	// relative to the recorder's epoch (the execution start): StartNS is
	// when the first Next entered, StopNS when the last one returned.
	StartNS int64 `json:"start_ns"`
	StopNS  int64 `json:"stop_ns"`

	// DurNS is cumulative wall time spent inside the operator's Next calls,
	// inclusive of nested children. BuildNS is hash-join build-drain wall
	// time (spent at open, outside any Next window).
	DurNS   int64 `json:"dur_ns"`
	BuildNS int64 `json:"build_ns,omitempty"`

	// Rows, Batches, Bytes: output rows produced, batches produced, and
	// bytes materialized into output batches (populated columns × 8).
	Rows    int64 `json:"rows"`
	Batches int64 `json:"batches"`
	Bytes   int64 `json:"bytes"`

	// Detached marks a child whose time was not spent inside the parent's
	// Next window (hash-join build sides, live or a Prepared's); self-time
	// derivation skips it.
	Detached bool `json:"detached,omitempty"`

	Children []*Span `json:"children,omitempty"`

	rec     *Recorder
	cur     int64 // Begin's entry timestamp, consumed by the next Observe
	started bool
}

// Recorder is one execution tree's time epoch: the zero point of every
// span's StartNS/StopNS.
type Recorder struct {
	epoch time.Time
}

// NewRecorder returns a recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// NewSpan allocates a span on the recorder's clock. Open-time only: the
// hot path allocates nothing.
func (r *Recorder) NewSpan(op, detail string) *Span {
	return &Span{Op: op, Detail: detail, rec: r}
}

// Reset restarts the epoch for the next execution of the same tree; each
// operator clears its own span (Span.Reset).
func (r *Recorder) Reset() { r.epoch = time.Now() }

// Reset zeroes the span's counters and window for another execution of its
// operator, keeping its identity (Op, Detail, Children, Detached). No
// allocation.
func (sp *Span) Reset() {
	sp.StartNS, sp.StopNS = 0, 0
	sp.DurNS, sp.BuildNS = 0, 0
	sp.Rows, sp.Batches, sp.Bytes = 0, 0, 0
	sp.cur = 0
	sp.started = false
}

// clock is the hot-path timestamp: nanoseconds since the recorder's epoch,
// read off the monotonic clock. time.Since on a monotonic base is
// measurably cheaper than time.Now (it skips the wall-clock read), and the
// traced path takes two of these per operator Next — entry and exit — so
// the difference is the bulk of tracing's overhead.
func (r *Recorder) clock() int64 { return int64(time.Since(r.epoch)) }

// Begin stamps the operator's Next entry; the matching Observe or
// ObserveEmpty closes the interval. One Begin is consumed per observation.
func (sp *Span) Begin() { sp.cur = sp.rec.clock() }

// Observe records one produced batch: the Next call's wall time (entered at
// Begin, returning now), its output rows, and the bytes it materialized.
func (sp *Span) Observe(rows, bytes int64) {
	sp.note(sp.rec.clock())
	sp.Rows += rows
	sp.Batches++
	sp.Bytes += bytes
}

// ObserveEmpty records an exhausted Next call (no batch produced): wall
// time only, closing the activity window.
func (sp *Span) ObserveEmpty() {
	sp.note(sp.rec.clock())
}

func (sp *Span) note(end int64) {
	if !sp.started {
		sp.StartNS = sp.cur
		sp.started = true
	}
	if end > sp.StopNS {
		sp.StopNS = end
	}
	sp.DurNS += end - sp.cur
}

// Merge folds another span's counters into sp — the parallel executor's
// worker-order merge. Durations and counts sum (a merged DurNS is total
// worker time, not wall clock); the activity window widens to cover both.
func (sp *Span) Merge(o *Span) {
	if o == nil {
		return
	}
	if o.started {
		if !sp.started || o.StartNS < sp.StartNS {
			sp.StartNS = o.StartNS
		}
		if o.StopNS > sp.StopNS {
			sp.StopNS = o.StopNS
		}
		sp.started = true
	}
	sp.DurNS += o.DurNS
	sp.BuildNS += o.BuildNS
	sp.Rows += o.Rows
	sp.Batches += o.Batches
	sp.Bytes += o.Bytes
}

// SelfNS is the span's own time: inclusive duration minus the time nested
// (non-detached) children spent inside it, clamped at zero against clock
// granularity.
func (sp *Span) SelfNS() int64 {
	self := sp.DurNS
	for _, ch := range sp.Children {
		if !ch.Detached {
			self -= ch.DurNS
		}
	}
	if self < 0 {
		self = 0
	}
	return self
}

// Walk visits the tree rooted at sp in preorder.
func Walk(sp *Span, fn func(*Span)) {
	if sp == nil {
		return
	}
	fn(sp)
	for _, ch := range sp.Children {
		Walk(ch, fn)
	}
}

// TopSelf returns the k spans of the tree with the largest self time,
// descending (ties broken by preorder position, so the result is
// deterministic).
func TopSelf(root *Span, k int) []*Span {
	var all []*Span
	Walk(root, func(sp *Span) { all = append(all, sp) })
	sort.SliceStable(all, func(i, j int) bool { return all[i].SelfNS() > all[j].SelfNS() })
	if len(all) > k {
		all = all[:k]
	}
	return all
}
