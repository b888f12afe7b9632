package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
)

// Request outcomes, the label space of the /metricsz counters and latency
// histograms. Exactly one outcome is recorded per POST /query request.
const (
	outcomeOK         = "ok"          // 200
	outcomeBadRequest = "bad_request" // 4xx before execution
	outcomeError      = "error"       // 500 (build or execution fault)
	outcomeTimeout    = "timeout"     // 504: the query's deadline expired
	outcomeCanceled   = "canceled"    // 499: caller went away or drain canceled it
	outcomeShed       = "shed"        // 429: admission refused (queue full or wait expired)
	outcomeDraining   = "draining"    // 503: server is shutting down
)

// allOutcomes fixes the exposition order so scrapes are diffable.
var allOutcomes = []string{
	outcomeOK, outcomeBadRequest, outcomeError,
	outcomeTimeout, outcomeCanceled, outcomeShed, outcomeDraining,
}

// Shed reasons, the label space of hydra_shed_total.
const (
	shedQueueFull    = "queue_full"
	shedQueueTimeout = "queue_timeout"
	shedDraining     = "draining"
)

var allShedReasons = []string{shedQueueFull, shedQueueTimeout, shedDraining}

// latencyBuckets are the request-latency histogram upper bounds in seconds:
// 100µs to 10s in a 1-2.5-5 ladder, wide enough to hold both a shed 429
// (microseconds) and a paced regeneration query (seconds). The +Inf bucket
// is implicit.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// opSelfBuckets bound the per-operator self-time histograms: operator self
// time on a cached dataless query is micro- to milliseconds, so the ladder
// starts three decades lower than the request buckets.
var opSelfBuckets = []float64{
	0.000001, 0.0000025, 0.000005,
	0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1,
}

// operatorNames is the fixed label space of the per-operator self-time
// histograms — the engine's OpKind spellings. Fixed so the exposition
// schema is stable from the first scrape.
var operatorNames = []string{
	"SCAN", "FILTER", "HASH JOIN", "AGGREGATE",
	"GROUP AGG", "DISTINCT", "SORT", "LIMIT",
	"SUMMARY AGG",
}

// histogram is a fixed-bucket duration histogram safe for concurrent
// observation. Bucket counts are stored per-bucket and accumulated into
// the cumulative Prometheus form at scrape time.
type histogram struct {
	bounds  []float64 // upper bounds in seconds, ascending
	buckets []atomic.Int64
	sumNS   atomic.Int64
	count   atomic.Int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, sec)
	h.buckets[i].Add(1)
	h.sumNS.Add(d.Nanoseconds())
	h.count.Add(1)
}

// metrics is the server's observability state: an in-flight gauge, the
// admission queue gauge (read from the admission controller), per-outcome
// request counters and latency histograms, shed-reason counters,
// per-operator self-time histograms, and engine-level counters.
type metrics struct {
	inFlight atomic.Int64
	requests map[string]*outcomeSeries // key: outcome label, fixed at construction
	shed     map[string]*atomic.Int64  // key: shed reason
	ops      map[string]*histogram     // key: operator name, fixed at construction

	// Engine counters. rowsGenerated sums scan output cardinalities (always
	// available from the ExecNode tree); batches and operator self times
	// come from the span tree, so they advance only for traced queries.
	rowsGenerated atomic.Int64
	resultRows    atomic.Int64
	batches       atomic.Int64
	cacheBuildNS  atomic.Int64
	// summaryAggQueries counts queries answered in the "summary" regime
	// (ExecResult.Path names one of summary | pruned | regen).
	summaryAggQueries atomic.Int64
	// rowsPruned and summaryRowsSkipped sum the scan nodes' prune
	// accounting: tuples proven non-matching at plan time and never
	// generated, and whole summary rows excluded outright.
	rowsPruned         atomic.Int64
	summaryRowsSkipped atomic.Int64
}

type outcomeSeries struct {
	count   atomic.Int64
	latency *histogram
}

func newMetrics() *metrics {
	m := &metrics{
		requests: make(map[string]*outcomeSeries, len(allOutcomes)),
		shed:     make(map[string]*atomic.Int64, len(allShedReasons)),
		ops:      make(map[string]*histogram, len(operatorNames)),
	}
	for _, o := range allOutcomes {
		m.requests[o] = &outcomeSeries{latency: newHistogram(latencyBuckets)}
	}
	for _, r := range allShedReasons {
		m.shed[r] = &atomic.Int64{}
	}
	for _, op := range operatorNames {
		m.ops[op] = newHistogram(opSelfBuckets)
	}
	return m
}

// record counts one finished request under its outcome.
func (m *metrics) record(outcome string, d time.Duration) {
	s := m.requests[outcome]
	s.count.Add(1)
	s.latency.observe(d)
}

// recordShed additionally attributes a shed (or drain-refused) request to
// its reason.
func (m *metrics) recordShed(reason string) { m.shed[reason].Add(1) }

// observeQuery folds one successful execution into the engine counters:
// rows regenerated by scans, rows pruned away before generation, and result
// cardinality always; per-operator self-time observations and batch counts
// when the query carried a span tree. It returns the query's total pruned
// rows so the caller can surface them in its stats ring.
func (m *metrics) observeQuery(res *engine.ExecResult, elapsed time.Duration) (pruned int64) {
	m.resultRows.Add(res.Rows)
	if res.Path == engine.PathSummary {
		m.summaryAggQueries.Add(1)
	}
	var scanRows, skipped int64
	var walk func(n *engine.ExecNode)
	walk = func(n *engine.ExecNode) {
		if n.Op == "SCAN" {
			scanRows += n.OutRows
			pruned += n.RowsPruned
			skipped += n.SummaryRowsSkipped
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(res.Root)
	m.rowsGenerated.Add(scanRows)
	m.rowsPruned.Add(pruned)
	m.summaryRowsSkipped.Add(skipped)
	if res.Trace == nil {
		return pruned
	}
	trace.Walk(res.Trace, func(sp *trace.Span) {
		m.batches.Add(sp.Batches)
		if h, ok := m.ops[sp.Op]; ok {
			h.observe(time.Duration(sp.SelfNS()))
		}
	})
	return pruned
}

// buildInfo resolves the binary's identity labels once: module version,
// VCS revision, and the Go toolchain that built it.
var buildInfo = sync.OnceValue(func() (info struct {
	version, revision, goVersion string
}) {
	info.version, info.revision, info.goVersion = "unknown", "unknown", runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.Main.Version != "" {
		info.version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		info.goVersion = bi.GoVersion
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			info.revision = kv.Value
		}
	}
	return info
})

// writeHistogram emits one histogram in the cumulative Prometheus form.
// labels is the rendered label pair ("outcome=\"ok\"") the le label is
// appended to, empty for an unlabeled series.
func writeHistogram(b *bytes.Buffer, name, labels string, h *histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, le := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatLE(le), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %g\n", name, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(b, "%s_count %d\n", name, h.count.Load())
		return
	}
	fmt.Fprintf(b, "%s_sum{%s} %g\n", name, labels, float64(h.sumNS.Load())/1e9)
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, h.count.Load())
}

// handleMetrics serves GET /metricsz in the Prometheus text exposition
// format (version 0.0.4), hand-rolled — the repository takes no
// dependencies. Series with zero observations are still exposed so
// dashboards see a stable schema.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	var b bytes.Buffer

	fmt.Fprintf(&b, "# HELP hydra_inflight_queries Queries currently executing.\n")
	fmt.Fprintf(&b, "# TYPE hydra_inflight_queries gauge\n")
	fmt.Fprintf(&b, "hydra_inflight_queries %d\n", s.met.inFlight.Load())

	fmt.Fprintf(&b, "# HELP hydra_queued_queries Queries waiting for an admission slot.\n")
	fmt.Fprintf(&b, "# TYPE hydra_queued_queries gauge\n")
	fmt.Fprintf(&b, "hydra_queued_queries %d\n", s.adm.queued.Load())

	fmt.Fprintf(&b, "# HELP hydra_requests_total POST /query requests by outcome.\n")
	fmt.Fprintf(&b, "# TYPE hydra_requests_total counter\n")
	for _, o := range allOutcomes {
		fmt.Fprintf(&b, "hydra_requests_total{outcome=%q} %d\n", o, s.met.requests[o].count.Load())
	}

	fmt.Fprintf(&b, "# HELP hydra_shed_total Requests refused by admission control, by reason.\n")
	fmt.Fprintf(&b, "# TYPE hydra_shed_total counter\n")
	for _, reason := range allShedReasons {
		fmt.Fprintf(&b, "hydra_shed_total{reason=%q} %d\n", reason, s.met.shed[reason].Load())
	}

	fmt.Fprintf(&b, "# HELP hydra_request_duration_seconds Request latency by outcome.\n")
	fmt.Fprintf(&b, "# TYPE hydra_request_duration_seconds histogram\n")
	for _, o := range allOutcomes {
		writeHistogram(&b, "hydra_request_duration_seconds", fmt.Sprintf("outcome=%q", o), s.met.requests[o].latency)
	}

	fmt.Fprintf(&b, "# HELP hydra_operator_self_seconds Per-query operator self time by operator, from traced executions.\n")
	fmt.Fprintf(&b, "# TYPE hydra_operator_self_seconds histogram\n")
	for _, op := range operatorNames {
		writeHistogram(&b, "hydra_operator_self_seconds", fmt.Sprintf("op=%q", op), s.met.ops[op])
	}

	fmt.Fprintf(&b, "# HELP hydra_engine_rows_generated_total Rows regenerated by dataless scans across all queries.\n")
	fmt.Fprintf(&b, "# TYPE hydra_engine_rows_generated_total counter\n")
	fmt.Fprintf(&b, "hydra_engine_rows_generated_total %d\n", s.met.rowsGenerated.Load())

	fmt.Fprintf(&b, "# HELP hydra_engine_result_rows_total Rows returned to clients across all queries.\n")
	fmt.Fprintf(&b, "# TYPE hydra_engine_result_rows_total counter\n")
	fmt.Fprintf(&b, "hydra_engine_result_rows_total %d\n", s.met.resultRows.Load())

	fmt.Fprintf(&b, "# HELP hydra_engine_batches_total Operator output batches observed by traced executions.\n")
	fmt.Fprintf(&b, "# TYPE hydra_engine_batches_total counter\n")
	fmt.Fprintf(&b, "hydra_engine_batches_total %d\n", s.met.batches.Load())

	fmt.Fprintf(&b, "# HELP hydra_summaryagg_queries_total Queries answered by the summary-direct aggregate fast path (no tuple regeneration).\n")
	fmt.Fprintf(&b, "# TYPE hydra_summaryagg_queries_total counter\n")
	fmt.Fprintf(&b, "hydra_summaryagg_queries_total %d\n", s.met.summaryAggQueries.Load())

	fmt.Fprintf(&b, "# HELP hydra_rows_pruned_total Tuples proven non-matching at plan time and never generated (scan pruning).\n")
	fmt.Fprintf(&b, "# TYPE hydra_rows_pruned_total counter\n")
	fmt.Fprintf(&b, "hydra_rows_pruned_total %d\n", s.met.rowsPruned.Load())

	fmt.Fprintf(&b, "# HELP hydra_summary_rows_skipped_total Whole summary rows excluded by scan pruning before any position work.\n")
	fmt.Fprintf(&b, "# TYPE hydra_summary_rows_skipped_total counter\n")
	fmt.Fprintf(&b, "hydra_summary_rows_skipped_total %d\n", s.met.summaryRowsSkipped.Load())

	fmt.Fprintf(&b, "# HELP hydra_plan_cache_build_seconds_total Wall time spent parsing, planning, and building (cache misses).\n")
	fmt.Fprintf(&b, "# TYPE hydra_plan_cache_build_seconds_total counter\n")
	fmt.Fprintf(&b, "hydra_plan_cache_build_seconds_total %g\n", float64(s.met.cacheBuildNS.Load())/1e9)

	fmt.Fprintf(&b, "# HELP hydra_cache_bytes Bytes of the build sides live in the shared layer the cached plans hold, each counted once.\n")
	fmt.Fprintf(&b, "# TYPE hydra_cache_bytes gauge\n")
	fmt.Fprintf(&b, "hydra_cache_bytes %d\n", s.db.SharedBuildBytes())

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(&b, "# HELP hydra_goroutines Goroutines currently live in the process.\n")
	fmt.Fprintf(&b, "# TYPE hydra_goroutines gauge\n")
	fmt.Fprintf(&b, "hydra_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(&b, "# HELP hydra_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n")
	fmt.Fprintf(&b, "# TYPE hydra_gc_pause_seconds_total counter\n")
	fmt.Fprintf(&b, "hydra_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(&b, "# HELP hydra_heap_inuse_bytes Bytes in in-use heap spans.\n")
	fmt.Fprintf(&b, "# TYPE hydra_heap_inuse_bytes gauge\n")
	fmt.Fprintf(&b, "hydra_heap_inuse_bytes %d\n", ms.HeapInuse)

	bi := buildInfo()
	fmt.Fprintf(&b, "# HELP hydra_build_info Build identity of the serving binary; value is always 1.\n")
	fmt.Fprintf(&b, "# TYPE hydra_build_info gauge\n")
	fmt.Fprintf(&b, "hydra_build_info{version=%q,revision=%q,go_version=%q} 1\n", bi.version, bi.revision, bi.goVersion)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write(b.Bytes()); err != nil {
		s.logf("serve: writing /metricsz response: %v", err)
	}
}

// formatLE renders a bucket bound the way Prometheus clients expect
// (shortest decimal form; sub-microsecond bounds fall into %g's exponent
// notation, which the exposition format accepts).
func formatLE(v float64) string { return fmt.Sprintf("%g", v) }
