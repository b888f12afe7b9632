package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// carries the same declarations; TestNamesMatchBenchmarkJSON holds the
// two lists together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the base median it may worsen by
}

// endToEnd are the figures a user of the system sees. Every workload
// prints every one of them; none can read 0. The four timings carry the
// widest bound there is because the reference box has a slow state (a
// neighbour in the shared cache: +30% on memory-bound work, for a minute at
// a time) that no estimator inside a 20 s run can see past; ten runs of one
// commit spread by up to 0.25 when a third of them land in it. README.md
// has the measured spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"heap_mb", "MiB", "lower", 0.10},
	{"ok_share", "share", "higher", 0.001},
	{"exact_share", "share", "higher", 0.005},
	{"within10_share", "share", "higher", 0.005},
	{"summary_bytes", "bytes", "lower", 0.02},
}

// perLayer is the ledger of single layers, named after the repository's
// packages. A layer a workload's ops never enter reads 0 there.
var perLayer = []metricDef{
	{"core.capture_ms", "ms", "lower", 0},
	{"core.package_codec_ms", "ms", "lower", 0},
	{"core.package_bytes", "bytes", "lower", 0},
	{"preprocess.extract_ms", "ms", "lower", 0},
	{"preprocess.constraints", "count", "lower", 0},
	{"region.partition_ms", "ms", "lower", 0},
	{"region.regions", "count", "lower", 0},
	{"lp.solve_ms", "ms", "lower", 0},
	{"lp.vars", "count", "lower", 0},
	{"lp.pivots", "count", "lower", 0},
	{"summary.build_ms", "ms", "lower", 0},
	{"summary.align_ms", "ms", "lower", 0},
	{"summary.other_ms", "ms", "lower", 0},
	{"summary.rows", "count", "lower", 0},
	{"summary.codec_ms", "ms", "lower", 0},
	{"verify.verify_ms", "ms", "lower", 0},
	{"verify.edges", "count", "higher", 0},

	{"sqlkit.parse_us", "us", "lower", 0},
	{"engine.plan_us", "us", "lower", 0},
	{"engine.prepare_us", "us", "lower", 0},
	{"engine.execute_us", "us", "lower", 0},
	{"engine.summary_path_share", "share", "higher", 0},
	{"engine.rows_generated", "count", "lower", 0},
	{"engine.rows_pruned", "count", "higher", 0},
	{"engine.summary_rows_skipped", "count", "higher", 0},
	{"engine.prune_ratio", "share", "higher", 0},
	{"engine.scan_self_share", "share", "lower", 0},
	{"engine.filter_self_share", "share", "lower", 0},
	{"engine.join_self_share", "share", "lower", 0},
	{"engine.agg_self_share", "share", "lower", 0},
	{"engine.sort_self_share", "share", "lower", 0},
	{"engine.q_R1_ms", "ms", "lower", 0},
	{"engine.q_R2_ms", "ms", "lower", 0},
	{"engine.q_R3_ms", "ms", "lower", 0},
	{"engine.q_R4_ms", "ms", "lower", 0},
	{"engine.q_R5_ms", "ms", "lower", 0},
	{"engine.q_S1_us", "us", "lower", 0},
	{"engine.q_S2_us", "us", "lower", 0},
	{"engine.q_S3_us", "us", "lower", 0},
	{"engine.q_S4_us", "us", "lower", 0},
	{"engine.q_S5_us", "us", "lower", 0},
	{"engine.q_S6_us", "us", "lower", 0},
	{"engine.steady_us", "us", "lower", 0},
	{"engine.steady_allocs", "count", "lower", 0},
	{"engine.trace_overhead_share", "share", "lower", 0},
	{"generator.batch_rows_per_s", "1/s", "higher", 0},
	{"generator.colbatch_rows_per_s", "1/s", "higher", 0},
	{"parallel.speedup", "x", "higher", 0},
	{"parallel.cpu_ratio", "x", "lower", 0},

	{"serve.handler_us", "us", "lower", 0},
	{"serve.transport_us", "us", "lower", 0},
	{"serve.engine_us", "us", "lower", 0},
	{"serve.overhead_us", "us", "lower", 0},
	{"serve.request_bytes", "bytes", "lower", 0},
	{"serve.response_bytes", "bytes", "lower", 0},
	{"serve.cache_hit_share", "share", "higher", 0},
	{"serve.cache_evictions", "count", "lower", 0},
	{"serve.summary_path_share", "share", "higher", 0},
	{"serve.shed", "count", "lower", 0},

	{"e2e.op_p99_ms", "ms", "lower", 0},
	{"e2e.op_p50_spread", "share", "lower", 0},
	{"e2e.gc_cycles", "count", "lower", 0},
	{"e2e.box_factor", "x", "lower", 0},
}

var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// metric is one printed figure. Value is the run's figure (for a timing,
// the quietest slice's; for a count, the median over slices); N the
// samples behind it; Spread the interquartile range over those samples as
// a share of their median. A results file that
// several runs were added to also keeps each run's Value in Runs, and
// Value and Spread then describe the runs (see mergeInto).
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Spread float64   `json:"spread"`
	Runs   []float64 `json:"runs,omitempty"`
}

// ledger is one workload's metrics by name.
type ledger map[string]metric

// set records a metric. An undeclared name is a bug in the benchmark, not
// an outcome of a run, hence the panic.
func (l ledger) set(name string, value float64, n int, spread float64) {
	unit, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("hydrabench: metric %q is not declared in metrics.go", name))
	}
	l[name] = metric{Value: value, Unit: unit, N: n, Spread: spread}
}

// setSamples records the median of samples with their spread.
func (l ledger) setSamples(name string, samples []float64) {
	l.set(name, median(samples), len(samples), spread(samples))
}

// fillIdle gives every declared per-layer metric the workload did not
// touch the value 0: the layer did no work on this workload.
func (l ledger) fillIdle() {
	for _, d := range perLayer {
		if _, ok := l[d.name]; !ok {
			l.set(d.name, 0, 0, 0)
		}
	}
}

// missing lists the declared metrics of defs absent from l.
func (l ledger) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := l[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}

// results is what one invocation measured: workload → metric → figure.
type results map[string]ledger
