package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/preprocess"
	"repro/internal/summary"
	"repro/internal/tpcds"
	"repro/internal/verify"
)

// The warehouse every workload runs on is a fixed data set, like the
// TPC-DS instance of the paper: client rows from warehouseSeed and the
// 131-query workload from that plus 4. --seed draws the traffic (which
// shapes, parameters and windows, in which order), never the warehouse:
// the LP's solve time moves by ±20% with any change to the captured
// cardinalities or even to the query order, so a seeded warehouse would
// bury every timing below it in input noise.
const (
	warehouseSeed = 7
	fullQueries   = 131
	quickQueries  = 40 // a build the smoke tests can afford several of
	fullScale     = 10 // ≈520k rows, 500k of them in store_sales
	quickScale    = 1
	factTable     = "store_sales"
	sampleLimit   = 8 // rows of each answer compared with the oracle's
	minWithin10   = 0.9
)

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64 // length of a workload's untraced measurement, in slices of nominal length
	quick    bool    // scale factor 1, 40 queries, slices a tenth the size: smoke only
	untraced bool    // print the end-to-end metrics
	traced   bool    // run the traced slice and print the per-layer ledger
	rounds   int     // a run is this many rounds of set-up, then each workload's share of the budget
	outDir   string
}

func (c config) scale() float64 {
	if c.quick {
		return quickScale
	}
	return fullScale
}

func (c config) queries() []string {
	n := fullQueries
	if c.quick {
		n = quickQueries
	}
	return tpcds.Workload(n, warehouseSeed+4)
}

// sliceOps scales a workload's full slice size to the run's mode.
func (c config) sliceOps(full int) int {
	if !c.quick {
		return full
	}
	return max(full/10, 1)
}

// pipelineOut is what one pass of the paper's pipeline produces.
type pipelineOut struct {
	pkg         *core.TransferPackage
	pkgBytes    int
	constraints int
	sum         *summary.Database
	report      *summary.BuildReport
	regen       *engine.Database
}

// runPipeline is the vendor's path from a client database to a dataless
// one: capture → transfer package over the wire → preprocess → summary
// build → summary over the wire → regenerating database. The shared
// set-up and the build_pipeline op both run it, with a span per stage.
func runPipeline(rec *recorder, op, parent int, client *engine.Database, queries []string) (*pipelineOut, error) {
	out := &pipelineOut{}

	sp := rec.begin("core.capture", op, parent)
	pkg, err := core.CaptureClient(client, queries, core.CaptureOptions{SkipStats: true})
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("core.package_codec", op, parent)
	var wire bytes.Buffer
	if err = pkg.Encode(&wire); err == nil {
		out.pkgBytes = wire.Len()
		out.pkg, err = core.DecodePackage(&wire)
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("preprocess.extract", op, parent)
	w, err := preprocess.Extract(out.pkg.Schema, out.pkg.Workload)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	for _, cs := range w.Constraints {
		out.constraints += len(cs)
	}

	sp = rec.begin("summary.build", op, parent)
	sum, report, err := summary.Build(out.pkg.Schema, w, summary.DefaultBuildOptions())
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	out.report = report

	// The summary travels as JSON, the format `hydra vendor` writes. Its gob
	// form (which BuildReport.SummaryBytes sizes) does not survive the trip:
	// gob drops zero values, so a column fixed at code 0 decodes as an empty
	// spec and fails Validate.
	sp = rec.begin("summary.codec", op, parent)
	wire.Reset()
	if err = sum.EncodeJSON(&wire); err == nil {
		if out.sum, err = summary.DecodeJSON(&wire); err == nil {
			err = out.sum.Validate()
		}
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("core.regen", op, parent)
	out.regen = core.RegenDatabase(out.sum, 0)
	rec.end(sp)
	return out, nil
}

// checkQuality verifies the regenerated database against the captured
// plans and holds it to the paper's floor: an AQP edge off by more than
// 10% is rare. The report's shares are the exact_share and within10_share
// metrics.
func checkQuality(p *pipelineOut) (*verify.Report, error) {
	rep, err := verify.Verify(p.regen, p.pkg.Workload)
	if err != nil {
		return nil, err
	}
	if got := rep.SatisfiedWithin(0.10); got < minWithin10 {
		return nil, fmt.Errorf("only %.4f of the AQP edges regenerate within 10%%, want at least %.2f", got, minWithin10)
	}
	return rep, nil
}

// env is one set-up's product: what every workload of a round starts from.
type env struct {
	cfg     config
	queries []string
	*pipelineOut
	oracle  *engine.Database // the summary expanded into stored rows: the answer oracle
	quality *verify.Report   // set on the run's last round only
	setupS  []float64        // wall time of this run's set-ups so far
	rec     *recorder        // the set-up's stage spans
	ref     *reference       // the run's yardstick for the box
}

// setUp builds the warehouse and times it. The client's rows are dropped as
// soon as they are captured; what stays live is the summary, the dataless
// database over it, and the oracle. The last set-up of a run is verified:
// outside setup_s, because it is the check on the set-up, and the source of
// exact_share and within10_share.
func setUp(cfg config, last bool) (*env, error) {
	e := &env{cfg: cfg, queries: cfg.queries(), rec: newRecorder(16)}
	start := time.Now()
	root := e.rec.begin("setup", -1, -1)

	sp := e.rec.begin("tpcds.generate", -1, root)
	client, err := tpcds.GenerateDatabase(tpcds.Schema(cfg.scale()), warehouseSeed)
	e.rec.end(sp)
	if err != nil {
		return nil, err
	}
	if e.pipelineOut, err = runPipeline(e.rec, -1, root, client, e.queries); err != nil {
		return nil, err
	}
	sp = e.rec.begin("core.materialize", -1, root)
	e.oracle, err = core.MaterializedDatabase(e.sum)
	e.rec.end(sp)
	if err != nil {
		return nil, err
	}
	e.rec.end(root)
	e.setupS = []float64{time.Since(start).Seconds()}

	if last {
		sp := e.rec.begin("verify.verify", -1, -1)
		e.quality, err = checkQuality(e.pipelineOut)
		e.rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return e, nil
}

// takeOracle hands the oracle to the one workload about to run, which
// computes its expected answers and lets it go before timing starts: 40 MB
// of stored rows would otherwise be most of heap_mb. A later workload of
// the same round expands the summary again.
func (e *env) takeOracle() (*engine.Database, error) {
	if o := e.oracle; o != nil {
		e.oracle = nil
		return o, nil
	}
	return core.MaterializedDatabase(e.sum)
}

// pipelineLedger writes the pipeline layers' rows from one or more passes:
// times are medians over the passes (stage spans, and the build's own
// per-relation report), counts are the last pass's.
func pipelineLedger(l ledger, rec *recorder, passes []*pipelineOut, edges int) {
	l.set("verify.edges", float64(edges), 1, 0)
	for metricName, spanName := range map[string]string{
		"verify.verify_ms":      "verify.verify",
		"core.capture_ms":       "core.capture",
		"core.package_codec_ms": "core.package_codec",
		"preprocess.extract_ms": "preprocess.extract",
		"summary.build_ms":      "summary.build",
		"summary.codec_ms":      "summary.codec",
	} {
		var xs []float64
		for _, d := range rec.durations(spanName) {
			xs = append(xs, ms(d))
		}
		l.setSamples(metricName, xs)
	}

	var partition, solve, align, other []float64
	var regions, vars, pivots, rows int
	for _, p := range passes {
		var pt, st, at time.Duration
		regions, vars, pivots, rows = 0, 0, 0, 0
		for _, r := range p.report.Relations {
			pt += r.PartitionTime
			st += r.SolveTime
			at += r.AlignTime
			regions += r.Regions
			vars += r.LPVars
			pivots += r.Pivots
			rows += r.SummaryRows
		}
		partition = append(partition, ms(pt))
		solve = append(solve, ms(st))
		align = append(align, ms(at))
		// What the build spends outside its three reported stages has no
		// owner yet; it is printed so that it cannot hide.
		other = append(other, ms(p.report.TotalTime-pt-st-at))
	}
	l.setSamples("region.partition_ms", partition)
	l.setSamples("lp.solve_ms", solve)
	l.setSamples("summary.align_ms", align)
	l.setSamples("summary.other_ms", other)
	last := passes[len(passes)-1]
	l.set("core.package_bytes", float64(last.pkgBytes), 1, 0)
	l.set("preprocess.constraints", float64(last.constraints), 1, 0)
	l.set("region.regions", float64(regions), 1, 0)
	l.set("lp.vars", float64(vars), 1, 0)
	l.set("lp.pivots", float64(pivots), 1, 0)
	l.set("summary.rows", float64(rows), 1, 0)
}
