// Command hydrabench is the repository's benchmark: six closed-loop
// workloads over one generated warehouse, ten end-to-end metrics, and a
// per-layer ledger from a traced slice. It measures every layer from
// outside, by timing calls into the program's public functions and
// reading the numbers the program already publishes. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
)

// workloads is the benchmark's workload list; BENCHMARK.json says why each
// one exists. Slice sizes were chosen on a 2-core box so that one slice is
// ≈0.3 s of work (build_pipeline's single op is 0.85 s): many short slices
// give the quietest one a better chance to be quiet. Every workload runs
// under one P but regen_parallel, which is about the second one; README.md
// says why.
var workloads = []workload{
	{name: "build_pipeline", procs: 1, sliceOps: 1, sliceSec: 0.85, prep: prepBuildPipeline},
	{name: "regen_full", procs: 1, sliceOps: 3, sliceSec: 0.25, prep: prepRegenFull},
	{name: "regen_parallel", procs: 2, sliceOps: 3, sliceSec: 0.2, prep: prepRegenParallel},
	{name: "regen_selective", procs: 1, sliceOps: 800, sliceSec: 0.3, prep: prepRegenSelective},
	{name: "serve_hot", procs: 1, sliceOps: 3000, sliceSec: 0.35, prep: prepServeHot},
	{name: "serve_cold", procs: 1, sliceOps: 300, minOps: coldMinOps, sliceSec: 0.4, prep: prepServeCold},
}

func main() {
	fs := flag.NewFlagSet("hydrabench", flag.ExitOnError)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 7, "seed of the traffic: which queries, parameters and windows, in which order")
		seconds  = fs.Float64("seconds", 10, "length of each workload's untraced measurement, counted in slices of nominal length: fixed work, not fixed time")
		trace    = fs.String("trace", "both", "0: end-to-end metrics only; 1: per-layer ledger only; both")
		jsonPath = fs.String("json", "", "add this run to a results file (workload → metric → figure)")
		quick    = fs.Bool("quick", false, "scale factor 1, 40 captured queries, slices a tenth the size: a smoke run, not a measurement")
		outDir   = fs.String("out", "bench/out", "directory the traced runs write trace-<workload>.json to")
		compare  = fs.Bool("compare", false, "compare two results files: -compare base.json new.json")
	)
	fs.Parse(os.Args[1:])
	if *compare {
		if fs.NArg() != 2 {
			fatal(2, "usage: hydrabench -compare base.json new.json")
		}
		worse, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if fs.NArg() != 0 {
		fatal(2, "unexpected argument %q", fs.Arg(0))
	}

	cfg := config{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir}
	switch *trace {
	case "0":
		cfg.untraced = true
	case "1":
		cfg.traced = true
	case "both":
		cfg.untraced, cfg.traced = true, true
	default:
		fatal(2, "-trace %q: want 0, 1 or both", *trace)
	}
	// A run that prints end-to-end metrics is three rounds: setup_s is the
	// median of three set-ups, and the timed slices sample three stretches
	// of the run instead of one.
	cfg.rounds = 1
	if cfg.untraced && !cfg.quick {
		cfg.rounds = 3
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatal(2, "-workload %q: no such workload", *name)
	}

	res, outcomes, err := run(os.Stdout, cfg, selected)
	if err != nil {
		fatal(1, "%v", err)
	}
	if *jsonPath != "" {
		if err := mergeInto(*jsonPath, res); err != nil {
			fatal(1, "%v", err)
		}
	}
	failed := 0
	for _, o := range outcomes {
		failed += o.failed
	}
	// The acceptance driver runs one workload with -trace 0 or 1 and reads
	// the last line of standard output.
	if len(selected) == 1 && *trace != "both" {
		if err := driverLine(os.Stdout, outcomes[0]); err != nil {
			fatal(1, "%v", err)
		}
	}
	if failed > 0 {
		fatal(1, "%d ops failed", failed)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hydrabench: "+format+"\n", args...)
	os.Exit(code)
}

// run measures the selected workloads in cfg.rounds rounds. A round sets
// the warehouse up afresh and gives every workload its share of its slices,
// so a run's slices are spread over its whole length: on a box
// whose speed drifts by the minute, three short stretches find a quiet
// moment more often than one long one. The last round adds the traced
// slices and prints each workload's metrics.
func run(w io.Writer, cfg config, selected []workload) (results, []*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the set-up's; each workload sets its own
	runs := make([]*workloadRun, len(selected))
	for i, wl := range selected {
		runs[i] = newWorkloadRun(wl)
	}
	var want []metricDef // what every workload must have measured by the end
	if cfg.untraced {
		want = append(want, endToEnd...)
	}
	if cfg.traced {
		want = append(want, perLayer...)
	}
	res := results{}
	var outcomes []*outcome
	var setupS []float64
	ref, err := newReference()
	if err != nil {
		return nil, nil, err
	}
	defer ref.close()
	for round := 1; round <= cfg.rounds; round++ {
		last := round == cfg.rounds
		e, err := setUp(cfg, last)
		if err != nil {
			return nil, nil, err
		}
		e.ref = ref
		setupS = append(setupS, e.setupS...)
		e.setupS = setupS
		for _, wr := range runs {
			name := wr.w.name
			runtime.GC()
			o, err := wr.round(e, last)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", name, err)
			}
			if !last {
				continue
			}
			if missing := o.ledger.missing(want); len(missing) > 0 {
				return nil, nil, fmt.Errorf("%s: metrics not measured: %s", name, strings.Join(missing, ", "))
			}
			printLedger(w, name, o)
			res[name] = o.ledger
			outcomes = append(outcomes, o)
		}
	}
	return res, outcomes, nil
}

// printLedger prints one workload's metrics by name, with unit, sample
// count and spread, in declaration order. Layers the workload never
// entered (n=0) are left out here; the driver line and -json carry them.
func printLedger(w io.Writer, workload string, o *outcome) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed; box factor %.4f (setup_s, op_p50_ms, ops_per_s and cpu_ms_per_op are corrected by it)\n", workload, o.attempted, o.failed, o.boxFactor)
	for _, d := range slices.Concat(endToEnd, perLayer) {
		m, ok := o.ledger[d.name]
		if !ok || m.N == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-32s %16.4f %-6s n=%-7d spread=%.4f\n", d.name, m.Value, m.Unit, m.N, m.Spread)
	}
}

// driverLine prints the acceptance driver's result object.
func driverLine(w io.Writer, o *outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, map[string]value{}}
	for name, m := range o.ledger {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// mergeInto adds this run's figures to the results file at path, creating
// it if need be. Each metric keeps one value per run added; once there are
// two, Value is their median and Spread their interquartile range as a
// share of it — the run-to-run figures -compare judges a bound by. With a
// single run, Spread is the slice-to-slice spread inside that run.
func mergeInto(path string, res results) error {
	file := results{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return err
	}
	for workload, l := range res {
		if file[workload] == nil {
			file[workload] = ledger{}
		}
		for name, m := range l {
			old := file[workload][name]
			m.Runs = append(old.Runs, m.Value)
			if len(m.Runs) > 1 {
				m.Value, m.Spread = median(m.Runs), spread(m.Runs)
			}
			file[workload][name] = m
		}
	}
	data, err = json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
