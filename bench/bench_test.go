package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestNamesMatchBenchmarkJSON holds the binary's declarations and
// BENCHMARK.json together: workloads, end-to-end metrics with unit,
// direction and bound, and per-layer metrics with unit and direction.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary runs %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the binary %q", i, file.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (bounds && g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the binary %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}

func quickRun(t *testing.T, seed int64) results {
	t.Helper()
	cfg := config{seed: seed, seconds: 0.05, quick: true, untraced: true, traced: true, rounds: 1, outDir: t.TempDir()}
	var out bytes.Buffer
	res, outcomes, err := run(&out, cfg, workloads)
	if err != nil {
		t.Fatalf("quick run: %v\n%s", err, out.String())
	}
	for i, o := range outcomes {
		if o.failed != 0 {
			t.Errorf("%s: %d of %d ops failed", workloads[i].name, o.failed, o.attempted)
		}
	}
	// What is printed is what is declared: run itself refuses a ledger that
	// lacks a declared metric, and ledger.set one that is not declared.
	for _, w := range workloads {
		if !strings.Contains(out.String(), w.name+":") {
			t.Errorf("output has no section for %s", w.name)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("traced run left no spans: %v", err)
		}
	}
	return res
}

// TestQuickRunIsDeterministic runs every workload twice from one seed, in
// smoke size, and holds the count metrics to identical values: fixed work
// per slice means the inputs, row counts and cache behaviour repeat.
func TestQuickRunIsDeterministic(t *testing.T) {
	a, b := quickRun(t, 3), quickRun(t, 3)
	exact := []string{
		"summary_bytes", "exact_share", "within10_share", "ok_share",
		"engine.rows_generated", "engine.rows_pruned", "engine.summary_rows_skipped", "engine.summary_path_share",
		"lp.pivots", "lp.vars", "region.regions", "summary.rows", "preprocess.constraints", "verify.edges",
		"serve.cache_hit_share", "serve.cache_evictions", "serve.request_bytes", "serve.summary_path_share", "serve.shed",
		"engine.steady_allocs",
	}
	for _, w := range workloads {
		la, lb := a[w.name], b[w.name]
		for _, name := range exact {
			if la[name].Value != lb[name].Value {
				t.Errorf("%s %s: %v then %v from one seed", w.name, name, la[name].Value, lb[name].Value)
			}
		}
		// The workloads with more than one goroutine get 3%: which worker
		// takes which morsel, and when net/http refills the buffer pools a
		// collection emptied, is the scheduler's choice, and a smoke-sized
		// slice is too short to average it out.
		tolerance := 0.01
		if strings.HasPrefix(w.name, "serve_") || w.name == "regen_parallel" {
			tolerance = 0.03
		}
		x, y := la["alloc_kb_per_op"].Value, lb["alloc_kb_per_op"].Value
		if math.Abs(x-y) > tolerance*x {
			t.Errorf("%s alloc_kb_per_op: %v then %v, more than %v apart", w.name, x, y, tolerance)
		}
	}
	if v := a["regen_full"]["engine.steady_allocs"].Value; v != 0 {
		t.Errorf("steady-state ExecuteIn allocates %v per execution, want 0", v)
	}
	if v := a["serve_hot"]["serve.cache_hit_share"].Value; v != 1 {
		t.Errorf("serve_hot cache_hit_share = %v, want 1", v)
	}
	if v := a["serve_cold"]["serve.cache_hit_share"].Value; v != 0 {
		t.Errorf("serve_cold cache_hit_share = %v, want 0", v)
	}
}

// TestGuardStopsARegimeChange: a query answered outside its regime must
// end the run, not slow it down quietly.
func TestGuardStopsARegimeChange(t *testing.T) {
	cfg := config{seed: 1, quick: true, rounds: 1}
	e, err := setUp(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := roundShapes(e)
	if err != nil {
		t.Fatal(err)
	}
	shapes[0].regime = regimeSummary // R1 regenerates; claim it must not
	r := newQueryRunner(e.regen, engine.ExecOptions{SampleLimit: sampleLimit}, shapes, roundOps(1))
	if _, err := r.slice(nil, make([]time.Duration, 1)); err == nil || !strings.Contains(err.Error(), "regime guard") {
		t.Fatalf("slice error = %v, want a regime guard", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{10.5, 11.0, 9.8, 10.1, 10.9, 12.0, 9.9, 10.2, 10.4, 10.6, 13.0}, [3]float64{10.1, 10.5, 11.0}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range [3]float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r results) string {
		path := filepath.Join(dir, name)
		if err := mergeInto(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	m := func(v, spread float64) metric { return metric{Value: v, Spread: spread, N: 10} }
	// full is a ledger with every end-to-end metric steady at 100, then over.
	full := func(over ledger) ledger {
		l := ledger{}
		for _, d := range endToEnd {
			l[d.name] = m(100, 0.02)
		}
		for name, v := range over {
			l[name] = v
		}
		return l
	}
	base := write("base.json", results{"regen_full": full(ledger{
		"ops_per_s": m(10, 0.02), "cpu_ms_per_op": m(100, 0.5), "heap_mb": m(100, 0.3),
	})})
	cur := write("new.json", results{"regen_full": full(ledger{
		"op_p50_ms": m(150, 0.02), "ops_per_s": m(10.5, 0.02), "cpu_ms_per_op": m(300, 0.02), "heap_mb": m(120, 0.02),
	})})
	var out bytes.Buffer
	worse, err := compareFiles(&out, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("a 50%% slower op_p50_ms was not reported as worse:\n%s", out.String())
	}
	for metricName, verdict := range map[string]string{
		"op_p50_ms":     "worse",
		"ops_per_s":     "ok",
		"cpu_ms_per_op": "worse",      // 3× on a noisy base: more than bound and spread together
		"heap_mb":       "unresolved", // 1.2× on a base that spreads by 0.3
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+metricName+" ") && strings.HasSuffix(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in:\n%s", metricName, verdict, out.String())
		}
	}
	if worse, err = compareFiles(io.Discard, base, base); err != nil || worse {
		t.Errorf("a file against itself: worse=%v err=%v", worse, err)
	}
	// A set that lost a workload or a metric must not compare clean.
	lostMetric := full(nil)
	delete(lostMetric, "heap_mb")
	for name, r := range map[string]results{
		"lost-metric.json":   {"regen_full": lostMetric},
		"lost-workload.json": {"serve_hot": full(nil)},
	} {
		if _, err := compareFiles(io.Discard, base, write(name, r)); err == nil {
			t.Errorf("%s compared against the base without an error", name)
		}
	}
}

// TestMergeKeepsRuns: a results file that runs are added to reports their
// median and run-to-run spread.
func TestMergeKeepsRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.json")
	for _, v := range []float64{10, 12, 11, 13} {
		if err := mergeInto(path, results{"serve_hot": ledger{"op_p50_ms": metric{Value: v, Unit: "ms", N: 5, Spread: 0.5}}}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	got := r["serve_hot"]["op_p50_ms"]
	if len(got.Runs) != 4 || got.Value != 11.5 || math.Abs(got.Spread-spread([]float64{10, 12, 11, 13})) > 1e-12 {
		t.Errorf("merged metric = %+v", got)
	}
}
