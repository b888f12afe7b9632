package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"runtime/pprof"

	"repro/internal/anonymize"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/generator"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/summary"
	"repro/internal/toy"
	"repro/internal/tpcds"
	"repro/internal/verify"
)

func cmdClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	scen := fs.String("scenario", "tpcds", "client environment: tpcds or toy")
	sf := fs.Float64("sf", 1.0, "warehouse scale factor (tpcds)")
	nq := fs.Int("queries", 131, "workload size (tpcds)")
	seed := fs.Int64("seed", 7, "data/workload seed")
	out := fs.String("out", "pkg.json", "output transfer package")
	anon := fs.Bool("anonymize", false, "pass the package through the anonymization layer")
	mapOut := fs.String("mapping", "mapping.json", "anonymization mapping output (client-private)")
	fs.Parse(args)

	var (
		pkg *core.TransferPackage
		err error
	)
	switch *scen {
	case "toy":
		db, derr := toy.Database(*seed)
		if derr != nil {
			return derr
		}
		pkg, err = core.CaptureClient(db, toy.Workload(), core.CaptureOptions{})
	case "tpcds":
		s := tpcds.Schema(*sf)
		db, derr := tpcds.GenerateDatabase(s, *seed)
		if derr != nil {
			return derr
		}
		pkg, err = core.CaptureClient(db, tpcds.Workload(*nq, *seed+4), core.CaptureOptions{})
	default:
		return fmt.Errorf("unknown scenario %q", *scen)
	}
	if err != nil {
		return err
	}
	if *anon {
		anonPkg, mapping, aerr := anonymize.Anonymize(pkg)
		if aerr != nil {
			return aerr
		}
		pkg = anonPkg
		if err := writeJSON(*mapOut, mapping); err != nil {
			return err
		}
		fmt.Printf("anonymization mapping (keep private): %s\n", *mapOut)
	}
	if err := writePackage(*out, pkg); err != nil {
		return err
	}
	fmt.Printf("captured %d queries over %d tables -> %s\n", len(pkg.Workload), len(pkg.Schema.Tables), *out)
	return nil
}

func cmdVendor(args []string) error {
	fs := flag.NewFlagSet("vendor", flag.ExitOnError)
	in := fs.String("in", "pkg.json", "transfer package")
	out := fs.String("out", "summary.json", "summary output (JSON)")
	grid := fs.Bool("grid", false, "also compute the DataSynth grid-partitioning LP sizes")
	fs.Parse(args)

	pkg, err := readPackage(*in)
	if err != nil {
		return err
	}
	opts := summary.DefaultBuildOptions()
	opts.GridCompare = *grid
	sum, rep, err := core.BuildFromPackage(pkg, opts)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-8s %-10s %-12s %-8s %-10s %-10s %-10s %-10s %-10s\n",
		"relation", "cons", "lp_vars", "grid_vars", "pivots", "resid", "part", "solve", "needs", "align")
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	for _, rr := range rep.Relations {
		gv := "-"
		if *grid {
			gv = fmt.Sprint(rr.GridVars)
		}
		fmt.Printf("%-14s %-8d %-10d %-12s %-8d %-10d %-10v %-10v %-10v %-10v\n",
			rr.Table, rr.Constraints, rr.LPVars, gv, rr.Pivots, rr.SumAbsResidual,
			us(rr.PartitionTime), us(rr.SolveTime), us(rr.NeedsTime), us(rr.AlignTime))
	}
	fmt.Printf("total: %v, summary %d bytes -> %s\n", rep.TotalTime.Round(time.Millisecond), rep.SummaryBytes, *out)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	return sum.EncodeJSON(f)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	in := fs.String("summary", "summary.json", "summary file")
	table := fs.String("table", "", "table to regenerate (required)")
	limit := fs.Int64("limit", 10, "rows to print (0 = all)")
	rate := fs.Float64("rate", 0, "velocity in rows/sec (0 = unlimited)")
	csvOut := fs.String("csv", "", "materialize the whole table to this CSV file")
	fs.Parse(args)

	if *table == "" {
		return fmt.Errorf("-table is required")
	}
	sum, err := readSummary(*in)
	if err != nil {
		return err
	}
	t := sum.Schema.Table(*table)
	rel := sum.Relation(*table)
	if t == nil || rel == nil {
		return fmt.Errorf("table %q not in summary", *table)
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := generator.Materialize(f, t, rel)
		if err != nil {
			return err
		}
		fmt.Printf("materialized %d rows of %s -> %s\n", n, *table, *csvOut)
		return nil
	}

	var names []string
	for _, c := range t.Columns {
		names = append(names, c.Name)
	}
	fmt.Println(strings.Join(names, "\t"))
	// The row reader over a (possibly) paced stream: a 1-row batch makes the
	// schedule row-granular from the first row; unpaced, the default batch
	// is plain read-ahead.
	capRows := 0
	if *rate > 0 {
		capRows = 1
	}
	src := batch.NewRowReader(
		generator.NewPaced(generator.NewStream(t, rel), *rate),
		batch.NewCol(len(t.Columns), capRows, batch.AllCols(len(t.Columns))))
	start := time.Now()
	var n int64
	for {
		row, ok := src.Next()
		if !ok {
			break
		}
		if *limit <= 0 || n < *limit {
			vals := make([]string, len(row))
			for i := range row {
				vals[i] = t.Columns[i].Decode(row[i]).String()
			}
			fmt.Println(strings.Join(vals, "\t"))
		}
		n++
		if *limit > 0 && n >= *limit {
			break
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("-- %d rows in %v (%.0f rows/sec)\n", n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "pkg.json", "transfer package (expected annotations)")
	sumIn := fs.String("summary", "summary.json", "summary file")
	worst := fs.Int("worst", 5, "show the k worst edges")
	rate := fs.Float64("rate", 0, "generation velocity during verification")
	fs.Parse(args)

	pkg, err := readPackage(*in)
	if err != nil {
		return err
	}
	sum, err := readSummary(*sumIn)
	if err != nil {
		return err
	}
	rep, err := verify.Verify(core.RegenDatabase(sum, *rate), pkg.Workload)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-10s\n", "eps", "satisfied")
	for _, p := range rep.CDF(nil) {
		fmt.Printf("%-8.3f %-10.3f\n", p.Eps, p.Fraction)
	}
	max, hasInf := rep.MaxRelErr()
	fmt.Printf("edges=%d mean=%.5f max_finite=%.4f inf=%v\n", len(rep.Edges), rep.MeanRelErr(), max, hasInf)
	if *worst > 0 {
		fmt.Println("worst edges:")
		for _, e := range rep.WorstEdges(*worst) {
			fmt.Printf("  %-60s expected=%d actual=%d rel=%.4f\n", e.Path, e.Expected, e.Actual, e.RelErr)
		}
	}
	return nil
}

func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	in := fs.String("in", "pkg.json", "transfer package")
	factor := fs.Float64("factor", 10, "uniform scale factor for the what-if environment")
	out := fs.String("out", "", "write the scaled package here (optional)")
	fs.Parse(args)

	pkg, err := readPackage(*in)
	if err != nil {
		return err
	}
	sc := &scenario.Scenario{Name: fmt.Sprintf("x%g", *factor), Factor: *factor}
	start := time.Now()
	feas, err := sc.Build(pkg, summary.DefaultBuildOptions())
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s: feasible=%v total_deviation=%d rel=%.3e build=%v summary=%dB\n",
		sc.Name, feas.Feasible, feas.TotalDeviation, feas.RelDeviation,
		time.Since(start).Round(time.Millisecond), feas.Report.SummaryBytes)
	if *out != "" {
		scaled, err := sc.Apply(pkg)
		if err != nil {
			return err
		}
		if err := writePackage(*out, scaled); err != nil {
			return err
		}
		fmt.Printf("scaled package -> %s\n", *out)
	}
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment id (E1..E18, E15 excepted — see EXPERIMENTS.md) or all")
	sf := fs.Float64("sf", 1.0, "warehouse scale factor")
	nq := fs.Int("queries", 131, "workload size")
	seed := fs.Int64("seed", 7, "seed")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the benchmark run to this file")
	fs.Parse(args)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("creating cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := experiments.Config{Seed: *seed, ScaleFactor: *sf, Queries: *nq}
	w := os.Stdout
	run := func(id string, fn func() error) error {
		if *exp != "all" && !strings.EqualFold(*exp, id) {
			return nil
		}
		fmt.Fprintf(w, "\n================ %s ================\n", id)
		return fn()
	}
	steps := []struct {
		id string
		fn func() error
	}{
		{"E1", func() error { return experiments.E1Example(w, *seed) }},
		{"E2", func() error { return experiments.E2RegionVsGrid(w, cfg, []int{10, 25, 50, 100, cfg.Queries}) }},
		{"E3", func() error { return experiments.E3DataScaleFree(w, cfg, []float64{0.25, 0.5, 1, 2, 4}) }},
		{"E4", func() error { _, err := experiments.E4Accuracy(w, cfg); return err }},
		{"E5", func() error { return experiments.E5ErrorVsScale(w, cfg, []float64{1, 2, 5, 10, 20}) }},
		{"E6", func() error { return experiments.E6Velocity(w, cfg, []float64{0, 1000, 10000, 100000}, 500000) }},
		{"E7", func() error { return experiments.E7Datagen(w, cfg) }},
		{"E8", func() error { return experiments.E8Scenario(w, cfg, []float64{10, 100, 1000, 10000}) }},
		{"E9", func() error { return experiments.E9Referential(w, cfg, []float64{1, 0.5, 0.25}) }},
		{"E10", func() error { return experiments.E10Ablation(w, cfg) }},
		{"E11", func() error { return experiments.E11Parallel(w, cfg, []int{1, 2, 4, 8}) }},
		{"E12", func() error { return experiments.E12Projection(w, cfg) }},
		{"E13", func() error { return experiments.E13GroupBy(w, cfg, []int{0, 1, 2, 4, 8}) }},
		{"E14", func() error { return experiments.E14TopK(w, cfg, []int{1000, 100, 10, 1}) }},
		// E15 (overload sweep) runs through the loadtest harness (hydra
		// loadtest), not as a table here.
		{"E16", func() error { return experiments.E16TraceOverhead(w, cfg) }},
		{"E17", func() error { return experiments.E17SummaryAgg(w, cfg, []float64{0.25, 0.5, 1, 2, 4}) }},
		{"E18", func() error { return experiments.E18ScanPrune(w, cfg, []float64{0.001, 0.01, 0.1, 0.5, 1}) }},
	}
	for _, s := range steps {
		if err := run(s.id, s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
	}
	return nil
}

// cmdStats renders the client interface's metadata panel (§4.1 of the
// paper): for a chosen table column, the most frequent values and the
// bucket boundaries of the equi-depth histogram.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "pkg.json", "transfer package")
	table := fs.String("table", "", "table (required)")
	column := fs.String("column", "", "column (required)")
	fs.Parse(args)
	if *table == "" || *column == "" {
		return fmt.Errorf("-table and -column are required")
	}
	pkg, err := readPackage(*in)
	if err != nil {
		return err
	}
	tbl := pkg.Schema.Table(*table)
	if tbl == nil {
		return fmt.Errorf("unknown table %q", *table)
	}
	col := tbl.Column(*column)
	if col == nil {
		return fmt.Errorf("table %s has no column %q", *table, *column)
	}
	var cs *stats.ColumnStats
	for _, ts := range pkg.Stats {
		if ts.Table == *table {
			cs = ts.Column(*column)
		}
	}
	if cs == nil {
		return fmt.Errorf("package carries no statistics for %s.%s (captured with -anonymize or SkipStats?)", *table, *column)
	}
	fmt.Printf("%s.%s: distinct=%d range=[%s, %s]\n", *table, *column, cs.Distinct,
		col.Decode(cs.MinCode), col.Decode(cs.MaxCode))
	if len(cs.TopValues) > 0 {
		fmt.Println("most frequent values:")
		for _, e := range cs.TopValues {
			fmt.Printf("  %-20s %d\n", col.Decode(e.Code), e.Count)
		}
	}
	if cs.Histogram != nil && cs.Histogram.Buckets() > 0 {
		fmt.Println("equi-depth histogram buckets:")
		for _, b := range cs.Histogram.Bkts {
			fmt.Printf("  [%s, %s]  %d rows\n", col.Decode(b.Lo), col.Decode(b.Hi), b.Count)
		}
	}
	return nil
}
