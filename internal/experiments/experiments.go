// Package experiments regenerates every quantitative exhibit of the paper —
// the demo's own figures and the EDBT'18 evaluation claims it cites — as
// printed tables with the same rows/series structure. Each experiment (E1…
// E10, see DESIGN.md) is exposed as a function over an io.Writer that backs
// the CLI ("hydra bench"); the tests in this package smoke-test each one.
// EXPERIMENTS.md records paper-claim vs measured output. Engine performance
// is measured by the bench/ harness, not here.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/aqp"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/scenario"
	"repro/internal/sqlkit"
	"repro/internal/summary"
	"repro/internal/toy"
	"repro/internal/tpcds"
	"repro/internal/verify"
)

// Config fixes the shared experiment parameters.
type Config struct {
	// Seed drives the synthetic warehouse and workload generators.
	Seed int64
	// ScaleFactor sizes the client warehouse (1.0 ≈ 58k rows total).
	ScaleFactor float64
	// Queries is the workload size (the paper uses 131).
	Queries int
}

// capture builds the client warehouse and transfer package for a config.
func capture(cfg Config) (*core.TransferPackage, error) {
	s := tpcds.Schema(cfg.ScaleFactor)
	db, err := tpcds.GenerateDatabase(s, cfg.Seed)
	if err != nil {
		return nil, err
	}
	queries := tpcds.Workload(cfg.Queries, cfg.Seed+4)
	return core.CaptureClient(db, queries, core.CaptureOptions{SkipStats: true})
}

// E1Example prints the Figure 1 scenario: the toy schema, the example SPJ
// query, and its annotated query plan with edge cardinalities.
func E1Example(w io.Writer, seed int64) error {
	fmt.Fprintln(w, "E1: Figure 1 — example database scenario")
	fmt.Fprintln(w, "Schema: R(r_pk, s_fk, t_fk)  S(s_pk, a, b)  T(t_pk, c)")
	db, err := toy.Database(seed)
	if err != nil {
		return err
	}
	q, err := sqlkit.Parse(toy.Query)
	if err != nil {
		return err
	}
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		return err
	}
	res, err := engine.ExecuteContext(context.Background(), db, plan, engine.ExecOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Query: %s\n", toy.Query)
	fmt.Fprintln(w, "Annotated Query Plan (edge cardinalities from client execution):")
	fmt.Fprint(w, aqp.FromExec(res.Root).String())
	return nil
}

// E2RegionVsGrid prints the LP-complexity comparison: number of LP
// variables under Hydra's region partitioning vs the DataSynth grid
// baseline, as the workload grows (§2: "several orders of magnitude
// smaller", with region partitioning attaining the minimum).
func E2RegionVsGrid(w io.Writer, cfg Config, workloadSizes []int) error {
	fmt.Fprintln(w, "E2: LP complexity — region (Hydra) vs grid (DataSynth) partitioning")
	fmt.Fprintf(w, "%-9s %-14s %-14s %-9s %-12s\n", "queries", "region_vars", "grid_vars", "ratio", "formulate")
	for _, n := range workloadSizes {
		c := cfg
		c.Queries = n
		pkg, err := capture(c)
		if err != nil {
			return err
		}
		start := time.Now()
		_, rep, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		region := rep.TotalLPVars()
		grid := rep.TotalGridVars()
		ratio := float64(grid) / float64(region)
		fmt.Fprintf(w, "%-9d %-14d %-14d %-9.0f %-12v\n", n, region, grid, ratio, elapsed.Round(time.Millisecond))
	}
	return nil
}

// E3DataScaleFree prints summary-construction time and size against the
// client database scale factor: capture cost grows with data, but the
// vendor-side construction is data-scale-free (§2: "summary for a large
// workload of 131 distinct queries … in less than 2 minutes … a few KB").
func E3DataScaleFree(w io.Writer, cfg Config, scales []float64) error {
	fmt.Fprintln(w, "E3: summary construction is data-scale-free")
	fmt.Fprintf(w, "%-8s %-12s %-12s %-12s %-12s %-10s\n", "scale", "client_rows", "capture", "build", "summary_B", "lp_vars")
	for _, sf := range scales {
		c := cfg
		c.ScaleFactor = sf
		t0 := time.Now()
		pkg, err := capture(c)
		if err != nil {
			return err
		}
		captureTime := time.Since(t0)
		var rows int64
		for _, t := range pkg.Schema.Tables {
			rows += t.RowCount
		}
		t1 := time.Now()
		_, rep, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
		if err != nil {
			return err
		}
		buildTime := time.Since(t1)
		fmt.Fprintf(w, "%-8.2f %-12d %-12v %-12v %-12d %-10d\n",
			sf, rows, captureTime.Round(time.Millisecond), buildTime.Round(time.Millisecond), rep.SummaryBytes, rep.TotalLPVars())
	}
	return nil
}

// E4Accuracy prints the volumetric-accuracy CDF (Figure 4's bottom-left
// graph; §2: ">90% of the volumetric constraints were satisfied with
// virtually no error, while the remaining were all satisfied with a
// relative error of less than 10%").
func E4Accuracy(w io.Writer, cfg Config) (*verify.Report, error) {
	pkg, err := capture(cfg)
	if err != nil {
		return nil, err
	}
	sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		return nil, err
	}
	rep, err := verify.Verify(core.RegenDatabase(sum, 0), pkg.Workload)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "E4: volumetric accuracy — % constraints satisfied within relative error ε")
	fmt.Fprintf(w, "%-8s %-10s\n", "eps", "satisfied")
	for _, p := range rep.CDF(nil) {
		fmt.Fprintf(w, "%-8.3f %-10.3f\n", p.Eps, p.Fraction)
	}
	max, hasInf := rep.MaxRelErr()
	fmt.Fprintf(w, "edges=%d  mean_rel_err=%.5f  max_finite=%.4f  inf_edges=%v\n",
		len(rep.Edges), rep.MeanRelErr(), max, hasInf)
	return rep, nil
}

// E5ErrorVsScale prints how the relative volumetric error shrinks as the
// target database scales up (§2: "the magnitude of the volumetric
// discrepancy is constant for a given query workload, [so] the relative
// errors become progressively smaller with increasing database size").
func E5ErrorVsScale(w io.Writer, cfg Config, factors []float64) error {
	pkg, err := capture(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E5: relative error vs database scale-up factor")
	fmt.Fprintf(w, "%-8s %-12s %-12s %-12s %-12s\n", "factor", "exact_frac", "mean_rel", "max_rel", "clamped")
	for _, f := range factors {
		sc := &scenario.Scenario{Name: fmt.Sprintf("x%g", f), Factor: f}
		scaled, err := sc.Apply(pkg)
		if err != nil {
			return err
		}
		sum, build, err := core.BuildFromPackage(scaled, summary.DefaultBuildOptions())
		if err != nil {
			return err
		}
		rep, err := verify.Verify(core.RegenDatabase(sum, 0), scaled.Workload)
		if err != nil {
			return err
		}
		max, _ := rep.MaxRelErr()
		fmt.Fprintf(w, "%-8.1f %-12.3f %-12.5f %-12.5f %-12d\n",
			f, rep.SatisfiedWithin(0), rep.MeanRelErr(), max, build.TotalClampedRows())
	}
	return nil
}

// E6Velocity prints requested vs achieved generation rates (§4.2's
// rows/sec velocity slider): dynamic regeneration can be throttled
// precisely because rows are produced in memory.
func E6Velocity(w io.Writer, cfg Config, rates []float64, rows int64) error {
	pkg, err := capture(cfg)
	if err != nil {
		return err
	}
	sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		return err
	}
	table := "store_sales"
	t := sum.Schema.Table(table)
	fmt.Fprintln(w, "E6: generation velocity control (table store_sales)")
	fmt.Fprintf(w, "%-12s %-12s %-12s %-10s\n", "target_rps", "achieved", "rows", "elapsed")
	for _, rate := range rates {
		n := rows
		if rate > 0 {
			// Cap the run at roughly one second of generation.
			if budget := int64(rate); budget < n {
				n = budget
			}
		}
		// The row reader over a paced source: a 1-row batch makes the
		// schedule row-granular; unpaced, the default batch is read-ahead.
		capRows := 0
		if rate > 0 {
			capRows = 1
		}
		src := batch.NewRowReader(
			generator.NewPaced(generator.NewStream(t, sum.Relations[table]), rate),
			batch.NewCol(len(t.Columns), capRows, batch.AllCols(len(t.Columns))))
		start := time.Now()
		var got int64
		for got < n {
			if _, ok := src.Next(); !ok {
				break
			}
			got++
		}
		elapsed := time.Since(start)
		achieved := float64(got) / elapsed.Seconds()
		fmt.Fprintf(w, "%-12.0f %-12.0f %-12d %-10v\n", rate, achieved, got, elapsed.Round(time.Millisecond))
	}
	return nil
}

// E7Datagen demonstrates dataless execution (§4.3 and Table 1): the
// regenerated database stores zero rows, queries stream tuples from the
// summary, and the answers match materialized execution exactly. It prints
// a Table-1-style sample of the item relation.
func E7Datagen(w io.Writer, cfg Config) error {
	pkg, err := capture(cfg)
	if err != nil {
		return err
	}
	sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		return err
	}
	regen := core.RegenDatabase(sum, 0)
	mat, err := core.MaterializedDatabase(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E7: dynamic regeneration — dataless query execution")
	for _, t := range sum.Schema.Tables {
		stored := 0
		if rel := regen.Relation(t.Name); rel != nil {
			stored = rel.Len()
		}
		fmt.Fprintf(w, "table %-12s stored_rows=%d datagen=%v\n", t.Name, stored, regen.DatagenEnabled(t.Name))
	}

	// Table 1 of the paper lists the first tuple of each summary row (the
	// points where the value vector changes as primary keys advance).
	fmt.Fprintln(w, "\nSample regenerated ITEM tuples (Table 1):")
	itemT := sum.Schema.Table("item")
	itemW := len(itemT.Columns)
	stream := batch.NewRowReader(generator.NewStream(itemT, sum.Relations["item"]), batch.NewCol(itemW, 0, batch.AllCols(itemW)))
	fmt.Fprintf(w, "%-10s %-14s %-12s %-12s\n", "item_sk", "i_manager_id", "i_class", "i_category")
	shown := 0
	idx := int64(0)
	nextBoundary := int64(0)
	ri := 0
	for shown < 4 {
		r, ok := stream.Next()
		if !ok {
			break
		}
		if idx == nextBoundary && ri < len(sum.Relations["item"].Rows) {
			fmt.Fprintf(w, "%-10d %-14s %-12s %-12s\n",
				r[0], itemT.Columns[1].Decode(r[1]), itemT.Columns[2].Decode(r[2]), itemT.Columns[3].Decode(r[3]))
			nextBoundary += sum.Relations["item"].Rows[ri].Count
			ri++
			shown++
		}
		idx++
	}

	for qi, sql := range []string{
		"SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_category = 'Music'",
		"SELECT COUNT(*) FROM store_sales WHERE ss_quantity BETWEEN 10 AND 40",
	} {
		cd, err := runCount(regen, sql)
		if err != nil {
			return err
		}
		cm, err := runCount(mat, sql)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nQ%d %s\n  dataless=%d materialized=%d match=%v", qi, sql, cd, cm, cd == cm)
	}
	fmt.Fprintln(w)
	return nil
}

func runCount(db *engine.Database, sql string) (int64, error) {
	q, err := sqlkit.Parse(sql)
	if err != nil {
		return 0, err
	}
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		return 0, err
	}
	// The count must come from actual regeneration (or materialized rows),
	// not the summary-direct fast path this helper is meant to validate.
	res, err := engine.ExecuteContext(context.Background(), db, plan, engine.ExecOptions{Regime: engine.PathPruned})
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// E8Scenario prints what-if scenario construction (§4.4): cardinalities are
// extrapolated by large factors, feasibility is verified, and construction
// stays roughly constant-time regardless of the simulated volume — the
// "exabyte scenario" effect.
func E8Scenario(w io.Writer, cfg Config, factors []float64) error {
	pkg, err := capture(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E8: what-if scenario construction")
	fmt.Fprintf(w, "%-12s %-14s %-10s %-12s %-12s %-12s\n", "factor", "target_rows", "feasible", "rel_dev", "build", "summary_B")
	for _, f := range factors {
		sc := &scenario.Scenario{Name: fmt.Sprintf("x%g", f), Factor: f}
		start := time.Now()
		feas, err := sc.Build(pkg, summary.DefaultBuildOptions())
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		var rows int64
		for _, t := range pkg.Schema.Tables {
			rows += scaleInt(t.RowCount, f)
		}
		fmt.Fprintf(w, "%-12.0f %-14d %-10v %-12.2e %-12v %-12d\n",
			f, rows, feas.Feasible, feas.RelDeviation, elapsed.Round(time.Millisecond), feas.Report.SummaryBytes)
	}
	return nil
}

func scaleInt(v int64, f float64) int64 { return int64(float64(v) * f) }

// E9Referential prints the referential post-processing bookkeeping: how
// many tuples needed foreign-key clamping and the additive error they
// induce, across scale-down scenarios that force clamping.
func E9Referential(w io.Writer, cfg Config, dimFactors []float64) error {
	pkg, err := capture(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E9: referential post-processing — clamped tuples vs dimension shrink factor")
	fmt.Fprintf(w, "%-10s %-12s %-12s %-12s\n", "dim_fac", "clamped", "exact_frac", "mean_rel")
	for _, f := range dimFactors {
		sc := &scenario.Scenario{
			Name: fmt.Sprintf("dims x%g", f),
			TableFactor: map[string]float64{
				"item": f, "customer": f, "date_dim": 1, "store": 1, "promotion": 1, "store_sales": 1,
			},
		}
		scaled, err := sc.Apply(pkg)
		if err != nil {
			return err
		}
		sum, build, err := core.BuildFromPackage(scaled, summary.DefaultBuildOptions())
		if err != nil {
			return err
		}
		rep, err := verify.Verify(core.RegenDatabase(sum, 0), scaled.Workload)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10.2f %-12d %-12.3f %-12.5f\n", f, build.TotalClampedRows(), rep.SatisfiedWithin(0), rep.MeanRelErr())
	}
	return nil
}

// E10Ablation quantifies the design choices DESIGN.md calls out: it builds
// the same workload with and without the cross-relation inhabitation
// propagation, reporting accuracy and clamped-tuple counts. (The paper
// attributes its accuracy to the deterministic alignment strategy; this
// ablation shows which part of the pipeline carries that weight here.)
func E10Ablation(w io.Writer, cfg Config) error {
	pkg, err := capture(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E10: ablation — inhabitation propagation on/off")
	fmt.Fprintf(w, "%-14s %-12s %-12s %-12s %-10s\n", "variant", "exact_frac", "within10%", "mean_rel", "clamped")
	for _, variant := range []struct {
		name string
		off  bool
	}{{"full", false}, {"no-inhabit", true}} {
		opts := summary.DefaultBuildOptions()
		opts.NoInhabitation = variant.off
		sum, build, err := core.BuildFromPackage(pkg, opts)
		if err != nil {
			return err
		}
		rep, err := verify.Verify(core.RegenDatabase(sum, 0), pkg.Workload)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %-12.3f %-12.3f %-12.5f %-10d\n",
			variant.name, rep.SatisfiedWithin(0), rep.SatisfiedWithin(0.1), rep.MeanRelErr(), build.TotalClampedRows())
	}
	return nil
}
