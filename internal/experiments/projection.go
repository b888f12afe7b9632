package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/summary"
)

// E12Projection measures what projection pushdown buys: the same fact-table
// scan regenerated datalessly under queries touching progressively more of
// store_sales's nine columns (1, 2, 4 via range predicates, all nine via a
// sampled SELECT *). The columnar executor materializes only the columns
// required-column analysis reports, so throughput should track the touched
// fraction rather than the table width; the table prints both. Answers are
// cross-checked against the row-at-a-time reference executor.
func E12Projection(w io.Writer, cfg Config) error {
	pkg, err := capture(cfg)
	if err != nil {
		return err
	}
	sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		return err
	}
	regen := core.RegenDatabase(sum, 0)
	rel := sum.Relations["store_sales"]
	if rel == nil {
		return fmt.Errorf("E12: summary has no store_sales relation")
	}
	width := len(sum.Schema.Table("store_sales").Columns)

	variants := []struct {
		label  string
		sql    string
		sample int // SampleLimit, forcing output materialization when > 0
	}{
		{"1 col", "SELECT COUNT(*) FROM store_sales WHERE ss_quantity >= 1", 0},
		{"2 cols", "SELECT COUNT(*) FROM store_sales WHERE ss_quantity >= 1 AND ss_sales_price >= 0.00", 0},
		{"4 cols", "SELECT COUNT(*) FROM store_sales WHERE ss_quantity >= 1 AND ss_sales_price >= 0.00 AND ss_wholesale_cost >= 0.00 AND ss_item_sk >= 0", 0},
		{"all cols", "SELECT * FROM store_sales WHERE ss_quantity >= 1", 1},
	}

	fmt.Fprintf(w, "E12: projection-factor sweep over store_sales (%d columns, %d rows regenerated per query)\n", width, rel.Total)
	fmt.Fprintf(w, "%-10s %-10s %-12s %-14s %-12s %-10s\n", "variant", "scan_cols", "rows", "elapsed", "rows/sec", "vs_full")
	var fullRate float64
	// Measure widest first so the "vs_full" column has its reference.
	for i := len(variants) - 1; i >= 0; i-- {
		v := variants[i]
		q, err := sqlkit.Parse(v.sql)
		if err != nil {
			return err
		}
		plan, err := engine.BuildPlan(regen.Schema, q)
		if err != nil {
			return err
		}
		scanCols := len(plan.RequiredScanCols(v.sample > 0)["store_sales"])
		opts := engine.ExecOptions{SampleLimit: v.sample, Regime: engine.PathPruned}
		res, elapsed, err := timeExec(regen, plan, opts)
		if err != nil {
			return err
		}
		ref, err := executeRows(regen, plan, opts)
		if err != nil {
			return err
		}
		if res.Rows != ref.Rows || res.Count != ref.Count {
			return fmt.Errorf("E12: %s: columnar answer %d/%d != reference %d/%d", v.label, res.Rows, res.Count, ref.Rows, ref.Count)
		}
		rate := float64(rel.Total) / elapsed.Seconds()
		if i == len(variants)-1 {
			fullRate = rate
		}
		fmt.Fprintf(w, "%-10s %d/%-8d %-12d %-14v %-12.0f %-10.2f\n",
			v.label, scanCols, width, res.Rows, elapsed.Round(time.Microsecond), rate, rate/fullRate)
	}
	fmt.Fprintln(w, "answers identical to the row-at-a-time reference at every projection")
	return nil
}
