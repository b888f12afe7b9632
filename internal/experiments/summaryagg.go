package experiments

// E17: the summary-direct aggregate fast path is scale-invariant. The
// regenerating pipeline answers an aggregate in time linear in the table's
// row count; the summary-direct evaluator answers the same query from
// summary-row interval arithmetic, so its latency tracks the number of
// summary rows — which the paper's construction keeps proportional to the
// workload, not the data. Sweeping the scale factor with a fixed workload
// shows regen latency growing linearly while summary-direct latency stays
// flat, with byte-identical answers at every point.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/summary"
)

// E17SummaryAgg sweeps the data scale factor and times one eligible
// aggregate both ways at each point. The query keeps a filtered COUNT over
// the fact table — the shape serve answers on every cache hit — and the
// experiment fails if the fast path silently falls back to regeneration or
// disagrees with it.
func E17SummaryAgg(w io.Writer, cfg Config, scales []float64) error {
	const sql = "SELECT COUNT(*) FROM store_sales WHERE ss_quantity >= 50"
	fmt.Fprintln(w, "E17: summary-direct aggregates are data-scale-invariant")
	fmt.Fprintf(w, "query: %s\n", sql)
	fmt.Fprintf(w, "%-8s %-12s %-10s %-14s %-14s %-10s\n",
		"scale", "scan_rows", "sum_rows", "regen", "summary", "speedup")
	for _, sf := range scales {
		c := cfg
		c.ScaleFactor = sf
		pkg, err := capture(c)
		if err != nil {
			return err
		}
		sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
		if err != nil {
			return err
		}
		rel := sum.Relations["store_sales"]
		if rel == nil {
			return fmt.Errorf("E17: summary has no store_sales relation")
		}
		regen := core.RegenDatabase(sum, 0)
		q, err := sqlkit.Parse(sql)
		if err != nil {
			return err
		}
		plan, err := engine.BuildPlan(regen.Schema, q)
		if err != nil {
			return err
		}
		slow, slowElapsed, err := timeExec(regen, plan, engine.ExecOptions{Regime: engine.PathPruned})
		if err != nil {
			return err
		}
		fast, fastElapsed, err := timeExec(regen, plan, engine.ExecOptions{})
		if err != nil {
			return err
		}
		if fast.Path != engine.PathSummary {
			return fmt.Errorf("E17: sf=%.2f query was not answered summary-directly (path %q)", sf, fast.Path)
		}
		if fast.Count != slow.Count || fast.Rows != slow.Rows {
			return fmt.Errorf("E17: sf=%.2f summary-direct count %d != regenerated %d", sf, fast.Count, slow.Count)
		}
		fmt.Fprintf(w, "%-8.2f %-12d %-10d %-14v %-14v %-10.1f\n",
			sf, rel.Total, len(rel.Rows),
			slowElapsed.Round(time.Microsecond), fastElapsed.Round(time.Microsecond),
			float64(slowElapsed)/float64(fastElapsed))
	}
	fmt.Fprintln(w, "answers identical at every scale; summary latency tracks summary rows, not data rows")
	return nil
}
