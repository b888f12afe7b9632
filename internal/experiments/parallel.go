package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/summary"
)

// E11Parallel measures morsel-driven worker scaling of dataless execution:
// the workload's most expensive query (largest total scan input) runs
// sequentially and then with ExecOptions.Parallelism set to each worker
// count, reporting throughput, speedup over sequential, and verifying that
// every answer — count and per-operator cardinalities — is identical.
// Worker counts beyond the box's cores cannot speed up a CPU-bound pipeline;
// the sweep raises GOMAXPROCS to its largest count (oversubscribe) so the
// table makes that visible rather than having Normalize clamp it away.
func E11Parallel(w io.Writer, cfg Config, workers []int) error {
	defer oversubscribe(workers)()
	pkg, err := capture(cfg)
	if err != nil {
		return err
	}
	sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		return err
	}
	regen := core.RegenDatabase(sum, 0)

	// Pick the workload query with the largest regenerated scan input.
	var sql string
	var best int64 = -1
	for _, aqp := range pkg.Workload {
		q, err := sqlkit.Parse(aqp.SQL)
		if err != nil {
			return err
		}
		plan, err := engine.BuildPlan(regen.Schema, q)
		if err != nil {
			return err
		}
		var input int64
		var walk func(pn *engine.PlanNode)
		walk = func(pn *engine.PlanNode) {
			if pn.Op == engine.OpScan {
				if rel := sum.Relations[pn.Table]; rel != nil {
					input += rel.Total
				}
			}
			for _, c := range pn.Children {
				walk(c)
			}
		}
		walk(plan.Root)
		if input > best {
			best, sql = input, aqp.SQL
		}
	}

	q, err := sqlkit.Parse(sql)
	if err != nil {
		return err
	}
	plan, err := engine.BuildPlan(regen.Schema, q)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "E11: morsel-driven worker scaling (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "query: %s (scan input %d rows)\n", sql, best)
	seq, seqElapsed, err := timeExec(regen, plan, engine.ExecOptions{Regime: engine.PathPruned})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-12s %-14s %-10s %-8s\n", "workers", "count", "elapsed", "rows/sec", "speedup")
	fmt.Fprintf(w, "%-10s %-12d %-14v %-10.0f %-8s\n", "seq", seq.Count, seqElapsed.Round(time.Microsecond), float64(best)/seqElapsed.Seconds(), "1.00")
	for _, n := range workers {
		opts := engine.ExecOptions{Parallelism: n, Regime: engine.PathPruned}
		res, elapsed, err := timeExec(regen, plan, opts)
		if err != nil {
			return err
		}
		if res.Count != seq.Count || res.Rows != seq.Rows {
			return fmt.Errorf("E11: workers=%d changed the answer: count %d != %d", n, res.Count, seq.Count)
		}
		fmt.Fprintf(w, "%-10d %-12d %-14v %-10.0f %-8.2f\n",
			n, res.Count, elapsed.Round(time.Microsecond), float64(best)/elapsed.Seconds(), seqElapsed.Seconds()/elapsed.Seconds())
	}
	fmt.Fprintln(w, "answers identical at every worker count")
	return nil
}

// execute and executeRows are the experiments' ctx-free spellings of the
// engine's two ad-hoc entry points.
func execute(db *engine.Database, plan *engine.Plan, opts engine.ExecOptions) (*engine.ExecResult, error) {
	return engine.ExecuteContext(context.Background(), db, plan, opts)
}

func executeRows(db *engine.Database, plan *engine.Plan, opts engine.ExecOptions) (*engine.ExecResult, error) {
	return engine.ExecuteRowsContext(context.Background(), db, plan, opts)
}

// oversubscribe raises GOMAXPROCS to the sweep's largest worker count, when
// that exceeds it, and returns the restore: Parallelism is clamped to
// GOMAXPROCS, so a sweep past the box's cores needs the Ps to exist.
func oversubscribe(workers []int) (restore func()) {
	prev := runtime.GOMAXPROCS(0)
	want := prev
	for _, n := range workers {
		want = max(want, n)
	}
	runtime.GOMAXPROCS(want)
	return func() { runtime.GOMAXPROCS(prev) }
}

// timeExec executes the plan three times and returns the last result with
// the median elapsed time.
func timeExec(db *engine.Database, plan *engine.Plan, opts engine.ExecOptions) (*engine.ExecResult, time.Duration, error) {
	var res *engine.ExecResult
	var err error
	times := make([]time.Duration, 3)
	for i := range times {
		start := time.Now()
		res, err = execute(db, plan, opts)
		if err != nil {
			return nil, 0, err
		}
		times[i] = time.Since(start)
	}
	if times[0] > times[1] {
		times[0], times[1] = times[1], times[0]
	}
	if times[1] > times[2] {
		times[1], times[2] = times[2], times[1]
	}
	if times[0] > times[1] {
		times[0], times[1] = times[1], times[0]
	}
	return res, times[1], nil
}
