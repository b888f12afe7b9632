package experiments

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/summary"
	"repro/internal/trace"
)

// E16TraceOverhead measures what query-level tracing costs on the paths
// that carry the engine's zero-allocation contract. The steady-state
// prepared query (the serve cache-hit regime) runs twice under identical
// conditions — Trace off and Trace on — and the fractional slowdown is the
// overhead of stamping every operator's Next calls into the recycled span
// arena. Both variants are held to zero allocations per execution: with
// tracing off no recorder exists at all, and with tracing on the spans are
// preallocated at Prepare time and recycled by Reset, so the hot path only
// writes fields of live objects. The target is under 3% overhead traced
// and, by construction, 0% untraced.
//
// The experiment closes with the query's EXPLAIN ANALYZE rendering — the
// user-facing artifact the spans exist for.
func E16TraceOverhead(w io.Writer, cfg Config) error {
	pkg, err := capture(cfg)
	if err != nil {
		return err
	}
	sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		return err
	}
	regen := core.RegenDatabase(sum, 0)

	sql := pkg.Workload[0].SQL
	q, err := sqlkit.Parse(sql)
	if err != nil {
		return err
	}
	plan, err := engine.BuildPlan(regen.Schema, q)
	if err != nil {
		return err
	}
	prep, err := engine.Prepare(regen, plan, engine.ExecOptions{Regime: engine.PathPruned})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "E16: tracing overhead on the steady-state prepared query\n")
	fmt.Fprintf(w, "query: %s\n", sql)

	type variant struct {
		label string
		opts  engine.ExecOptions
	}
	variants := []variant{
		{"trace off", engine.ExecOptions{Regime: engine.PathPruned}},
		{"trace on", engine.ExecOptions{Trace: true, Regime: engine.PathPruned}},
	}
	var scanRows float64
	var walk func(pn *engine.PlanNode)
	walk = func(pn *engine.PlanNode) {
		if pn.Op == engine.OpScan {
			if rel := sum.Relations[pn.Table]; rel != nil {
				scanRows += float64(rel.Total)
			}
		}
		for _, c := range pn.Children {
			walk(c)
		}
	}
	walk(plan.Root)
	// Warm each variant's state once and hold it to the zero-allocation
	// contract before timing anything.
	states := make([]*engine.ExecState, len(variants))
	for i, v := range variants {
		st := &engine.ExecState{}
		states[i] = st
		if _, err := prep.ExecuteIn(st, v.opts); err != nil {
			return err
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := prep.ExecuteIn(st, v.opts); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			return fmt.Errorf("E16: %s allocates %.0f objects/op, want 0", v.label, allocs)
		}
	}

	// Interleaved best-of-5: single benchmark runs on a shared box swing
	// ±10% — far above the effect being measured — so the variants
	// alternate (both see the same machine weather) and each keeps its
	// least-disturbed round.
	ns := make([]float64, len(variants))
	for round := 0; round < 5; round++ {
		for i, v := range variants {
			st, opts := states[i], v.opts
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					if _, err := prep.ExecuteIn(st, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			if got := float64(r.T.Nanoseconds()) / float64(r.N); ns[i] == 0 || got < ns[i] {
				ns[i] = got
			}
		}
	}

	fmt.Fprintf(w, "%-10s %-14s %-12s %-10s %-10s\n", "variant", "ns/op", "rows/sec", "allocs/op", "overhead")
	for i, v := range variants {
		overhead := "baseline"
		if i > 0 && ns[0] > 0 {
			overhead = fmt.Sprintf("%+.2f%%", (ns[i]-ns[0])/ns[0]*100)
		}
		rate := 0.0
		if ns[i] > 0 {
			rate = scanRows * 1e9 / ns[i]
		}
		fmt.Fprintf(w, "%-10s %-14.0f %-12.0f %-10d %-10s\n", v.label, ns[i], rate, 0, overhead)
	}

	// The artifact: one traced execution rendered as EXPLAIN ANALYZE text.
	var st engine.ExecState
	res, err := prep.ExecuteIn(&st, engine.ExecOptions{Trace: true, Regime: engine.PathPruned})
	if err != nil {
		return err
	}
	if res.Trace == nil {
		return fmt.Errorf("E16: traced execution returned no span tree")
	}
	fmt.Fprintf(w, "EXPLAIN ANALYZE %s\n%s", sql, trace.Render(res.Trace))
	fmt.Fprintln(w, "both variants execute at zero allocations per query; tracing off has no recorder at all")
	return nil
}
