package hydra

// End-to-end parity of morsel-driven parallel execution under the default
// (best provable) regime: over the toy and TPC-DS-like workloads, every
// entry point at every worker count must return results byte-identical to
// the sequential ad-hoc query — same rows, counts, samples, path, and
// per-operator cardinalities. This is the acceptance contract that lets
// execution fan out behind ExecOptions.Parallelism without perturbing a
// single annotated plan.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/toy"
	"repro/internal/tpcds"
)

// checkParallelParity builds a summary from the package, then runs every
// workload query datalessly on every entry point at every frontWorkers count,
// requiring results identical to sequential Query's. Small batch sizes
// force many small morsels through every operator.
func checkParallelParity(t *testing.T, pkg *TransferPackage, queries []string) {
	t.Helper()
	sum, _, err := Build(pkg, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	regen := Regen(sum, 0)
	for _, size := range []int{0, 3} {
		opts := ExecOptions{SampleLimit: 5, BatchSize: size}
		for _, sql := range queries {
			want, err := Query(regen, sql, opts)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			eachFront(t, regen, sql, opts, func(label string, res *ExecResult) {
				sameResult(t, label, res, want)
			})
		}
	}
}

func TestParallelParityToyWorkload(t *testing.T) {
	db, err := toy.Database(42)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.CaptureClient(db, toy.Workload(), core.CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	// Grouped aggregation, ORDER BY, LIMIT, and DISTINCT all run per-worker
	// partial states merged deterministically; parity at every worker count
	// pins that.
	queries := append(toy.Workload(), toy.GroupWorkload()...)
	checkParallelParity(t, pkg, append(queries, toy.SortWorkload()...))
}

func TestParallelParityTPCDSWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload parity")
	}
	s := tpcds.Schema(0.25)
	db, err := tpcds.GenerateDatabase(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries := tpcds.Workload(40, 11)
	pkg, err := core.CaptureClient(db, queries, core.CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	extra := append(tpcds.GroupWorkload(), tpcds.SortWorkload()...)
	checkParallelParity(t, pkg, append(queries, extra...))
}

// TestParallelParityVelocityFallback pins the paced-stream fallback: a
// velocity-regulated database cannot be partitioned, so parallel execution
// must transparently produce the sequential result.
func TestParallelParityVelocityFallback(t *testing.T) {
	db, err := toy.Database(42)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.CaptureClient(db, toy.Workload(), core.CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := Build(pkg, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	slow := Regen(sum, 1e9) // paced, effectively unthrottled
	fast := Regen(sum, 0)
	sql := toy.Workload()[0]
	// A paced stream cannot prune (it lacks the row-space capability), so the
	// full-speed reference must regenerate in full too for the trees to match.
	opts := ExecOptions{SampleLimit: 5, Regime: engine.PathRegen}
	want, err := Query(fast, sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	oversubscribe(t, 4)
	opts.Parallelism = 4
	got, err := Query(slow, sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, sql+" [paced fallback]", got, want)
}

// TestBuildSideOpenedOnce counts how often a two-join query opens one of its
// build tables. Ad hoc, every execution drains the build side exactly once,
// however many workers probe it: the first worker's open drains it into the
// execution's build cache and the others' opens find it there. Prepared,
// the one drain happens at Prepare and an execution never opens the table.
// Each Prepare drains its own builds: one over the same s build leaf —
// whatever its probe side or batch size — opens s once, as does one over a
// different s filter. SetDatagen and SetSummary make a held Prepared stale,
// and the next Prepare drains again. (s is a datagen table throughout, so
// its build drains: a summary-backed s would be looked up positionally and
// never drained. The SetSummary step re-registers t, whose builds are
// positional.)
func TestBuildSideOpenedOnce(t *testing.T) {
	db := core.RegenDatabase(toySummary(t), 0)
	tab, rel, opens := db.Schema.Table("s"), db.Summary("s"), 0
	counting := func() (batch.ColProjector, error) {
		opens++
		return generator.NewStream(tab, rel), nil
	}
	db.SetDatagen("s", counting)
	oversubscribe(t, 4)
	want, err := Query(db, toy.Query, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(db, toy.Query, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if opens != 2 {
		t.Fatalf("one ad hoc query and one Prepare opened s %d times, want 2", opens)
	}
	for _, w := range []int{0, 1, 4} {
		opts := ExecOptions{Parallelism: w}
		opens = 0
		got, err := Query(db, toy.Query, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "ad hoc", got, want)
		if opens != 1 {
			t.Errorf("ad hoc, %d workers: s opened %d times, want 1", w, opens)
		}
		opens = 0
		if got, err = prep.Execute(opts); err != nil {
			t.Fatal(err)
		}
		sameResult(t, "prepared", got, want)
		if opens != 0 {
			t.Errorf("prepared, %d workers: s opened %d times per execution, want 0", w, opens)
		}
	}

	// prepareOpens prepares sql at batch size size, requires s opened
	// wantOpens times by the Prepare, and holds every front's answer to the
	// full-regeneration reference and each Prepared execution's tree to the
	// ad hoc query's.
	prepareOpens := func(label, sql string, size, wantOpens int) *Prepared {
		t.Helper()
		opens = 0
		p, err := Prepare(db, sql, ExecOptions{BatchSize: size})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if opens != wantOpens {
			t.Errorf("%s: Prepare opened s %d times, want %d", label, opens, wantOpens)
		}
		opts := ExecOptions{SampleLimit: 5, BatchSize: size}
		ref, err := Query(db, sql, ExecOptions{SampleLimit: 5, Regime: engine.PathRegen})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		eachFront(t, db, sql, opts, func(front string, res *ExecResult) {
			sameValues(t, label+" "+front, res, ref)
		})
		for _, w := range []int{0, 2} {
			opts.Parallelism = w
			adhoc, err := Query(db, sql, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := p.Execute(opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameResult(t, label, got, adhoc)
		}
		return p
	}
	prepareOpens("same s leaf, probe-side predicate", toy.Query+" AND r.r_pk < 6000", 0, 1)
	prepareOpens("same query, batch size 7", toy.Query, 7, 1)
	prepareOpens("different s filter", strings.Replace(toy.Query, "s.a < 60", "s.a < 50", 1), 0, 1)
	requireStale := func(label string, p *Prepared) {
		t.Helper()
		if res, err := p.Execute(ExecOptions{}); !errors.Is(err, engine.ErrStalePrepared) {
			t.Errorf("%s: held Prepared answered %+v, %v; want ErrStalePrepared", label, res, err)
		}
	}
	db.SetDatagen("s", counting)
	requireStale("after SetDatagen", prep)
	held := prepareOpens("after SetDatagen", toy.Query, 0, 1)
	db.SetSummary("t", db.Summary("t"))
	requireStale("after SetSummary", held)
	prepareOpens("after SetSummary", toy.Query, 0, 1)
}
