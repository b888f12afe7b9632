package engine

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/generator"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// TestPreparedParity holds Prepared.Execute — sequential and parallel,
// repeated on one Prepared — to the results of a fresh Execute: shared
// build arenas and cloned build annotations must change nothing.
func TestPreparedParity(t *testing.T) {
	db := starDatabase(t)
	for _, sql := range parityQueries {
		opts := ExecOptions{SampleLimit: 5, BatchSize: 3}
		want := execWithf(t, db, sql, opts, execute)
		prep, err := Prepare(db, mustPlan(t, db, sql), opts)
		if err != nil {
			t.Fatalf("prepare %q: %v", sql, err)
		}
		for round := 0; round < 3; round++ {
			got, err := prep.Execute(opts)
			if err != nil {
				t.Fatalf("prepared exec %q round %d: %v", sql, round, err)
			}
			requireEqualResults(t, sql, got, want)
		}
		popts := opts
		popts.Parallelism = 2
		wantPar := execWithf(t, db, sql, popts, execute)
		gotPar, err := prep.Execute(popts)
		if err != nil {
			t.Fatalf("prepared parallel %q: %v", sql, err)
		}
		requireEqualResults(t, sql+" [parallel]", gotPar, wantPar)
	}
}

// TestExecuteInReuse holds the state-reusing execution path to the fresh
// path across repeated runs: rewound scans, recycled batches, and recycled
// ExecNodes must reproduce the result exactly, including after an options
// change mid-stream (which rebuilds the state).
func TestExecuteInReuse(t *testing.T) {
	db := starDatabase(t)
	for _, sql := range parityQueries {
		want := execWithf(t, db, sql, ExecOptions{SampleLimit: 5}, execute)
		prep, err := Prepare(db, mustPlan(t, db, sql), ExecOptions{})
		if err != nil {
			t.Fatalf("prepare %q: %v", sql, err)
		}
		var st ExecState
		for round := 0; round < 3; round++ {
			got, err := prep.ExecuteIn(&st, ExecOptions{SampleLimit: 5})
			if err != nil {
				t.Fatalf("ExecuteIn %q round %d: %v", sql, round, err)
			}
			requireEqualResults(t, sql, got, want)
		}
		// Option change invalidates and rebuilds the cached state.
		want2 := execWithf(t, db, sql, ExecOptions{SampleLimit: 2, BatchSize: 2}, execute)
		got2, err := prep.ExecuteIn(&st, ExecOptions{SampleLimit: 2, BatchSize: 2})
		if err != nil {
			t.Fatalf("ExecuteIn %q after opts change: %v", sql, err)
		}
		requireEqualResults(t, sql+" [opts change]", got2, want2)
	}
}

// TestExecuteInZeroAllocStored pins the zero-allocation contract on stored
// relations: after warmup, a scan→filter→count execution through ExecuteIn
// allocates nothing.
func TestExecuteInZeroAllocStored(t *testing.T) {
	db := starDatabase(t)
	prep, err := Prepare(db, mustPlan(t, db, "SELECT COUNT(*) FROM fact WHERE q >= 3"), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var st ExecState
	if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ExecuteIn allocates %.2f objects per run, want 0", allocs)
	}
}

// TestExecuteInFailedOpenInvalidatesState: a reopen that fails must not
// leave the state claiming the previous tree. The table regenerates from a
// datagen source that fails on demand: opts A opens a tree, opts B (another
// batch size, so the state reopens) fails in open, and returning to opts A
// must reopen — not take the reuse branch on the strength of A being the
// last successful open — and give the first answer. (The sequence this
// guarded first, a summary-direct A and a failing B, cannot happen: a
// summary table's scans are cut from its registered stream and their open
// cannot fail.)
func TestExecuteInFailedOpenInvalidatesState(t *testing.T) {
	db := saggDB(t)
	rel, tab := db.Summary("m"), db.Schema.Table("m")
	failing, opens := false, 0
	errDatagen := errors.New("datagen unavailable")
	db.SetDatagen("m", func() (batch.ColProjector, error) {
		opens++
		if failing {
			return nil, errDatagen
		}
		return generator.NewStream(tab, rel), nil
	})
	prep, err := Prepare(db, mustPlan(t, db, "SELECT COUNT(*) FROM m WHERE a < 3"), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	optsA, optsB := ExecOptions{}, ExecOptions{BatchSize: 3}
	var st ExecState
	want, err := prep.ExecuteIn(&st, optsA)
	if err != nil || want.Path != PathRegen {
		t.Fatalf("opts A: %v, %v; want an answer regenerated from the datagen source", want, err)
	}
	count := want.Count
	failing = true
	if _, err := prep.ExecuteIn(&st, optsB); !errors.Is(err, errDatagen) {
		t.Fatalf("opts B with a failing scan: err = %v, want the datagen error", err)
	}
	failing, opens = false, 0
	got, err := prep.ExecuteIn(&st, optsA)
	if err != nil || got.Count != count || opens != 1 {
		t.Fatalf("opts A after the failed open: %+v, %v, %d opens; want count %d from one reopen", got, err, opens, count)
	}
	// And the state recovers for opts B once the scan opens again.
	if got, err = prep.ExecuteIn(&st, optsB); err != nil || got.Count != count {
		t.Fatalf("opts B after recovery: %+v, %v; want count %d", got, err, count)
	}
}

// coupledRel is one 12-tuple summary row of m: a cycles [0,4) and b cycles
// [100,103), so a < 2 AND b < 102 holds for 2·2 of the 12 (a, b) phases
// and a < 3 for 9 tuples.
func coupledRel(t *testing.T, db *Database) *synopsis.Relation {
	t.Helper()
	rel := &synopsis.Relation{Table: "m", Total: 12, Rows: []synopsis.Row{
		{Count: 12, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, set(value.Ival(0, 4))), synopsis.SetSpec(2, set(value.Ival(100, 103)))}},
	}}
	if err := rel.Validate(db.Schema.Table("m")); err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestStalePreparedAfterRegistration: a Prepared pairs its Prepare-time
// proof and row-spaces with the registrations it was prepared under, so
// registering a table again makes it fail with ErrStalePrepared instead of
// answering from a proof about rows its table no longer regenerates.
func TestStalePreparedAfterRegistration(t *testing.T) {
	const sql = "SELECT COUNT(*) FROM m WHERE a < 2 AND b < 102"
	db := saggDB(t)
	prep, err := Prepare(db, mustPlan(t, db, sql), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var st ExecState
	if _, err := prep.ExecuteIn(&st, ExecOptions{}); err != nil {
		t.Fatal(err)
	}

	db.SetSummary("m", coupledRel(t, db))
	if res, err := prep.Execute(ExecOptions{}); !errors.Is(err, ErrStalePrepared) {
		t.Fatalf("after SetSummary: %+v, %v; want ErrStalePrepared", res, err)
	}
	if res, err := prep.ExecuteIn(&st, ExecOptions{}); !errors.Is(err, ErrStalePrepared) {
		t.Fatalf("reused state after SetSummary: %+v, %v; want ErrStalePrepared", res, err)
	}
	fresh, err := Prepare(db, mustPlan(t, db, sql), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, regime := range []string{"", PathPruned, PathRegen} {
		res, err := fresh.Execute(ExecOptions{Regime: regime})
		if err != nil || res.Count != 4 {
			t.Fatalf("fresh Prepared, regime %q: %+v, %v; want count 4", regime, res, err)
		}
	}
}

// execWithf mirrors the parity helpers with an explicit executor func.
func execWithf(t *testing.T, db *Database, sql string, opts ExecOptions,
	f func(*Database, *Plan, ExecOptions) (*ExecResult, error)) *ExecResult {
	t.Helper()
	res, err := f(db, mustPlan(t, db, sql), opts)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// sharedJoins are star joins over four dim builds: the bare scan keyed on
// d_pk (the first two, whose probe sides differ), two filters, and the bare
// scan keyed on a.
var sharedJoins = []string{
	"SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk",
	"SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk AND fact.q >= 3",
	"SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk AND dim.a >= 30",
	"SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk AND dim.a < 25 AND q > 1",
	"SELECT * FROM fact, dim WHERE fact.f_pk = dim.a",
}

// sharedKeys is the number of keys in db's shared build layer.
func sharedKeys(db *Database) int {
	db.builds.mu.Lock()
	defer db.builds.mu.Unlock()
	return len(db.builds.m)
}

// joinBuild returns the build p holds for its plan's one hash join.
func joinBuild(t *testing.T, p *Prepared) *preparedBuild {
	t.Helper()
	for pn := p.plan.Root; len(pn.Children) > 0; pn = pn.Children[0] {
		if pn.Op == OpHashJoin {
			return p.builds[pn]
		}
	}
	t.Fatal("plan has no hash join")
	return nil
}

// TestSharedBuildsLifetime: Prepareds over one build leaf hold one build,
// the layer weighs each live build once, a registration empties it without
// touching the builds Prepareds hold, and once every Prepared is dropped
// the GC clears the entries and their cleanups remove the keys.
func TestSharedBuildsLifetime(t *testing.T) {
	db := bigStarDatabase(t, 200)
	prepareAll := func() []*Prepared {
		var preps []*Prepared
		for _, sql := range sharedJoins {
			p, err := Prepare(db, mustPlan(t, db, sql), ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			preps = append(preps, p)
		}
		return preps
	}
	preps := prepareAll()
	if n := sharedKeys(db); n != 4 {
		t.Fatalf("%d shared builds for four builds, want 4", n)
	}
	if joinBuild(t, preps[0]) != joinBuild(t, preps[1]) {
		t.Fatal("two Prepareds over the bare dim scan hold two builds")
	}
	var want int64
	for _, i := range []int{0, 2, 3, 4} {
		want += joinBuild(t, preps[i]).jb.bytes()
	}
	if got := db.SharedBuildBytes(); got != want || got == 0 {
		t.Fatalf("SharedBuildBytes = %d, want %d (each live build once)", got, want)
	}

	if err := db.AddRelation(db.Relation("dim")); err != nil {
		t.Fatal(err)
	}
	if n, b := sharedKeys(db), db.SharedBuildBytes(); n != 0 || b != 0 {
		t.Fatalf("after a registration: %d keys, %d bytes, want 0", n, b)
	}
	held := joinBuild(t, preps[0])
	preps = prepareAll()
	if joinBuild(t, preps[0]) == held {
		t.Fatal("a Prepare after a registration took the build drained before it")
	}
	for i, sql := range sharedJoins {
		got, err := preps[i].Execute(ExecOptions{SampleLimit: 5})
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, sql, got, execWithf(t, db, sql, ExecOptions{SampleLimit: 5}, execute))
	}

	preps, held = nil, nil
	deadline := time.Now().Add(10 * time.Second)
	for sharedKeys(db) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d shared builds still keyed 10s after every Prepared was dropped", sharedKeys(db))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if b := db.SharedBuildBytes(); b != 0 {
		t.Fatalf("empty layer weighs %d bytes", b)
	}
}

// TestSharedBuildsInvalidatedMidDrain: a build whose drain a registration
// overtakes — here one the drained source itself makes — is not published,
// so no later Prepare takes arenas drained against the state the
// registration replaced.
func TestSharedBuildsInvalidatedMidDrain(t *testing.T) {
	db := bigStarDatabase(t, 200)
	rows := rowsOf(db.Relation("dim"))
	fact := db.Relation("fact")
	db.SetDatagen("dim", func() (batch.ColProjector, error) {
		if err := db.AddRelation(fact); err != nil {
			return nil, err
		}
		return rowsScan(rows), nil
	})
	p, err := Prepare(db, mustPlan(t, db, sharedJoins[0]), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := sharedKeys(db); n != 0 {
		t.Fatalf("a build drained across a registration was published (%d keys)", n)
	}
	runtime.KeepAlive(p)
}

// TestSharedBuildsConcurrent races Prepare and Execute — each goroutine on
// its own plans, over the build leaf two of sharedJoins share and the two
// leaves only one query uses — against each other (run it under -race):
// every answer and annotated tree equals the ad hoc execution's, however
// its builds were come by.
func TestSharedBuildsConcurrent(t *testing.T) {
	oversubscribe(t, 4)
	db := bigStarDatabase(t, 500)
	opts := ExecOptions{SampleLimit: 5, BatchSize: 64}
	const goroutines, rounds = 4, 24
	var plans [goroutines][]*Plan
	for g := range plans {
		for _, sql := range sharedJoins {
			plans[g] = append(plans[g], mustPlan(t, db, sql))
		}
	}
	var wants []*ExecResult
	for _, sql := range sharedJoins {
		wants = append(wants, execWithf(t, db, sql, opts, execute))
	}

	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				k := (g + i) % len(sharedJoins)
				p, err := Prepare(db, plans[g][k], opts)
				if err != nil {
					t.Error(err)
					return
				}
				o := opts
				o.Parallelism = i % 3
				got, err := p.Execute(o)
				if err != nil {
					t.Error(err)
					return
				}
				want := wants[k]
				if got.Rows != want.Rows || got.Count != want.Count || !reflect.DeepEqual(got.Sample, want.Sample) || !reflect.DeepEqual(got.Root, want.Root) {
					t.Errorf("%s [goroutine %d round %d]: result differs from ad hoc execution", sharedJoins[k], g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
