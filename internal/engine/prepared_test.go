package engine

import (
	"errors"
	"testing"

	"repro/internal/batch"
	"repro/internal/generator"
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
// leave the state claiming the previous tree. The table has a registered
// summary (opts A is answered summary-directly, so the state holds no
// operator tree) and a datagen func that fails on demand (opts B, capped
// below summary-direct, has to open the scan and cannot). Returning to
// opts A used to take the reuse branch — same opts as the last successful
// open — with the evaluator already dropped, and rewound a nil tree.
func TestExecuteInFailedOpenInvalidatesState(t *testing.T) {
	db := saggDB(t)
	rel, tab := db.Summary("m"), db.Schema.Table("m")
	failing := false
	errDatagen := errors.New("datagen unavailable")
	db.SetDatagen("m", func() (batch.ColProjector, error) {
		if failing {
			return nil, errDatagen
		}
		return generator.NewStream(tab, rel), nil
	})
	prep, err := Prepare(db, mustPlan(t, db, "SELECT COUNT(*) FROM m WHERE a < 3"), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var st ExecState
	want, err := prep.ExecuteIn(&st, ExecOptions{})
	if err != nil || want.Path != PathSummary {
		t.Fatalf("opts A: %v, %v; want a summary-direct answer", want, err)
	}
	count := want.Count
	failing = true
	if _, err := prep.ExecuteIn(&st, ExecOptions{Regime: PathPruned}); !errors.Is(err, errDatagen) {
		t.Fatalf("opts B with a failing scan: err = %v, want the datagen error", err)
	}
	got, err := prep.ExecuteIn(&st, ExecOptions{})
	if err != nil || got.Path != PathSummary || got.Count != count {
		t.Fatalf("opts A after the failed open: %+v, %v; want count %d on the summary path", got, err, count)
	}
	// And the state recovers for opts B once the scan opens again.
	failing = false
	if got, err = prep.ExecuteIn(&st, ExecOptions{Regime: PathPruned}); err != nil || got.Count != count {
		t.Fatalf("opts B after recovery: %+v, %v; want count %d", got, err, count)
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
