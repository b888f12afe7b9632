package hydra

// The one enumerator of execution entry points the parity suites share.
// Each suite keeps only its own comparison; which entry points exist, at
// which worker counts, is decided here.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/engine"
)

// frontWorkers is the Parallelism sweep: sequential, the parallel branch
// with one worker and with two (what the benchmark runs), and two
// oversubscribed counts.
var frontWorkers = []int{0, 1, 2, 4, 8}

// oversubscribe raises GOMAXPROCS to n for the rest of the test, so worker
// counts up to n survive ExecOptions.Normalize's clamp on a small box:
// Parallelism has one meaning on every entry point, and more workers than
// cores comes from more Ps, not from an entry point that skips the clamp.
func oversubscribe(t testing.TB, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// mustMaterialize stores every table the summary regenerates.
func mustMaterialize(t testing.TB, sum *Summary) *Database {
	t.Helper()
	mat, err := Materialize(sum)
	if err != nil {
		t.Fatal(err)
	}
	return mat
}

// oracle runs sql on the materialized database under full regeneration —
// stored tuples, every scan whole, every filter an operator — keeping
// sampleLimit rows: the answer HYDRA's regenerated database is judged by.
func oracle(t testing.TB, mat *Database, sql string, sampleLimit int) *ExecResult {
	t.Helper()
	res, err := Query(mat, sql, ExecOptions{Regime: engine.PathRegen, SampleLimit: sampleLimit})
	if err != nil {
		t.Fatalf("%s [materialized]: %v", sql, err)
	}
	return res
}

// eachFront runs (sql, opts) through every way the engine executes a query
// — {fresh, prepared, steady} × {seq, par}: Query (ad hoc: empty caches,
// fresh state), Prepared.Execute (prepared builds, fresh state) and
// Prepared.ExecuteIn three rounds on one reused state, each at every
// frontWorkers count (overriding opts.Parallelism) — and hands each
// labelled result to check while it is still valid (an ExecuteIn result
// aliases its state). The regime axis is opts.Regime, the caller's. Any
// execution error fails the test.
func eachFront(t *testing.T, db *Database, sql string, opts ExecOptions, check func(label string, res *ExecResult)) {
	t.Helper()
	oversubscribe(t, frontWorkers[len(frontWorkers)-1])
	prep, err := Prepare(db, sql, opts)
	if err != nil {
		t.Fatalf("%s [Prepare]: %v", sql, err)
	}
	for _, w := range frontWorkers {
		opts.Parallelism = w
		got := func(entry string, res *ExecResult, err error) {
			t.Helper()
			label := fmt.Sprintf("%s [%s regime=%q batch=%d workers=%d]", sql, entry, opts.Regime, opts.BatchSize, w)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check(label, res)
		}
		res, err := Query(db, sql, opts)
		got("Query", res, err)
		res, err = prep.Execute(opts)
		got("Prepared.Execute", res, err)
		var st ExecState
		for round := 0; round < 3; round++ {
			res, err = prep.ExecuteIn(&st, opts)
			got(fmt.Sprintf("Prepared.ExecuteIn#%d", round), res, err)
		}
	}
}
