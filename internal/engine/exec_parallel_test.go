package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/batch"
	"repro/internal/sqlkit"
	"repro/internal/trace"
)

// bigStarDatabase stores enough fact rows that small batch sizes split the
// scan into many morsels across workers.
func bigStarDatabase(t *testing.T, factRows int) *Database {
	t.Helper()
	s := starSchema()
	s.Table("fact").RowCount = int64(factRows)
	s.Table("fact").Columns[0].DomainHi = int64(factRows)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(s)
	dim := &Relation{Table: s.Table("dim")}
	for _, row := range [][]int64{{0, 10}, {1, 20}, {2, 30}, {3, 40}} {
		if err := dim.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	fact := &Relation{Table: s.Table("fact")}
	for i := 0; i < factRows; i++ {
		if err := fact.Append([]int64{int64(i), int64(i % 4), int64(i % 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddRelation(dim); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(fact); err != nil {
		t.Fatal(err)
	}
	return db
}

// execute is the ctx-free spelling of the package's ad-hoc entry point, for
// tests that have no context to pass.
func execute(db *Database, plan *Plan, opts ExecOptions) (*ExecResult, error) {
	return ExecuteContext(context.Background(), db, plan, opts)
}

// oversubscribe raises GOMAXPROCS to n for the rest of the test, so worker
// counts up to n survive Normalize's clamp on a small box: Parallelism has
// one meaning, and more workers than cores comes from more Ps.
func oversubscribe(t testing.TB, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

func mustPlan(t *testing.T, db *Database, sql string) *Plan {
	t.Helper()
	q, err := sqlkit.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := BuildPlan(db.Schema, q)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return plan
}

func requireIdentical(t *testing.T, label string, got, want *ExecResult) {
	t.Helper()
	if got.Rows != want.Rows || got.Count != want.Count {
		t.Fatalf("%s: rows/count = %d/%d, want %d/%d", label, got.Rows, got.Count, want.Rows, want.Count)
	}
	if !reflect.DeepEqual(got.Sample, want.Sample) {
		t.Fatalf("%s: samples differ:\n got %v\nwant %v", label, got.Sample, want.Sample)
	}
	if !reflect.DeepEqual(got.Root, want.Root) {
		t.Fatalf("%s: exec trees differ:\n got %+v\nwant %+v", label, got.Root, want.Root)
	}
}

// parallelQueries covers every spine shape: bare scan, filtered scan,
// join, filtered join, and COUNT(*) variants of each. Only a sink drains
// its spine on workers: the sinkless entries (rows flowing out of the spine,
// under a LIMIT or not) pin the sequential fallback at every worker count.
var parallelQueries = []string{
	"SELECT * FROM fact",
	"SELECT COUNT(*) FROM fact",
	"SELECT * FROM fact WHERE q >= 3",
	"SELECT COUNT(*) FROM fact WHERE q >= 3",
	"SELECT * FROM fact, dim WHERE d_fk = d_pk",
	"SELECT COUNT(*) FROM fact, dim WHERE d_fk = d_pk AND a >= 20 AND q < 7",
	"SELECT COUNT(*) FROM fact WHERE q >= 100", // empty result
	// Grouped spines: partial aggregation per worker, deterministic merge.
	"SELECT d_fk, COUNT(*), SUM(q), MIN(q), MAX(q), AVG(q) FROM fact GROUP BY d_fk",
	"SELECT a, COUNT(*) FROM fact, dim WHERE d_fk = d_pk AND q < 7 GROUP BY a",
	"SELECT COUNT(q), SUM(q) FROM fact",
	"SELECT d_fk, SUM(q) FROM fact WHERE q >= 100 GROUP BY d_fk", // empty input
	// Sink stacks over the spine: per-worker sort partials (full and
	// top-K), distinct partials, and their compositions, with sinkless
	// LIMITs among them — all byte-identical to sequential at any worker
	// count.
	"SELECT * FROM fact ORDER BY q DESC",
	"SELECT * FROM fact, dim WHERE d_fk = d_pk ORDER BY a DESC, q",
	"SELECT * FROM fact ORDER BY q DESC LIMIT 7 OFFSET 2",
	"SELECT * FROM fact LIMIT 9",
	"SELECT * FROM fact WHERE q >= 3 LIMIT 11 OFFSET 5",
	"SELECT * FROM fact LIMIT 5 OFFSET 100000", // offset past end
	"SELECT * FROM fact LIMIT 0",
	"SELECT COUNT(*) FROM fact LIMIT 1",
	"SELECT DISTINCT q FROM fact",
	"SELECT DISTINCT d_fk, q FROM fact WHERE q >= 3",
	"SELECT DISTINCT q FROM fact ORDER BY q DESC LIMIT 3",
	"SELECT d_fk, COUNT(*) FROM fact GROUP BY d_fk ORDER BY d_fk DESC LIMIT 2 OFFSET 1",
	// LIMIT edge cases over a sink, so they reach the parallel drain.
	"SELECT * FROM fact ORDER BY q LIMIT 5 OFFSET 100000", // offset past end
	"SELECT * FROM fact ORDER BY q LIMIT 0",
	"SELECT * FROM fact WHERE q >= 3 ORDER BY q, d_fk LIMIT 11 OFFSET 5",
}

// TestParallelStoredParity holds morsel-parallel execution over
// stored relations to byte-identical results vs the sequential batched
// executor, across worker counts (including oversubscription) and batch
// sizes that force many small morsels.
func TestParallelStoredParity(t *testing.T) {
	oversubscribe(t, 8)
	db := bigStarDatabase(t, 5000)
	for _, sql := range parallelQueries {
		plan := mustPlan(t, db, sql)
		for _, size := range []int{0, 3, 64} {
			seqOpts := ExecOptions{SampleLimit: 7, BatchSize: size}
			want, err := execute(db, plan, seqOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4, 8} {
				opts := seqOpts
				opts.Parallelism = w
				got, err := execute(db, plan, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("%s [batch=%d workers=%d]", sql, size, w), got, want)
			}
		}
	}
}

// TestParallelFallback drives plans whose scan source cannot be
// partitioned (a caller-supplied datagen closure) sequentially, with
// identical results — and without invoking the DatagenFunc a
// second time (its contract is one invocation per scan).
func TestParallelFallback(t *testing.T) {
	oversubscribe(t, 4)
	db := bigStarDatabase(t, 200)
	rows := rowsOf(db.Relation("fact"))
	var opened int
	db.SetDatagen("fact", func() (batch.ColProjector, error) {
		opened++
		return batch.FromRows(&sliceOpaque{rows: rows}), nil
	})
	for _, sql := range []string{
		"SELECT COUNT(*) FROM fact WHERE q >= 3",
		"SELECT * FROM fact",
		// Sink plans fall back the same way: a spine whose leaf cannot be
		// partitioned is drained in place by its sink.
		"SELECT * FROM fact ORDER BY q DESC LIMIT 3",
		"SELECT DISTINCT q FROM fact",
	} {
		plan := mustPlan(t, db, sql)
		want, err := execute(db, plan, ExecOptions{SampleLimit: 5})
		if err != nil {
			t.Fatal(err)
		}
		opened = 0
		got, err := execute(db, plan, ExecOptions{SampleLimit: 5, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, sql+" [fallback]", got, want)
		if opened != 1 {
			t.Fatalf("%s: fallback invoked the datagen func %d times, want 1", sql, opened)
		}
	}
}

// sliceOpaque is a row-at-a-time producer: behind batch.FromRows it offers
// the scan contract and none of the seek or partition capabilities.
type sliceOpaque struct {
	rows [][]int64
	i    int
}

func (s *sliceOpaque) Next() ([]int64, bool) {
	if s.i >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.i]
	s.i++
	return r, true
}

func TestExecOptionsValidation(t *testing.T) {
	db := starDatabase(t)
	plan := mustPlan(t, db, "SELECT COUNT(*) FROM fact")
	prep, err := Prepare(db, plan, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var st ExecState
	for _, exec := range []struct {
		name string
		f    func(*Database, *Plan, ExecOptions) (*ExecResult, error)
	}{
		{"ExecuteContext", execute},
		{"Prepare", func(db *Database, plan *Plan, opts ExecOptions) (*ExecResult, error) {
			_, err := Prepare(db, plan, opts)
			return nil, err
		}},
		{"Prepared.Execute", func(_ *Database, _ *Plan, opts ExecOptions) (*ExecResult, error) { return prep.Execute(opts) }},
		{"Prepared.ExecuteIn", func(_ *Database, _ *Plan, opts ExecOptions) (*ExecResult, error) { return prep.ExecuteIn(&st, opts) }},
	} {
		// The regime vocabulary is a ceiling: "summary" is the zero value's
		// meaning, not a fourth word.
		for _, bad := range []ExecOptions{{BatchSize: -1}, {Regime: PathSummary}, {Regime: "fast"}} {
			if _, err := exec.f(db, plan, bad); !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("%s: %+v returned %v, want ErrInvalidOptions", exec.name, bad, err)
			}
		}
	}
}

func TestExecOptionsNormalizeClampsParallelism(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct {
		in, want int
	}{
		{-5, 0},
		{0, 0},
		{max, max},
		{max + 7, max},
	}
	for _, tc := range cases {
		got, err := (ExecOptions{Parallelism: tc.in}).Normalize()
		if err != nil {
			t.Fatalf("Parallelism %d: %v", tc.in, err)
		}
		if got.Parallelism != tc.want {
			t.Fatalf("Parallelism %d normalized to %d, want %d", tc.in, got.Parallelism, tc.want)
		}
	}
	if _, err := (ExecOptions{BatchSize: -3}).Normalize(); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Normalize(BatchSize -3) = %v, want ErrInvalidOptions", err)
	}
}

// TestExecuteDispatchesOnParallelism checks the wiring: ExecuteContext
// with Parallelism >= 2 must produce the same result object shape as the
// sequential default (a smoke check that the dispatch itself is sound).
func TestExecuteDispatchesOnParallelism(t *testing.T) {
	oversubscribe(t, 2)
	db := bigStarDatabase(t, 1000)
	plan := mustPlan(t, db, "SELECT COUNT(*) FROM fact, dim WHERE d_fk = d_pk AND q >= 2")
	want, err := execute(db, plan, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := execute(db, plan, ExecOptions{Parallelism: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "dispatch", got, want)
}

// TestOneWorkerDrainsInPlace pins that Parallelism 1 drains the sink's
// spine as the sequential executor does, not on a one-worker pool: morsels
// would cut the scan into sections, and a section boundary inside a batch
// adds a batch, so every span's batch count must match the sequential run.
func TestOneWorkerDrainsInPlace(t *testing.T) {
	db := bigStarDatabase(t, 5000)
	plan := mustPlan(t, db, "SELECT COUNT(*) FROM fact WHERE q >= 3")
	var spans [2][]*trace.Span
	for i, w := range []int{0, 1} {
		res, err := execute(db, plan, ExecOptions{BatchSize: 64, Trace: true, Parallelism: w})
		if err != nil {
			t.Fatal(err)
		}
		trace.Walk(res.Trace, func(sp *trace.Span) { spans[i] = append(spans[i], sp) })
	}
	if len(spans[0]) != len(spans[1]) {
		t.Fatalf("span trees differ: %d spans sequential, %d at one worker", len(spans[0]), len(spans[1]))
	}
	for i, want := range spans[0] {
		if got := spans[1][i]; got.Op != want.Op || got.Batches != want.Batches || got.Rows != want.Rows {
			t.Fatalf("%s: one worker read %d batches / %d rows, sequential %s %d / %d", got.Op, got.Batches, got.Rows, want.Op, want.Batches, want.Rows)
		}
	}
}
