package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
)

// slowGen is a deterministic, partitionable datagen source for the fact
// table: rows are a pure function of their index, every NextColBatch may
// sleep (simulating a slow regeneration), and batch number fireAt may
// invoke a hook — the seam the mid-query cancellation tests use to cancel
// a context at an exact, schedule-independent point in the scan.
type slowGen struct {
	total  int64
	delay  time.Duration
	fireAt int64        // NextColBatch call number that triggers fire (0 = never)
	fire   func()       // invoked exactly once, from call #fireAt
	calls  atomic.Int64 // NextColBatch calls across all sections
}

func (g *slowGen) open() (batch.ColProjector, error) { return &slowSection{g: g, hi: g.total}, nil }

func (g *slowGen) reset(fireAt int64, fire func()) {
	g.fireAt = fireAt
	g.fire = fire
	g.calls.Store(0)
}

// slowSection is one [lo, hi) sub-range of a slowGen: a scan source that
// is also morsel-partitionable, so it exercises the sequential and parallel
// scan paths alike.
type slowSection struct {
	g       *slowGen
	pos, hi int64
}

func (s *slowSection) NextColBatch(dst *batch.ColBatch, cols []int) bool {
	if n := s.g.calls.Add(1); s.g.fire != nil && n == s.g.fireAt {
		s.g.fire()
	}
	if s.g.delay > 0 {
		time.Sleep(s.g.delay)
	}
	dst.Reset()
	n := int(min(s.hi-s.pos, int64(dst.Cap())))
	if n <= 0 {
		return false
	}
	dst.SetLen(n)
	for _, c := range cols {
		mod := []int64{1 << 62, 4, 10}[c] // row g is (g, g%4, g%10)
		for i, out := 0, dst.Col(c); i < n; i++ {
			out[i] = (s.pos + int64(i)) % mod
		}
	}
	s.pos += int64(n)
	return true
}

func (s *slowSection) Total() int64 { return s.hi }

func (s *slowSection) Section(lo, hi int64) batch.ColProjector {
	return &slowSection{g: s.g, pos: lo, hi: hi}
}

// slowFactDB returns the star database with fact scans streaming from a
// slowGen of total rows.
func slowFactDB(t *testing.T, total int64, delay time.Duration) (*Database, *slowGen) {
	t.Helper()
	db := starDatabase(t)
	g := &slowGen{total: total, delay: delay}
	db.SetDatagen("fact", g.open)
	return db, g
}

// execFront is one way to run a plan under a context; the cancellation
// contract must hold identically at every front.
type execFront struct {
	name string
	run  func(ctx context.Context, db *Database, plan *Plan, opts ExecOptions) (*ExecResult, error)
}

func contextFronts(t *testing.T) []execFront {
	t.Helper()
	oversubscribe(t, 8)
	fronts := []execFront{
		{"ExecuteContext", ExecuteContext},
	}
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		fronts = append(fronts, execFront{
			fmt.Sprintf("ExecuteContext_w%d", w),
			func(ctx context.Context, db *Database, plan *Plan, opts ExecOptions) (*ExecResult, error) {
				opts.Parallelism = w
				return ExecuteContext(ctx, db, plan, opts)
			},
		})
	}
	fronts = append(fronts,
		execFront{"Prepared.ExecuteContext", func(ctx context.Context, db *Database, plan *Plan, opts ExecOptions) (*ExecResult, error) {
			prep, err := Prepare(db, plan, opts)
			if err != nil {
				return nil, err
			}
			return prep.ExecuteContext(ctx, opts)
		}},
		execFront{"Prepared.ExecuteInContext", func(ctx context.Context, db *Database, plan *Plan, opts ExecOptions) (*ExecResult, error) {
			prep, err := Prepare(db, plan, opts)
			if err != nil {
				return nil, err
			}
			var st ExecState
			return prep.ExecuteInContext(ctx, &st, opts)
		}},
	)
	return fronts
}

// leakCheck fails the test if goroutines outlive the body beyond the
// pre-existing count (with retries: runtime bookkeeping and worker
// teardown are asynchronous).
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("goroutine leak: %d before, %d after cancellations", before, n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestCancelPreCanceled: an already-canceled context stops every front
// before meaningful work, including hash-join build drains.
func TestCancelPreCanceled(t *testing.T) {
	defer leakCheck(t)()
	db, _ := slowFactDB(t, 1<<20, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sql := range []string{
		"SELECT COUNT(*) FROM fact WHERE q >= 3",
		// The join's build side is the stored dim table; its probe drain is
		// the canceled part.
		"SELECT COUNT(*) FROM fact, dim WHERE d_fk = d_pk",
	} {
		plan := mustPlan(t, db, sql)
		for _, f := range contextFronts(t) {
			res, err := f.run(ctx, db, plan, ExecOptions{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s on %q: pre-canceled ctx returned (%v, %v), want context.Canceled", f.name, sql, res, err)
			}
		}
	}
}

// TestCancelMidQuery cancels at a deterministic point inside the scan (the
// generator's second batch) and requires every front to stop with
// context.Canceled and no result.
func TestCancelMidQuery(t *testing.T) {
	defer leakCheck(t)()
	db, g := slowFactDB(t, 1<<20, 0)
	plan := mustPlan(t, db, "SELECT COUNT(*) FROM fact WHERE q >= 3")
	for _, f := range contextFronts(t) {
		ctx, cancel := context.WithCancel(context.Background())
		g.reset(2, cancel)
		res, err := f.run(ctx, db, plan, ExecOptions{})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: mid-query cancel returned (%v, %v), want context.Canceled", f.name, res, err)
		}
		if res != nil {
			t.Fatalf("%s: canceled query returned a result", f.name)
		}
	}
}

// TestDeadlineUnwindLatency: a 10ms deadline on a workload that would run
// for many seconds must surface context.DeadlineExceeded fast — the
// batch-boundary check bounds the unwind to one batch's work (the
// acceptance bar is 50ms; the test allows 250ms for loaded CI hosts).
func TestDeadlineUnwindLatency(t *testing.T) {
	defer leakCheck(t)()
	// ~1<<20 rows at 1024/batch = 1024 batches × 2ms sleep ≈ 2s of work.
	db, _ := slowFactDB(t, 1<<20, 2*time.Millisecond)
	plan := mustPlan(t, db, "SELECT COUNT(*) FROM fact WHERE q >= 3")
	for _, f := range contextFronts(t) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		res, err := f.run(ctx, db, plan, ExecOptions{})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: deadline returned (%v, %v), want context.DeadlineExceeded", f.name, res, err)
		}
		if elapsed > 250*time.Millisecond {
			t.Fatalf("%s: 10ms deadline took %v to unwind", f.name, elapsed)
		}
	}
}

// TestCancelDuringSinkDrain cancels inside a sort's input drain: the sink
// must not pay finish() for the doomed partial state, and the error must
// still be context.Canceled.
func TestCancelDuringSinkDrain(t *testing.T) {
	defer leakCheck(t)()
	db, g := slowFactDB(t, 1<<20, 0)
	plan := mustPlan(t, db, "SELECT * FROM fact ORDER BY q DESC LIMIT 5")
	for _, f := range contextFronts(t) {
		ctx, cancel := context.WithCancel(context.Background())
		g.reset(2, cancel)
		_, err := f.run(ctx, db, plan, ExecOptions{SampleLimit: 5})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancel during sort drain returned %v, want context.Canceled", f.name, err)
		}
	}
}

// TestExecuteInRecoversAfterCancel: a canceled ExecuteInContext leaves the
// reusable state fully usable — the next call on the same state rewinds
// and produces the correct full result, twice (rewind after rewind).
func TestExecuteInRecoversAfterCancel(t *testing.T) {
	const total = 1 << 16
	db, g := slowFactDB(t, total, 0)
	plan := mustPlan(t, db, "SELECT COUNT(*) FROM fact")
	prep, err := Prepare(db, plan, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var st ExecState
	ctx, cancel := context.WithCancel(context.Background())
	g.reset(2, cancel)
	if _, err := prep.ExecuteInContext(ctx, &st, ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ExecuteInContext returned %v, want context.Canceled", err)
	}
	cancel()
	g.reset(0, nil)
	for i := 0; i < 2; i++ {
		res, err := prep.ExecuteIn(&st, ExecOptions{})
		if err != nil {
			t.Fatalf("ExecuteIn after cancel (run %d): %v", i, err)
		}
		if res.Count != total {
			t.Fatalf("ExecuteIn after cancel (run %d): count %d, want %d — cancellation poisoned the state", i, res.Count, total)
		}
	}
}

// TestCancelResultParity: execution under a live, never-canceled context
// with a generous deadline is byte-identical to execution under
// context.Background() — the plumbing is free when unused.
func TestCancelResultParity(t *testing.T) {
	db := starDatabase(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, sql := range parallelQueries {
		plan := mustPlan(t, db, sql)
		want, err := execute(db, plan, ExecOptions{SampleLimit: 7})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExecuteContext(ctx, db, plan, ExecOptions{SampleLimit: 7})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, sql+" [live context]", got, want)
	}
}
