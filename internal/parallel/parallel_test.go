package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMorselsCoverExactlyOnce(t *testing.T) {
	cases := []struct {
		total, size int64
	}{
		{0, 4},    // empty row space: no morsels
		{3, 16},   // total smaller than one morsel
		{16, 4},   // exact multiple
		{17, 4},   // short final morsel
		{1000, 7}, // many morsels
		{5, 1},    // single-row morsels
		{100, -1}, // default size
		{-5, 4},   // negative total treated as empty
	}
	for _, tc := range cases {
		m := NewMorsels(tc.total, tc.size)
		total := tc.total
		if total < 0 {
			total = 0
		}
		covered := make([]int32, total)
		err := RunCtx(context.Background(), 8, func(_ context.Context, worker int) error {
			for {
				lo, hi, ok := m.Next()
				if !ok {
					return nil
				}
				if lo < 0 || hi > total || lo >= hi {
					return fmt.Errorf("bad morsel [%d,%d) of %d", lo, hi, total)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			}
		})
		if err != nil {
			t.Fatalf("total=%d size=%d: %v", tc.total, tc.size, err)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("total=%d size=%d: row %d covered %d times", tc.total, tc.size, i, c)
			}
		}
		if _, _, ok := m.Next(); ok {
			t.Fatalf("total=%d size=%d: morsels not exhausted", tc.total, tc.size)
		}
	}
}

func TestMorselsAscendingAndSized(t *testing.T) {
	m := NewMorsels(103, 10)
	var prev int64 = -1
	for {
		lo, hi, ok := m.Next()
		if !ok {
			break
		}
		if lo <= prev {
			t.Fatalf("morsel lo %d not ascending after %d", lo, prev)
		}
		if hi-lo > 10 {
			t.Fatalf("morsel [%d,%d) exceeds size", lo, hi)
		}
		prev = lo
	}
}

func TestRunWorkerIndices(t *testing.T) {
	var seen [5]int32
	if err := RunCtx(context.Background(), 5, func(_ context.Context, w int) error {
		atomic.AddInt32(&seen[w], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for w, c := range seen {
		if c != 1 {
			t.Fatalf("worker %d ran %d times", w, c)
		}
	}
}

func TestRunReturnsLowestWorkerError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	// Workers 1 and 3 fail; RunCtx must deterministically surface worker
	// 1's error regardless of scheduling.
	for trial := 0; trial < 20; trial++ {
		err := RunCtx(context.Background(), 4, func(_ context.Context, w int) error {
			switch w {
			case 1:
				return errA
			case 3:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("trial %d: got %v, want %v", trial, err, errA)
		}
	}
}

func TestRunClampsWorkerCount(t *testing.T) {
	var n int32
	var mu sync.Mutex
	workers := map[int]bool{}
	if err := RunCtx(context.Background(), 0, func(_ context.Context, w int) error {
		atomic.AddInt32(&n, 1)
		mu.Lock()
		workers[w] = true
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 || !workers[0] {
		t.Fatalf("RunCtx(0) ran %d workers (%v), want exactly worker 0", n, workers)
	}
}

// TestRunCtxCancelsSiblingsOnError: the first worker error cancels the
// shared child context, so sibling workers observe it and drain; the real
// error is returned, never the context errors it triggered.
func TestRunCtxCancelsSiblingsOnError(t *testing.T) {
	boom := errors.New("boom")
	err := RunCtx(context.Background(), 4, func(ctx context.Context, w int) error {
		if w == 2 {
			return boom
		}
		<-ctx.Done() // blocked until the failing sibling cancels us
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunCtx returned %v, want the worker error %v", err, boom)
	}
}

// TestRunCtxLowestNonContextError: with several real failures, the
// lowest-indexed one wins deterministically.
func TestRunCtxLowestNonContextError(t *testing.T) {
	var release sync.WaitGroup
	release.Add(1)
	errOf := func(w int) error { return fmt.Errorf("worker %d failed", w) }
	err := RunCtx(context.Background(), 4, func(ctx context.Context, w int) error {
		if w == 0 {
			// Guarantee worker 3 fails first, so the selection cannot be
			// accidental arrival order.
			release.Wait()
			return errOf(0)
		}
		if w == 3 {
			defer release.Done()
			return errOf(3)
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if err == nil || err.Error() != "worker 0 failed" {
		t.Fatalf("RunCtx returned %v, want the lowest-indexed real error", err)
	}
}

// TestRunCtxExternalCancellation: when the caller's context itself ends,
// its error is returned even if every worker exits cleanly.
func TestRunCtxExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var entered sync.WaitGroup
	entered.Add(2)
	go func() {
		entered.Wait()
		cancel()
	}()
	err := RunCtx(ctx, 2, func(ctx context.Context, w int) error {
		entered.Done()
		<-ctx.Done()
		return nil // clean exit; the pool must still report the cancellation
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx returned %v, want context.Canceled", err)
	}
}

// TestRunCtxWorkerContextError: a worker that surfaces its context error
// after external cancellation yields that same error, not a masked one.
func TestRunCtxWorkerContextError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := RunCtx(ctx, 3, func(ctx context.Context, w int) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunCtx returned %v, want context.DeadlineExceeded", err)
	}
}

// TestRunCtxNoError: all-clean runs return nil and leave the caller's
// context untouched.
func TestRunCtxNoError(t *testing.T) {
	ctx := context.Background()
	var n atomic.Int64
	if err := RunCtx(ctx, 8, func(ctx context.Context, w int) error {
		n.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("RunCtx returned %v, want nil", err)
	}
	if n.Load() != 8 {
		t.Fatalf("ran %d workers, want 8", n.Load())
	}
}
