// Package parallel is Hydra's morsel-driven parallelism subsystem. Because
// every relation is a pure function of its summary — atom i's tuples occupy
// a fixed, contiguous primary-key interval — generation (and therefore
// dataless query execution) is embarrassingly partitionable: any row range
// [lo, hi) of a relation can be produced independently of any other. This
// package supplies the two scheduling primitives the engine's parallel
// executor builds on:
//
//   - Morsels: an atomic work queue handing out contiguous row ranges
//     ("morsels", after Leis et al.'s morsel-driven parallelism) of a
//     relation's [0, Total) row space, so workers self-balance instead of
//     being assigned static partitions.
//   - RunCtx: a fixed worker pool that runs one function per worker under
//     a shared context, cancels the siblings of a failing worker, and
//     picks the error to return deterministically (lowest worker index).
//
// The Source interface names the contract a scan source must satisfy to be
// morsel-partitionable; generator.Stream and the engine's stored-relation
// cursor both implement it.
package parallel

import (
	"context"
	"errors"
	"sync"
)

// RunCtx executes fn on n concurrent workers (n < 1 is treated as 1),
// passing each its worker index in [0, n), and waits for all of them.
// Workers receive a child context that is canceled as soon as any worker
// returns an error, so siblings drain at
// their next cooperative check instead of finishing doomed work; every
// worker always runs to return and is always waited for — cancellation
// never leaks a goroutine.
//
// The lowest-index error convention extends to cancellation
// deterministically: the lowest-indexed worker error that is not a context
// error wins (a real failure is never masked by the sibling cancellations
// it triggered); otherwise, if ctx ended, its error —
// context.Canceled or context.DeadlineExceeded — is returned regardless of
// which workers noticed before exiting cleanly; otherwise the
// lowest-indexed worker error, if any.
func RunCtx(ctx context.Context, n int, fn func(ctx context.Context, worker int) error) error {
	if n < 1 {
		n = 1
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := fn(wctx, w); err != nil {
				errs[w] = err
				cancel()
			}
		}(w)
	}
	wg.Wait()
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return ctxErr
}
