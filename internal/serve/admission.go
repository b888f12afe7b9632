package serve

import (
	"context"
	"sync/atomic"
	"time"
)

// Admission control: a channel semaphore bounding concurrent query
// executions, fronted by a bounded wait queue. Under overload the server
// degrades deterministically instead of collapsing: up to MaxInFlight
// queries execute, up to MaxQueue more wait at most queueWait for a slot,
// and everything beyond that is shed immediately with 429 — a fast failure
// the client can retry, which keeps the latency of admitted work bounded
// (the E15 overload experiment measures exactly this).
//
// Draining is part of the same state machine: once beginDrain flips the
// flag, every acquire — fresh or already queued — resolves to
// admitDraining (503), so a shutdown only has to wait for work that was
// already admitted.
//
//	acquire ─┬─ draining ──────────────────────────→ admitDraining (503)
//	         ├─ slot free ─────────────────────────→ admitOK
//	         ├─ queue full ────────────────────────→ admitQueueFull (429)
//	         └─ queued ─┬─ slot freed in time ─────→ admitOK
//	                    ├─ queueWait elapsed ──────→ admitQueueTimeout (429)
//	                    ├─ caller ctx done ────────→ admitCanceled (499)
//	                    └─ drain began ────────────→ admitDraining (503)
type admission struct {
	sem       chan struct{} // nil = unlimited (admission by draining flag only)
	queueWait time.Duration
	maxQueue  int64

	queued   atomic.Int64 // current waiters, also the /metricsz queue gauge
	draining atomic.Bool
	drainCh  chan struct{} // closed by beginDrain, wakes queued waiters
}

// admitOutcome is the resolution of one acquire.
type admitOutcome int

const (
	admitOK admitOutcome = iota
	admitQueueFull
	admitQueueTimeout
	admitCanceled
	admitDraining
)

// DefaultQueueWait bounds how long an admitted-queue request waits for an
// execution slot when Options.QueueWait is zero. Long enough to absorb a
// burst one in-flight query wide, short enough that a shed response is
// still a fast failure.
const DefaultQueueWait = 100 * time.Millisecond

func newAdmission(maxInFlight, maxQueue int, queueWait time.Duration) *admission {
	a := &admission{
		maxQueue: int64(maxQueue),
		drainCh:  make(chan struct{}),
	}
	if maxInFlight > 0 {
		a.sem = make(chan struct{}, maxInFlight)
	}
	switch {
	case queueWait == 0:
		a.queueWait = DefaultQueueWait
	case queueWait > 0:
		a.queueWait = queueWait
	default:
		a.queueWait = 0 // negative: never wait, shed immediately
	}
	return a
}

// acquire claims an execution slot, queuing within the configured bounds.
// Every admitOK must be paired with exactly one release.
func (a *admission) acquire(ctx context.Context) admitOutcome {
	if a.draining.Load() {
		return admitDraining
	}
	if a.sem == nil {
		return admitOK
	}
	select {
	case a.sem <- struct{}{}:
		return admitOK
	default:
	}
	// No free slot: join the bounded queue, or shed.
	if a.maxQueue <= 0 || a.queueWait <= 0 {
		return admitQueueFull
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		return admitQueueFull
	}
	defer a.queued.Add(-1)
	timer := time.NewTimer(a.queueWait)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		if a.draining.Load() {
			// Drain began while we waited; hand the slot back so shutdown
			// does not count us as admitted work.
			<-a.sem
			return admitDraining
		}
		return admitOK
	case <-timer.C:
		return admitQueueTimeout
	case <-ctx.Done():
		return admitCanceled
	case <-a.drainCh:
		return admitDraining
	}
}

// release returns an execution slot claimed by an admitOK acquire.
func (a *admission) release() {
	if a.sem != nil {
		<-a.sem
	}
}

// beginDrain flips the admission state machine into draining: every
// subsequent (and every currently queued) acquire resolves to
// admitDraining. Idempotent.
func (a *admission) beginDrain() {
	if a.draining.CompareAndSwap(false, true) {
		close(a.drainCh)
	}
}
