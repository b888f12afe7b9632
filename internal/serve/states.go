package serve

import (
	"runtime"
	"sync"

	"repro/internal/engine"
)

// statePool keeps the execution states of finished requests for the next
// ones. A request takes the most recently returned state (or a fresh one
// when none is idle), runs in it with Prepared.ExecuteInContext, and gives
// it back once its response is encoded. The engine rewinds the state when
// its last request ran the same Prepared with the same options, and
// otherwise reopens it over the column storage it already holds, so a
// request allocates little of its own execution state whichever plan it
// runs, and a hit on the last plan allocates none. The pool holds its states
// strongly and keeps at most GOMAXPROCS of them: no more queries than that
// run at once, and a state beyond that cap is left to the collector. Its
// size therefore depends on neither the cache's size nor the collector's
// timing: it is what many requests at once leave behind, and on one P it
// is one state.
type statePool struct {
	mu   sync.Mutex
	idle []*engine.ExecState
}

// get returns an idle state, or a fresh one when none is idle.
func (p *statePool) get() *engine.ExecState {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return new(engine.ExecState)
	}
	st := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return st
}

// put returns st for a later request. Its caller must no longer touch st,
// nor anything its last result aliases.
func (p *statePool) put(st *engine.ExecState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) < runtime.GOMAXPROCS(0) {
		p.idle = append(p.idle, st)
	}
}
