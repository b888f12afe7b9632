package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented by this package).
// Spans of one op share Op; Parent is the span that made the call, or -1.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps a traced slice's spans in memory until the run ends. A
// nil *recorder records nothing, so traced and untraced code share one
// call path where they can. The mutex is for the serve workloads, whose
// handler spans are recorded on the server's goroutines.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// newRecorder sizes the span buffer up front so that growing it does not
// land inside a span.
func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: op, ID: id, Parent: parent, StartNS: int64(time.Since(r.epoch))})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].EndNS = end
	r.mu.Unlock()
}

// stageTotals sums, per span name, each span's self time: its duration
// minus the part its child spans cover.
func (r *recorder) stageTotals() map[string]time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range r.spans {
		out[s.Name] += self[i]
	}
	return out
}

// durations lists the durations of every span called name, in op order.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// checkCoverage fails when the stages recorded under the root spans
// account for less than 95% of the roots' own time: a ledger whose parts
// do not sum to the whole attributes time to nobody.
func (r *recorder) checkCoverage(root string) error {
	var whole, parts time.Duration
	for _, s := range r.spans {
		if s.Name == root {
			whole += s.dur()
		} else if s.Parent >= 0 && r.spans[s.Parent].Name == root {
			parts += s.dur()
		}
	}
	if whole > 0 && float64(parts) < 0.95*float64(whole) {
		return fmt.Errorf("traced stages cover %.1f%% of the %q spans, want at least 95%%", 100*float64(parts)/float64(whole), root)
	}
	return nil
}

// write stores the spans as dir/trace-<workload>.json.
func (r *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
