package trace

import (
	"strings"
	"testing"
	"time"
)

// TestSpanReset pins the span lifecycle: Observe accumulates, Span.Reset
// zeroes counters and window while keeping identity (Op, Detail, Children),
// Recorder.Reset only re-bases the epoch, and none of them allocates.
func TestSpanReset(t *testing.T) {
	r := NewRecorder()
	a := r.NewSpan("SCAN", "t")
	b := r.NewSpan("FILTER", "p")
	b.Children = append(b.Children, a)

	a.Begin()
	time.Sleep(time.Millisecond)
	a.Observe(10, 80)
	a.Begin()
	a.Observe(5, 40)
	b.Begin()
	b.ObserveEmpty()
	if a.Rows != 15 || a.Batches != 2 || a.Bytes != 120 {
		t.Fatalf("observe accumulation wrong: %+v", a)
	}
	if a.DurNS <= 0 || !a.started || a.StopNS < a.StartNS {
		t.Fatalf("observe window wrong: %+v", a)
	}

	r.Reset()
	if a.Rows != 15 || b.DurNS <= 0 {
		t.Fatalf("recorder reset touched span counters: %+v %+v", a, b)
	}
	a.Reset()
	b.Reset()
	if a.Rows != 0 || a.Batches != 0 || a.Bytes != 0 || a.DurNS != 0 || a.started || a.StartNS != 0 || a.StopNS != 0 || b.DurNS != 0 {
		t.Fatalf("span reset did not zero counters: %+v %+v", a, b)
	}
	if a.Op != "SCAN" || a.Detail != "t" || len(b.Children) != 1 || b.Children[0] != a {
		t.Fatalf("span reset destroyed identity: %+v %+v", a, b)
	}

	// Observe and both resets on live spans allocate nothing.
	allocs := testing.AllocsPerRun(100, func() {
		a.Begin()
		a.Observe(3, 24)
		b.Begin()
		b.ObserveEmpty()
		r.Reset()
		a.Reset()
		b.Reset()
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.2f objects per run, want 0", allocs)
	}
}

// TestSelfTimeAndDetach pins the derived self-time math: nested children
// subtract from the parent's inclusive time, detached children do not, and
// clock-granularity underflow clamps at zero.
func TestSelfTimeAndDetach(t *testing.T) {
	r := NewRecorder()
	child := r.NewSpan("SCAN", "")
	build := r.NewSpan("FILTER", "")
	parent := r.NewSpan("HASH JOIN", "")
	parent.Children = []*Span{child, build}
	build.Detached = true

	parent.DurNS = 1000
	child.DurNS = 300
	build.DurNS = 9999 // detached: spent outside the parent's Next window
	if got := parent.SelfNS(); got != 700 {
		t.Fatalf("SelfNS = %d, want 700 (detached child excluded)", got)
	}
	child.DurNS = 2000 // clock granularity can overshoot the parent
	if got := parent.SelfNS(); got != 0 {
		t.Fatalf("SelfNS = %d, want 0 (clamped)", got)
	}
}

// TestMerge pins the parallel worker-order merge: counters sum, windows
// widen, and merging an unstarted span changes nothing.
func TestMerge(t *testing.T) {
	r := NewRecorder()
	dst := r.NewSpan("SCAN", "")
	w1 := r.NewSpan("SCAN", "")
	w2 := r.NewSpan("SCAN", "")
	w1.started, w1.StartNS, w1.StopNS, w1.DurNS, w1.Rows, w1.Batches, w1.Bytes = true, 100, 200, 100, 10, 1, 80
	w2.started, w2.StartNS, w2.StopNS, w2.DurNS, w2.Rows, w2.Batches, w2.Bytes = true, 50, 400, 350, 20, 2, 160

	dst.Merge(w1)
	dst.Merge(w2)
	dst.Merge(nil)
	dst.Merge(r.NewSpan("SCAN", "")) // never started: no window effect
	if dst.Rows != 30 || dst.Batches != 3 || dst.Bytes != 240 || dst.DurNS != 450 {
		t.Fatalf("merge sums wrong: %+v", dst)
	}
	if dst.StartNS != 50 || dst.StopNS != 400 {
		t.Fatalf("merge window wrong: [%d,%d], want [50,400]", dst.StartNS, dst.StopNS)
	}
}

// TestTopSelf pins deterministic top-K selection by self time.
func TestTopSelf(t *testing.T) {
	r := NewRecorder()
	root := r.NewSpan("LIMIT", "")
	mid := r.NewSpan("SORT", "")
	leaf := r.NewSpan("SCAN", "")
	root.Children = []*Span{mid}
	mid.Children = []*Span{leaf}
	root.DurNS, mid.DurNS, leaf.DurNS = 1000, 900, 600
	// Self: root=100, mid=300, leaf=600.
	got := TopSelf(root, 2)
	if len(got) != 2 || got[0] != leaf || got[1] != mid {
		t.Fatalf("TopSelf = %v", got)
	}
	if all := TopSelf(root, 10); len(all) != 3 {
		t.Fatalf("TopSelf over-k returned %d spans", len(all))
	}
}

// TestRender pins the rendered tree's load-bearing pieces: box drawing,
// operator lines, selectivity, and the detached marker.
func TestRender(t *testing.T) {
	r := NewRecorder()
	root := r.NewSpan("FILTER", "x > 3")
	leaf := r.NewSpan("SCAN", "t")
	det := r.NewSpan("SCAN", "frozen")
	root.Children = []*Span{leaf, det}
	det.Detached = true
	root.DurNS, root.Rows, root.Batches = 5000, 50, 1
	leaf.DurNS, leaf.Rows, leaf.Batches, leaf.Bytes = 4000, 100, 1, 800
	det.Rows = 7

	out := Render(root)
	for _, want := range []string{
		"FILTER x > 3", "rows=50", "sel=", "├── SCAN t", "bytes=800", "└── SCAN frozen", "detached",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if Render(nil) != "" {
		t.Fatal("rendering a nil span produced output")
	}
}
