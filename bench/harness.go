package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// runner is one workload, prepared: its inputs are generated, its expected
// answers known, its server (if any) up.
type runner interface {
	// slice runs len(lat) ops of the workload's fixed sequence as a closed
	// loop and stores op i's latency in lat[i]. Every full slice of a run
	// is the same ops, so counts repeat exactly. With rec set it
	// runs the traced path: the same work, called stage by stage with a
	// span around each. failed counts ops whose answer was wrong or
	// missing; err reports a broken regime guard and ends the run.
	slice(rec *recorder, lat []time.Duration) (failed int, err error)
	// layers writes the workload's per-layer rows from the traced slice's
	// spans and whatever it measures on the side.
	layers(l ledger, rec *recorder, base *phase) error
	close()
}

// workload is one entry of the benchmark's workload list.
type workload struct {
	name     string
	sliceOps int // ops in one slice at full size
	// sliceSec is about what such a slice takes on the quiet 2-core
	// reference box, rounded up. -seconds is counted in these, never in
	// clock time.
	sliceSec float64
	// procs is the GOMAXPROCS the workload runs under, warm-up to traced
	// slice; the set-up always runs under one.
	procs  int
	minOps int // floor on the slice size, which -quick may not go below
	prep   func(e *env, sliceOps int) (runner, error)
}

// sliceStat is what one timed slice measured.
type sliceStat struct {
	p50     time.Duration
	opsPerS float64
	cpuMS   float64 // process user+sys time per op
	allocKB float64 // bytes allocated per op
	gc      uint32
}

// latPool bounds the op latencies a run keeps for e2e.op_p99_ms. The pool
// is live when heap_mb is read, so it has a fixed size: one that grew with
// the number of slices was a third of serve_hot's heap.
const latPool = 1 << 14

// phase is a run's untraced slices.
type phase struct {
	slices []sliceStat
	lat    []time.Duration // op latencies pooled over slices, the first latPool of them
	heapMB float64
}

func (p *phase) samples(f func(sliceStat) float64) []float64 {
	out := make([]float64, len(p.slices))
	for i, s := range p.slices {
		out[i] = f(s)
	}
	return out
}

func (p *phase) p50ms() []float64 {
	return p.samples(func(s sliceStat) float64 { return ms(s.p50) })
}

func (p *phase) cpuMS() []float64 {
	return p.samples(func(s sliceStat) float64 { return s.cpuMS })
}

// setQuietest records the value of the quietest slice — the smallest of
// samples, or the largest when more is better — corrected by the run's box
// factor, with the slice-to-slice spread beside it. On a shared box
// interference only ever slows a slice down, in bursts shorter than a run
// and phases longer than one. The median over slices follows both (it
// moved 82→117 ms on regen_full where the minimum moved 82→92), so a
// timing is taken from the slice the neighbours disturbed least, which
// removes the bursts, and divided by the box factor, which removes the
// phases. The number of slices is fixed (workload.slices), so the smallest
// of them is the same statistic on every run. Counts, which interference
// cannot move, are medians.
func (l ledger) setQuietest(name string, samples []float64, better string, boxFactor float64) {
	best := slices.Min(samples) / boxFactor
	if better == "higher" {
		best = slices.Max(samples) * boxFactor
	}
	l.set(name, best, len(samples), spread(samples))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeSlice runs one slice and measures it from outside: wall clock,
// process CPU, bytes allocated and GC cycles, each over the whole slice.
func timeSlice(r runner, rec *recorder, lat []time.Duration) (sliceStat, int, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuTime(), time.Now()
	failed, err := r.slice(rec, lat)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&after)
	n := float64(len(lat))
	return sliceStat{
		p50:     percentile(sortedCopy(lat), 0.50),
		opsPerS: n / wall.Seconds(),
		cpuMS:   ms(cpu) / n,
		allocKB: float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n,
		gc:      after.NumGC - before.NumGC,
	}, failed, err
}

// minSlices is the least number of slices a run measures of a workload.
const minSlices = 3

// outcome is one workload's result.
type outcome struct {
	ledger            ledger
	attempted, failed int
	boxFactor         float64 // what the run's timings were divided by
}

// workloadRun is one workload's measurement across the rounds of a run.
// Each round prepares the workload afresh on that round's set-up, warms it
// up and measures its share of the budget; the untraced slices of all
// rounds are one pool. The last round also runs the traced slice and
// writes the ledger.
type workloadRun struct {
	w                 workload
	base              phase
	attempted, failed int // ops of every slice: warm-up, untraced, traced
}

func newWorkloadRun(w workload) *workloadRun {
	return &workloadRun{w: w, base: phase{lat: make([]time.Duration, 0, latPool)}}
}

// slices is how many untraced slices one round of a run measures: the
// round's share of -seconds counted in nominal slice lengths. The clock has
// no say, so a run does the same work, and chooses its quietest slice from
// the same number of draws, on a quiet box and a busy one, on the parent
// and on the change.
func (w workload) slices(cfg config) int {
	budget := cfg.seconds
	if !cfg.untraced {
		// A ledger-only run needs the untraced slices just as the base the
		// traced slice is compared with.
		budget /= 2
	}
	atLeast := (minSlices + cfg.rounds - 1) / cfg.rounds
	return max(int(budget/float64(cfg.rounds)/w.sliceSec+0.5), atLeast)
}

// measure adds n untraced slices of len(lat) ops to the pool, with a
// sample of the reference before each and after the last, then reads the
// live heap: the bytes of reachable objects after a forced collection.
func (wr *workloadRun) measure(r runner, lat []time.Duration, n int, ref *reference) error {
	p := &wr.base
	for ; n > 0; n-- {
		ref.sample()
		st, failed, err := timeSlice(r, nil, lat)
		if err != nil {
			return err
		}
		p.slices = append(p.slices, st)
		p.lat = append(p.lat, lat[:min(len(lat), latPool-len(p.lat))]...)
		wr.attempted += len(lat)
		wr.failed += failed
	}
	ref.sample()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heapMB = float64(m.HeapAlloc) / (1 << 20)
	return nil
}

func (wr *workloadRun) round(e *env, last bool) (*outcome, error) {
	cfg := e.cfg
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wr.w.procs))
	n := max(cfg.sliceOps(wr.w.sliceOps), wr.w.minOps)
	r, err := wr.w.prep(e, n)
	if err != nil {
		return nil, fmt.Errorf("preparing: %w", err)
	}
	defer r.close()
	lat := make([]time.Duration, n)

	warm := lat[:max(n/10, 1)]
	failed, err := r.slice(nil, warm)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	wr.attempted += len(warm)
	wr.failed += failed

	if err = wr.measure(r, lat, wr.w.slices(cfg), e.ref); err != nil {
		return nil, err
	}
	if !last {
		return nil, nil
	}

	base := &wr.base
	var traced sliceStat
	var rec *recorder
	if cfg.traced {
		rec = newRecorder(n * 24)
		if traced, failed, err = timeSlice(r, rec, lat); err != nil {
			return nil, fmt.Errorf("traced slice: %w", err)
		}
		wr.attempted += n
		wr.failed += failed
	}
	f := e.ref.factor()
	out := &outcome{ledger: ledger{}, attempted: wr.attempted, failed: wr.failed, boxFactor: f}
	l := out.ledger

	if cfg.untraced {
		l.set("setup_s", median(e.setupS)/f, len(e.setupS), spread(e.setupS))
		l.setQuietest("op_p50_ms", base.p50ms(), "lower", f)
		l.setQuietest("ops_per_s", base.samples(func(s sliceStat) float64 { return s.opsPerS }), "higher", f)
		l.setQuietest("cpu_ms_per_op", base.cpuMS(), "lower", f)
		l.setSamples("alloc_kb_per_op", base.samples(func(s sliceStat) float64 { return s.allocKB }))
		l.set("heap_mb", base.heapMB, 1, 0)
		l.set("ok_share", 1-float64(out.failed)/float64(out.attempted), out.attempted, 0)
		edges := len(e.quality.Edges)
		l.set("exact_share", e.quality.SatisfiedWithin(0), edges, 0)
		l.set("within10_share", e.quality.SatisfiedWithin(0.10), edges, 0)
		l.set("summary_bytes", float64(e.report.SummaryBytes), 1, 0)
	}
	if cfg.traced {
		// The pipeline layers' rows describe the set-up, the one place most
		// workloads enter those layers; build_pipeline writes its own.
		pipelineLedger(l, e.rec, []*pipelineOut{e.pipelineOut}, len(e.quality.Edges))
		if err := r.layers(l, rec, base); err != nil {
			return nil, err
		}
		// One traced slice against the typical untraced one, like with like.
		l.set("engine.trace_overhead_share", ms(traced.p50)/median(base.p50ms())-1, n, 0)
		l.set("e2e.op_p99_ms", ms(percentile(sortedCopy(base.lat), 0.99)), len(base.lat), 0)
		l.set("e2e.op_p50_spread", spread(base.p50ms()), len(base.slices), 0)
		l.setSamples("e2e.gc_cycles", base.samples(func(s sliceStat) float64 { return float64(s.gc) }))
		l.set("e2e.box_factor", f, len(e.ref.samples), 0)
		l.fillIdle()
		if err := rec.write(cfg.outDir, wr.w.name); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return out, nil
}
