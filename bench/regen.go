package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	hydra "repro"
	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/generator"
)

// roundShapes is the five-query round of regen_full and regen_parallel.
func roundShapes(e *env) ([]shape, error) {
	oracle, err := e.takeOracle()
	if err != nil {
		return nil, err
	}
	shapes := make([]shape, len(regenRound))
	for i, t := range regenRound {
		shapes[i] = shape{template: t, sql: t.sql}
	}
	return shapes, withAnswers(oracle, shapes)
}

// roundOps makes every op one full round.
func roundOps(n int) [][]int {
	round := []int{0, 1, 2, 3, 4}
	ops := make([][]int, n)
	for i := range ops {
		ops[i] = round
	}
	return ops
}

func prepRegenFull(e *env, n int) (runner, error) {
	shapes, err := roundShapes(e)
	if err != nil {
		return nil, err
	}
	r := newQueryRunner(e.regen, engine.ExecOptions{SampleLimit: sampleLimit}, shapes, roundOps(n))
	r.side = func(l ledger, _ *phase) error {
		if err := steadyLoop(l, e.regen); err != nil {
			return err
		}
		bareGenerator(l, e)
		return nil
	}
	return r, nil
}

func prepRegenParallel(e *env, n int) (runner, error) {
	shapes, err := roundShapes(e)
	if err != nil {
		return nil, err
	}
	r := newQueryRunner(e.regen, engine.ExecOptions{SampleLimit: sampleLimit, Parallelism: 2}, shapes, roundOps(n))
	r.side = func(l ledger, base *phase) error {
		// The same rounds on the sequential path, in the same process and
		// minute, are the base of the speed-up.
		seq := newQueryRunner(e.regen, engine.ExecOptions{SampleLimit: sampleLimit}, shapes, r.ops)
		var stats []sliceStat
		lat := make([]time.Duration, n)
		for i := 0; i < minSlices; i++ {
			st, failed, err := timeSlice(seq, nil, lat)
			if err != nil {
				return err
			}
			if failed > 0 {
				return fmt.Errorf("sequential reference: %d of %d rounds failed", failed, n)
			}
			stats = append(stats, st)
		}
		ref := phase{slices: stats}
		l.set("parallel.speedup", slices.Min(ref.p50ms())/slices.Min(base.p50ms()), len(stats), 0)
		l.set("parallel.cpu_ratio", slices.Min(base.cpuMS())/slices.Min(ref.cpuMS()), len(stats), 0)
		bareGenerator(l, e)
		return nil
	}
	return r, nil
}

// selectiveWindows is how many S5 and how many S6 windows regen_selective
// draws; round i uses window i modulo it.
const selectiveWindows = 8

func prepRegenSelective(e *env, n int) (runner, error) {
	oracle, err := e.takeOracle()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	byTemplate := selectiveInstances(rng, e.sum.Relations[factTable].Total, selectiveWindows)
	var shapes []shape
	first := make([]int, len(byTemplate)) // index of each template's first instance
	for ti, inst := range byTemplate {
		first[ti] = len(shapes)
		shapes = append(shapes, inst...)
	}
	if err := withAnswers(oracle, shapes); err != nil {
		return nil, err
	}
	// One op is a round of six queries, one per template S1–S6, each a
	// seeded draw among the template's instances. A single query as the op
	// would put the median of a six-mode mix exactly on the border between
	// two modes (S3 at ≈50 µs, S4 at ≈80 µs), where it flips with the seed.
	ops := make([][]int, n)
	for i := range ops {
		ops[i] = make([]int, len(byTemplate))
		for ti, inst := range byTemplate {
			ops[i][ti] = first[ti] + rng.Intn(len(inst))
		}
	}
	return newQueryRunner(e.regen, engine.ExecOptions{SampleLimit: sampleLimit}, shapes, ops), nil
}

// steadyLoop measures the engine's steady state: R1 prepared once and
// re-executed inside one ExecState, which is documented to allocate
// nothing per execution.
func steadyLoop(l ledger, db *engine.Database) error {
	prep, err := hydra.Prepare(db, tR1.sql, engine.ExecOptions{})
	if err != nil {
		return err
	}
	var st engine.ExecState
	const runs = 16
	if _, err := prep.ExecuteIn(&st, engine.ExecOptions{}); err != nil { // opens the operator tree
		return err
	}
	lat := make([]time.Duration, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range lat {
		t0 := time.Now()
		if _, err := prep.ExecuteIn(&st, engine.ExecOptions{}); err != nil {
			return err
		}
		lat[i] = time.Since(t0)
	}
	runtime.ReadMemStats(&after)
	l.set("engine.steady_us", us(percentile(sortedCopy(lat), 0.50)), runs, 0)
	// Whole allocations per execution, as testing.AllocsPerRun counts them:
	// the integer division drops the runtime's own stray allocation.
	l.set("engine.steady_allocs", float64((after.Mallocs-before.Mallocs)/runs), runs, 0)
	return nil
}

// bareGenerator times the generator alone, no engine above it: the whole
// fact table through Stream.NextBatch (row-major) and Stream.NextColBatch
// (column-major, every column), as rows per second.
func bareGenerator(l ledger, e *env) {
	t, rel := e.sum.Schema.Table(factTable), e.sum.Relations[factTable]
	const passes = 8
	rate := func(pass func() int64) []float64 {
		xs := make([]float64, passes)
		for i := range xs {
			t0 := time.Now()
			rows := pass()
			xs[i] = float64(rows) / time.Since(t0).Seconds()
		}
		return xs
	}
	rowBatch := batch.New(len(t.Columns), 0)
	l.setSamples("generator.batch_rows_per_s", rate(func() (rows int64) {
		s := generator.NewStream(t, rel)
		for s.NextBatch(rowBatch) {
			rows += int64(rowBatch.Len())
		}
		return rows
	}))
	all := make([]int, len(t.Columns))
	for i := range all {
		all[i] = i
	}
	colBatch := batch.NewCol(len(t.Columns), 0, all)
	l.setSamples("generator.colbatch_rows_per_s", rate(func() (rows int64) {
		s := generator.NewStream(t, rel)
		for s.NextColBatch(colBatch, all) {
			rows += int64(colBatch.Len())
		}
		return rows
	}))
}
