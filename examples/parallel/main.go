// Parallel demonstrates morsel-driven parallel regeneration: the TPC-DS
// workload's summary is built once, then one dataless join query runs
// sequentially and then with ExecOptions.Parallelism at increasing worker
// counts, with byte-identical answers in the same regime. It
// also shows raw generation fanned out over partitioned streams — the
// embarrassing parallelism that deterministic summary layout buys.
//
// Run with: go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	hydra "repro"
	"repro/internal/batch"
	"repro/internal/generator"
	"repro/internal/tpcds"
)

func main() {
	log.SetFlags(0)

	// Client capture + vendor build, as in the quickstart.
	s := tpcds.Schema(0.5)
	client, err := tpcds.GenerateDatabase(s, 7)
	if err != nil {
		log.Fatalf("client database: %v", err)
	}
	pkg, err := hydra.Capture(client, tpcds.Workload(60, 11), hydra.CaptureOptions{SkipStats: true})
	if err != nil {
		log.Fatalf("capture: %v", err)
	}
	sum, _, err := hydra.Build(pkg, hydra.DefaultBuildOptions())
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	regen := hydra.Regen(sum, 0)

	// --- Parallel dataless query execution -------------------------------
	// The first captured workload query: a fact-dimension join whose
	// cardinalities the summary reproduces exactly.
	sql := pkg.Workload[0].SQL
	fmt.Println("=== Morsel-parallel dataless execution ===")
	fmt.Println(sql)
	// This single-table aggregate would be answered from the summary alone,
	// with nothing to parallelize; the "pruned" ceiling makes every run
	// regenerate tuples, which is what the worker sweep is about.
	seq := hydra.ExecOptions{Regime: hydra.PathPruned}
	base, err := hydra.Query(regen, sql, seq)
	if err != nil {
		log.Fatalf("sequential query: %v", err)
	}
	baseElapsed := timeQuery(regen, sql, seq)
	fmt.Printf("  sequential: COUNT=%d (regime %q) in %v\n", base.Count, base.Path, baseElapsed.Round(time.Microsecond))
	for _, w := range []int{1, 2, 4, 8} {
		opts := hydra.ExecOptions{Parallelism: w, Regime: hydra.PathPruned}
		res, err := hydra.Query(regen, sql, opts)
		if err != nil {
			log.Fatalf("parallel query (w=%d): %v", w, err)
		}
		if res.Count != base.Count || res.Path != base.Path {
			log.Fatalf("parallelism %d changed the answer: %d (%s) != %d (%s)", w, res.Count, res.Path, base.Count, base.Path)
		}
		elapsed := timeQuery(regen, sql, opts)
		fmt.Printf("  workers=%d (clamped to GOMAXPROCS=%d): COUNT=%d in %v (%.2fx)\n",
			w, runtime.GOMAXPROCS(0), res.Count, elapsed.Round(time.Microsecond),
			float64(baseElapsed)/float64(elapsed))
	}

	// --- Partitioned generation ------------------------------------------
	fmt.Println("\n=== Partitioned stream generation (store_sales) ===")
	total := hydra.Stream(sum, "store_sales").Total()
	for _, w := range []int{1, 2, 4, 8} {
		start := time.Now()
		parts := hydra.Stream(sum, "store_sales").Partition(w)
		var wg sync.WaitGroup
		for _, p := range parts {
			wg.Add(1)
			go func(p *generator.Stream) {
				defer wg.Done()
				all := batch.AllCols(p.Cols())
				dst := batch.NewCol(len(all), 0, all)
				for p.NextColBatch(dst, all) {
				}
			}(p)
		}
		wg.Wait()
		elapsed := time.Since(start)
		fmt.Printf("  %d partitions: %d rows in %v (%.1fM rows/sec)\n",
			w, total, elapsed.Round(time.Microsecond), float64(total)/elapsed.Seconds()/1e6)
	}
	fmt.Println("\nanswers identical at every worker count; see `hydra serve` for the HTTP front end.")
}

// timeQuery reports the median-of-3 execution time of sql under opts.
func timeQuery(db *hydra.Database, sql string, opts hydra.ExecOptions) time.Duration {
	times := make([]time.Duration, 0, 3)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := hydra.Query(db, sql, opts); err != nil {
			log.Fatalf("timing query: %v", err)
		}
		times = append(times, time.Since(start))
	}
	if times[0] > times[1] {
		times[0], times[1] = times[1], times[0]
	}
	if times[1] > times[2] {
		times[1], times[2] = times[2], times[1]
	}
	if times[0] > times[1] {
		times[0], times[1] = times[1], times[0]
	}
	return times[1]
}
