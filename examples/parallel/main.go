// Parallel demonstrates morsel-driven parallel regeneration: the TPC-DS
// workload's summary is built once, then the first captured query that
// joins runs sequentially and then with ExecOptions.Parallelism at 1, 2, 4
// and 8 workers, and every run must return the same answer in the same
// regime (the example exits non-zero otherwise). One worker drains in
// place, like the sequential run. The per-run timings are printed for
// reference only: at sf 0.5 the query takes a fraction of a millisecond,
// so goroutine start-up and the merge weigh against any speed-up, and
// worker counts above GOMAXPROCS are clamped to it. It also
// shows raw generation fanned out over partitioned streams — the
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
	"repro/internal/sqlkit"
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
	// The first captured query over more than one table — at workload seed
	// 11 a COUNT(*) over a fact-dimension join, whose count sink drains the
	// fact scan's morsels on the workers and merges their partial counts.
	sql := ""
	for _, q := range pkg.Workload {
		if parsed, err := sqlkit.Parse(q.SQL); err == nil && len(parsed.Tables) > 1 {
			sql = q.SQL
			break
		}
	}
	if sql == "" {
		log.Fatalf("the workload has no join query")
	}
	fmt.Println("=== Morsel-parallel dataless execution ===")
	fmt.Println(sql)
	var seq hydra.ExecOptions
	base, err := hydra.Query(regen, sql, seq)
	if err != nil {
		log.Fatalf("sequential query: %v", err)
	}
	baseElapsed := timeQuery(regen, sql, seq)
	fmt.Printf("  sequential: COUNT=%d (regime %q) in %v\n", base.Count, base.Path, baseElapsed.Round(time.Microsecond))
	for _, w := range []int{1, 2, 4, 8} {
		opts := hydra.ExecOptions{Parallelism: w}
		res, err := hydra.Query(regen, sql, opts)
		if err != nil {
			log.Fatalf("parallel query (w=%d): %v", w, err)
		}
		if res.Count != base.Count || res.Rows != base.Rows || res.Path != base.Path {
			log.Fatalf("parallelism %d changed the answer: %d (%s) != %d (%s)", w, res.Count, res.Path, base.Count, base.Path)
		}
		elapsed := timeQuery(regen, sql, opts)
		clamp := ""
		if procs := runtime.GOMAXPROCS(0); w > procs {
			clamp = fmt.Sprintf(" (clamped to GOMAXPROCS=%d)", procs)
		}
		fmt.Printf("  workers=%d%s: COUNT=%d in %v (%.2fx)\n",
			w, clamp, res.Count, elapsed.Round(time.Microsecond),
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
