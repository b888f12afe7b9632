// The velocity example reproduces §4.3 of the paper: dynamic regeneration
// with the generation rate regulated by the vendor (the demo's rows/sec
// slider). It proves the "dataless" property — the physical tables hold
// zero rows while queries stream their inputs from the summary — and shows
// that the achieved velocity tracks the requested one.
//
// Run with: go run ./examples/velocity
package main

import (
	"fmt"
	"log"
	"time"

	hydra "repro"
	"repro/internal/toy"
	"repro/internal/tpcds"
)

func main() {
	log.SetFlags(0)

	// Build a summary from a captured TPC-DS-like environment.
	s := tpcds.Schema(0.5)
	client, err := tpcds.GenerateDatabase(s, 3)
	if err != nil {
		log.Fatalf("client: %v", err)
	}
	pkg, err := hydra.Capture(client, tpcds.Workload(40, 9), hydra.CaptureOptions{SkipStats: true})
	if err != nil {
		log.Fatalf("capture: %v", err)
	}
	sum, _, err := hydra.Build(pkg, hydra.DefaultBuildOptions())
	if err != nil {
		log.Fatalf("build: %v", err)
	}

	// Dataless proof: the regenerated database has no stored relations.
	regen := hydra.Regen(sum, 0)
	fmt.Println("dataless database: stored rows per table")
	for _, t := range sum.Schema.Tables {
		stored := 0
		if rel := regen.Relation(t.Name); rel != nil {
			stored = rel.Len()
		}
		fmt.Printf("  %-14s stored=%d datagen=%v\n", t.Name, stored, regen.DatagenEnabled(t.Name))
	}

	// Velocity slider: stream item tuples at increasing rates.
	fmt.Println("\nvelocity control (store_sales relation):")
	fmt.Printf("  %-14s %-14s %-10s\n", "target_rps", "achieved_rps", "rows")
	for _, rate := range []float64{500, 2000, 10000, 0} {
		// Rows over a paced stream: a 1-row batch makes the schedule
		// row-granular; unpaced, the default batch is plain read-ahead.
		stream := hydra.Stream(sum, "store_sales")
		n := int64(0)
		limit, capRows := int64(rate), 1 // ~1 second worth
		if rate == 0 {
			limit, capRows = stream.Total(), 0 // unlimited drains the table
		}
		src := hydra.Rows(hydra.Pace(stream, rate), hydra.NewColBatch(stream.Cols(), capRows))
		start := time.Now()
		for n < limit {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		elapsed := time.Since(start)
		label := fmt.Sprintf("%.0f", rate)
		if rate == 0 {
			label = "unlimited"
		}
		fmt.Printf("  %-14s %-14.0f %-10d\n", label, float64(n)/elapsed.Seconds(), n)
	}

	// Dataless query execution matches the client's annotated cardinality.
	fmt.Println("\ndataless execution on the toy scenario (Figure 1 query):")
	toyDB, err := toy.Database(42)
	if err != nil {
		log.Fatalf("toy: %v", err)
	}
	toyPkg, err := hydra.Capture(toyDB, toy.Workload(), hydra.CaptureOptions{SkipStats: true})
	if err != nil {
		log.Fatalf("toy capture: %v", err)
	}
	toySum, _, err := hydra.Build(toyPkg, hydra.DefaultBuildOptions())
	if err != nil {
		log.Fatalf("toy build: %v", err)
	}
	rep, err := hydra.Verify(hydra.Regen(toySum, 50000), toyPkg.Workload)
	if err != nil {
		log.Fatalf("toy verify: %v", err)
	}
	fmt.Printf("  throttled to 50000 rows/sec, %d/%d edges exact\n",
		int(rep.SatisfiedWithin(0)*float64(len(rep.Edges))), len(rep.Edges))
}
