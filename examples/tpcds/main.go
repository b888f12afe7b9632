// The tpcds example reproduces the paper's headline scenario: a TPC-DS-like
// warehouse and a 131-query workload, captured at the client, summarized at
// the vendor (reporting the LP complexity table of the demo's vendor
// interface), regenerated datalessly, and verified for volumetric
// similarity (the generation-quality graph of Figure 4).
//
// Run with: go run ./examples/tpcds [-sf 1.0] [-queries 131]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	hydra "repro"
	"repro/internal/tpcds"
)

func main() {
	log.SetFlags(0)
	sf := flag.Float64("sf", 1.0, "warehouse scale factor")
	nq := flag.Int("queries", 131, "workload size")
	seed := flag.Int64("seed", 7, "generator seed")
	flag.Parse()

	s := tpcds.Schema(*sf)
	client, err := tpcds.GenerateDatabase(s, *seed)
	if err != nil {
		log.Fatalf("client warehouse: %v", err)
	}
	var totalRows int64
	for _, t := range s.Tables {
		totalRows += t.RowCount
	}
	fmt.Printf("client warehouse: %d tables, %d rows (sf=%.2f)\n", len(s.Tables), totalRows, *sf)

	queries := tpcds.Workload(*nq, *seed+4)
	t0 := time.Now()
	pkg, err := hydra.Capture(client, queries, hydra.CaptureOptions{})
	if err != nil {
		log.Fatalf("capture: %v", err)
	}
	fmt.Printf("captured %d annotated plans in %v\n\n", len(pkg.Workload), time.Since(t0).Round(time.Millisecond))

	sum, rep, err := hydra.Build(pkg, hydra.DefaultBuildOptions())
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	fmt.Println("vendor site: per-relation LP complexity (region vs grid partitioning)")
	fmt.Printf("%-14s %-8s %-10s %-14s %-8s %-10s\n", "relation", "cons", "lp_vars", "grid_vars", "pivots", "solve")
	for _, rr := range rep.Relations {
		fmt.Printf("%-14s %-8d %-10d %-14d %-8d %-10v\n",
			rr.Table, rr.Constraints, rr.LPVars, rr.GridVars, rr.Pivots, rr.SolveTime.Round(time.Microsecond))
	}
	fmt.Printf("summary construction: %v total, %d bytes (data-scale-free: no data rows read)\n\n",
		rep.TotalTime.Round(time.Millisecond), rep.SummaryBytes)

	regen := hydra.Regen(sum, 0)
	report, err := hydra.Verify(regen, pkg.Workload)
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	fmt.Println("volumetric similarity (dataless execution):")
	for _, p := range report.CDF(nil) {
		fmt.Printf("  within %5.1f%%: %6.2f%% of %d constraints\n", p.Eps*100, p.Fraction*100, len(report.Edges))
	}
	fmt.Printf("mean relative error: %.5f\n", report.MeanRelErr())
	fmt.Println("\nworst edges:")
	for _, e := range report.WorstEdges(5) {
		fmt.Printf("  %-70s expected=%-8d actual=%-8d rel=%.4f\n", e.Path, e.Expected, e.Actual, e.RelErr)
	}
}
