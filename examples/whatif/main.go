// The whatif example reproduces §4.4 of the paper: the vendor pro-actively
// simulates an anticipated client environment by injecting scaled
// cardinality annotations into the captured AQPs ("an extrapolated exabyte
// scenario"), verifies the feasibility of the synthetic assignments, builds
// the regeneration summary — in time independent of the simulated volume —
// and streams a taste of the what-if fact table.
//
// Run with: go run ./examples/whatif [-factor 100000]
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
	factor := flag.Float64("factor", 100000, "what-if scale factor over the captured environment")
	flag.Parse()

	// Capture a modest real environment once.
	s := tpcds.Schema(0.5)
	client, err := tpcds.GenerateDatabase(s, 7)
	if err != nil {
		log.Fatalf("client warehouse: %v", err)
	}
	pkg, err := hydra.Capture(client, tpcds.Workload(60, 11), hydra.CaptureOptions{SkipStats: true})
	if err != nil {
		log.Fatalf("capture: %v", err)
	}
	var baseRows int64
	for _, t := range pkg.Schema.Tables {
		baseRows += t.RowCount
	}
	fmt.Printf("captured environment: %d rows across %d tables\n", baseRows, len(pkg.Schema.Tables))

	// Construct the what-if scenario.
	sc := &hydra.Scenario{Name: fmt.Sprintf("x%g", *factor), Factor: *factor}
	start := time.Now()
	feas, err := sc.Build(pkg, hydra.DefaultBuildOptions())
	if err != nil {
		log.Fatalf("scenario build: %v", err)
	}
	elapsed := time.Since(start)
	fmt.Printf("\nscenario %s: target ~%.3g rows\n", sc.Name, float64(baseRows)**factor)
	fmt.Printf("feasible=%v  total_deviation=%d  rel_deviation=%.3e\n", feas.Feasible, feas.TotalDeviation, feas.RelDeviation)
	fmt.Printf("summary built in %v (%d bytes) — independent of the simulated volume\n",
		elapsed.Round(time.Millisecond), feas.Report.SummaryBytes)

	// Stream the first rows of the extrapolated fact table at a controlled
	// velocity, demonstrating that even an "exabyte" table costs nothing
	// until rows are actually pulled.
	fmt.Println("\nfirst 5 what-if store_sales tuples (velocity 10 rows/sec):")
	st := feas.Summary.Schema.Table("store_sales")
	stream := hydra.Stream(feas.Summary, "store_sales")
	paced := hydra.Rows(hydra.Pace(stream, 10), hydra.NewColBatch(stream.Cols(), 1))
	for i := 0; i < 5; i++ {
		row, ok := paced.Next()
		if !ok {
			break
		}
		fmt.Printf("  ss_sk=%-12d date=%-6d item=%-8d qty=%-4d price=%s\n",
			row[0], row[1], row[2], row[6], st.Columns[7].Decode(row[7]))
	}
	fmt.Printf("(full table would regenerate %d tuples on demand)\n", stream.Total())
}
