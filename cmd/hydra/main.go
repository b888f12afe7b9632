// Command hydra drives the Hydra pipeline from the command line, mirroring
// the demo's four segments: client capture, vendor-side summary
// construction, dynamic regeneration, and what-if scenario construction.
//
// Usage:
//
//	hydra client   -scenario tpcds -sf 1 -queries 131 -out pkg.json [-anonymize]
//	hydra vendor   -in pkg.json -out summary.json.gz
//	hydra generate -summary summary.json.gz -table item [-limit 10] [-rate 5000] [-csv out.csv]
//	hydra verify   -in pkg.json -summary summary.json.gz [-worst 10]
//	hydra scenario -in pkg.json -factor 1000 [-out scaled.json]
//	hydra serve    -summary summary.json.gz [-addr :8372] [-parallelism 8] [-rate 0]
//	               [-max-inflight 16] [-queue 64] [-timeout 30s] [-drain 10s]
//	               [-trace] [-slow-query 250ms] [-pprof]
//	hydra loadtest [-url http://127.0.0.1:8372] [-rate 500] [-clients 8] [-duration 5s]
//	hydra bench    [-exp all|E1|…|E10] [-sf 1] [-queries 131]
//
// All artifacts are JSON (the summary gzip'd); nothing touches a real database — the client
// warehouse is the built-in synthetic TPC-DS-like generator (or the toy
// Figure 1 scenario with -scenario toy).
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "client":
		err = cmdClient(os.Args[2:])
	case "vendor":
		err = cmdVendor(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "scenario":
		err = cmdScenario(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadtest":
		err = cmdLoadtest(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hydra: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydra %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `hydra — dynamic big data regenerator (reproduction of Sanghi et al., PVLDB 2018)

commands:
  client     capture schema, metadata and annotated query plans at the client site
  vendor     build the database summary from a transfer package
  generate   stream or materialize tuples from a summary (velocity-controlled)
  verify     re-execute the workload datalessly and report volumetric similarity
  scenario   scale a client package for what-if analysis and check feasibility
  stats      display a column's metadata (equi-depth histogram, top values)
  serve      serve concurrent SQL queries over HTTP from a loaded summary
             (EXPLAIN ANALYZE / "explain": true, slow-query log, /metricsz)
  loadtest   drive a running serve instance with a zipfian query mix
  bench      run the paper's experiments (E1..E10)

run "hydra <command> -h" for command flags.
`)
}
