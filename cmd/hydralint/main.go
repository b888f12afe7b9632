// Command hydralint is the engine's invariant multichecker (DESIGN.md §12).
// It runs under the go command, which hands it every compilation unit, test
// variants included:
//
//	go build -o bin/hydralint ./cmd/hydralint
//	go vet -vettool=$(pwd)/bin/hydralint ./...
//	go vet -vettool=$(pwd)/bin/hydralint -hotpath ./...  # run a subset
//
// Exit status per unit: 0 clean, 1 diagnostics found or driver failure.
package main

import (
	"repro/internal/analysis"
	"repro/internal/analysis/lintkit"
)

func main() {
	lintkit.Main("hydralint", analysis.All())
}
