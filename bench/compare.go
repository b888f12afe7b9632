package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints, per workload and end-to-end metric, the base and
// new medians, their ratio, the bound and a verdict:
//
//	ok          new is no worse than base by more than the bound
//	worse       it is; or, where the spread is wider than the bound, it is
//	            worse by more than bound and spread together
//	unresolved  the run-to-run spread of either side is wider than the
//	            bound, so the bound cannot be judged at this sample size
//
// It reports whether any row is worse. A workload measured in neither file
// is skipped; a workload or metric in only one of them is an error. Two sets of runs of one commit are
// the benchmark's own acceptance check; a parent and a change are a later
// PR's regression table.
func compareFiles(w io.Writer, basePath, newPath string) (anyWorse bool, err error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "spread", "bound", "verdict")
	for _, wl := range workloads {
		b, c := base[wl.name], cur[wl.name]
		if (b == nil) != (c == nil) {
			return false, fmt.Errorf("%s: measured in only one of the two files", wl.name)
		}
		if b == nil {
			continue // neither set ran this workload
		}
		for _, d := range endToEnd {
			bm, ok1 := b[d.name]
			cm, ok2 := c[d.name]
			if !ok1 || !ok2 {
				return false, fmt.Errorf("%s %s: missing from one of the two files", wl.name, d.name)
			}
			if bm.Value == 0 {
				return false, fmt.Errorf("%s %s: base value is 0, no ratio has it as a base", wl.name, d.name)
			}
			worseBy := (cm.Value - bm.Value) / bm.Value
			if d.better == "higher" {
				worseBy = -worseBy
			}
			noise := max(bm.Spread, cm.Spread)
			verdict := "ok"
			switch {
			case worseBy > d.bound+noise:
				verdict = "worse" // by more than the noise could account for
				anyWorse = true
			case noise > d.bound:
				verdict = "unresolved"
			case worseBy > d.bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-16s %-16s %14.4f %14.4f %9.4f %7.4f %7.4f  %s\n",
				wl.name, d.name, bm.Value, cm.Value, cm.Value/bm.Value, noise, d.bound, verdict)
		}
	}
	return anyWorse, nil
}
