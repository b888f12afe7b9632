// Package verify measures volumetric similarity: it re-executes the client
// workload against the regenerated database and compares every operator's
// output cardinality with the client's annotation. Its Report backs the
// demo's "generation quality" graph (percentage of volumetric constraints
// satisfied within a given relative error) and the per-query AQP comparison
// with green originals and red relative errors.
package verify

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/aqp"
	"repro/internal/engine"
	"repro/internal/sqlkit"
)

// DefaultEpsGrid is the relative-error grid of the demo's quality graph.
var DefaultEpsGrid = []float64{0, 0.001, 0.01, 0.05, 0.10, 0.20, 0.50, 1.0}

// CDFPoint is one point of the satisfied-within-ε curve.
type CDFPoint struct {
	Eps      float64
	Fraction float64
}

// QueryResult couples one query with its per-edge comparison.
type QueryResult struct {
	SQL      string
	Expected *aqp.Node
	Actual   *aqp.Node
	Edges    []aqp.EdgeDiff
}

// Report aggregates verification over a workload.
type Report struct {
	Queries []QueryResult
	// Edges flattens every compared edge across queries.
	Edges []aqp.EdgeDiff
}

// Verify executes every workload query against db (stored or dataless) and
// compares observed cardinalities with the AQP annotations. Execution runs
// on the engine's batched path; dataless scans therefore stream generated
// tuples a batch at a time.
func Verify(db *engine.Database, workload []*aqp.AQP) (*Report, error) {
	rep := &Report{}
	for qi, a := range workload {
		q, err := sqlkit.Parse(a.SQL)
		if err != nil {
			return nil, fmt.Errorf("verify: query %d: %w", qi, err)
		}
		plan, err := engine.BuildPlan(db.Schema, q)
		if err != nil {
			return nil, fmt.Errorf("verify: query %d: %w", qi, err)
		}
		// Verification compares full operator trees edge by edge, so the
		// summary-direct fast path (which collapses the tree to one node)
		// and scan pruning (which can absorb a filter operator outright)
		// must stand aside: regeneration is the thing being verified, and
		// the tree must be isomorphic to the client's annotation.
		res, err := engine.ExecuteContext(context.TODO(), db, plan, engine.ExecOptions{Regime: engine.PathRegen})
		if err != nil {
			return nil, fmt.Errorf("verify: query %d: %w", qi, err)
		}
		actual := aqp.FromExec(res.Root)
		edges, err := aqp.Compare(a.Plan, actual)
		if err != nil {
			return nil, fmt.Errorf("verify: query %d: %w", qi, err)
		}
		rep.Queries = append(rep.Queries, QueryResult{SQL: a.SQL, Expected: a.Plan, Actual: actual, Edges: edges})
		rep.Edges = append(rep.Edges, edges...)
	}
	return rep, nil
}

// SatisfiedWithin returns the fraction of edges whose relative error is at
// most eps.
func (r *Report) SatisfiedWithin(eps float64) float64 {
	if len(r.Edges) == 0 {
		return 1
	}
	n := 0
	for _, e := range r.Edges {
		if e.RelErr <= eps {
			n++
		}
	}
	return float64(n) / float64(len(r.Edges))
}

// CDF evaluates SatisfiedWithin over the grid.
func (r *Report) CDF(grid []float64) []CDFPoint {
	if grid == nil {
		grid = DefaultEpsGrid
	}
	out := make([]CDFPoint, len(grid))
	for i, eps := range grid {
		out[i] = CDFPoint{Eps: eps, Fraction: r.SatisfiedWithin(eps)}
	}
	return out
}

// MaxRelErr returns the largest finite relative error, and whether any edge
// had an infinite error (expected 0, produced >0).
func (r *Report) MaxRelErr() (max float64, hasInf bool) {
	for _, e := range r.Edges {
		if math.IsInf(e.RelErr, 1) {
			hasInf = true
			continue
		}
		if e.RelErr > max {
			max = e.RelErr
		}
	}
	return max, hasInf
}

// MeanRelErr returns the mean of finite relative errors.
func (r *Report) MeanRelErr() float64 {
	var sum float64
	n := 0
	for _, e := range r.Edges {
		if !math.IsInf(e.RelErr, 1) {
			sum += e.RelErr
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WorstEdges returns the k edges with the largest relative error,
// descending (infinite errors first).
func (r *Report) WorstEdges(k int) []aqp.EdgeDiff {
	edges := append([]aqp.EdgeDiff(nil), r.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		ei, ej := edges[i].RelErr, edges[j].RelErr
		ii, ij := math.IsInf(ei, 1), math.IsInf(ej, 1)
		if ii != ij {
			return ii
		}
		if ei != ej {
			return ei > ej
		}
		return edges[i].Path < edges[j].Path
	})
	if k > len(edges) {
		k = len(edges)
	}
	return edges[:k]
}
