package engine

// Predicate pushdown into generation: because a datagen table is a pure
// function of its registered summary, a filter over it can be evaluated
// against the summary *before* any tuple exists. buildPruneCache has
// cycle.Judge rule on every (filter, summary row) pair and turns each
// verdict into the positions the scan will visit:
//
//   - skip:     the row provably contributes nothing — the whole row is
//     skipped and its tuples are never generated.
//   - all:      every tuple qualifies; the row is scanned whole.
//   - driven:   one column (a cycling set, or the primary-key window)
//     decides; the matching positions are computed in closed form
//     (cycle.Ranks, cycle.Positions), so only σ's tuples are generated.
//   - residual: a second cycling column restricts independently, or the
//     position set is too fragmented to enumerate — the scan keeps a
//     superset of the row's tuples and the full MatchVec filter stays.
//
// The result is a qualifying row-space: an ascending, disjoint list of
// [lo,hi) global-row intervals the scan iterates instead of [0, Total).
// When no row needed a residual the filter operator is dropped entirely
// (absorbed); otherwise the residual filter re-checks the generated rows,
// which is exact because pruning only ever removes provably-failing tuples
// and never reorders the survivors.

import (
	"repro/internal/cycle"
	"repro/internal/generator"
	"repro/internal/pred"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// scanPrune is the precomputed qualifying row-space for one OpFilter node
// whose child scans a table regenerated from a registered summary, and the
// stream it was judged against: the scan opens gen restricted to ivs.
type scanPrune struct {
	gen      *generator.Stream
	ivs      []value.Interval // qualifying [lo,hi) global-row intervals, ascending, disjoint
	total    int64            // rows in ivs
	pruned   int64            // rel.Total − total: tuples never generated
	skipped  int64            // summary rows excluded entirely
	absorbed bool             // every conjunct proven: drop the filter operator
}

// add appends a qualifying interval, merging adjacency so the row-space
// stays canonical (consecutive fully-qualifying summary rows become one
// interval).
func (pr *scanPrune) add(lo, hi int64) {
	if hi <= lo {
		return
	}
	pr.total += hi - lo
	if k := len(pr.ivs); k > 0 && pr.ivs[k-1].Hi == lo {
		pr.ivs[k-1].Hi = hi
		return
	}
	pr.ivs = append(pr.ivs, value.Ival(lo, hi))
}

// pruneCache is one plan's reading of the registered summaries, taken in a
// single pass over each (filter, summary row) pair: the qualifying
// row-space of every filtered datagen scan, and whether the plan's
// summary-direct candidate is exactly answerable without scanning at all.
// It is computed once per plan (at Prepare time for prepared statements)
// and shared by every execution, so all of them make identical
// decisions — a precondition for the byte-parity and span-shape invariants.
type pruneCache struct {
	scans  map[*PlanNode]*scanPrune // by OpFilter node
	direct bool                     // plan.SummaryAgg is provably exact on every summary row
}

// scan returns the qualifying row-space of a filter node, nil when the
// cache is absent (the PathRegen ceiling) or the filter's scan runs unpruned.
func (pc *pruneCache) scan(pn *PlanNode) *scanPrune {
	if pc == nil {
		return nil
	}
	return pc.scans[pn]
}

// prunesFor resolves the prune cache for one execution: the PathRegen
// ceiling yields nil (every lookup misses), a prepared statement passes its
// cached spaces through, and ad-hoc execution computes them fresh.
func prunesFor(db *Database, plan *Plan, opts ExecOptions, cached *pruneCache) *pruneCache {
	if opts.Regime == PathRegen {
		return nil
	}
	if cached != nil {
		return cached
	}
	return buildPruneCache(db, plan)
}

// buildPruneCache walks the plan for filter-over-scan shapes on
// summary-backed datagen tables and precomputes each one's qualifying
// row-space. Filters that prune nothing and absorb nothing are left out —
// their scans run exactly as before. The summary-direct candidate, when
// there is one, sits on the root's filter (or on a bare scan), so its proof
// rides the same verdicts instead of judging the rows again.
func buildPruneCache(db *Database, plan *Plan) *pruneCache {
	pc := &pruneCache{scans: make(map[*PlanNode]*scanPrune)}
	cand, candRel, candPK := directCandidate(db, plan)
	if cand != nil && cand.Pred == nil {
		pc.direct = directExact(cand, candRel, candPK)
	}
	var walk func(pn *PlanNode)
	walk = func(pn *PlanNode) {
		for _, c := range pn.Children {
			walk(c)
		}
		if pn.Op != OpFilter || len(pn.Children) != 1 || pn.Children[0].Op != OpScan {
			return
		}
		table := pn.Children[0].Table
		r, ok := db.summaries[table]
		if pn.Pred == nil || pn.Pred.Table != table || !ok {
			return
		}
		pr, exact := prunePred(pn.Pred, r.rel, db.Schema.Table(table).PKIndex(), cand)
		pc.direct = pc.direct || exact
		if pr != nil {
			pr.gen = r.gen
			pc.scans[pn] = pr
		}
	}
	walk(plan.Root)
	return pc
}

// prunePred has every summary row of rel judged against the filter's
// compiled region and assembles the qualifying row-space; nil when pruning
// would change nothing (nothing pruned, nothing absorbed). When cand, the
// plan's summary-direct candidate, is filtered by this same region, it also
// reports whether every verdict leaves cand exactly answerable.
func prunePred(p *pred.Region, rel *synopsis.Relation, pkIdx int, cand *PlanNode) (_ *scanPrune, exact bool) {
	pr := &scanPrune{absorbed: true}
	exact = cand != nil && cand.Pred == p
	var (
		clipBuf  value.IntervalSet // Judge's pk-window scratch
		interBuf value.IntervalSet // S ∩ P scratch
		rankBuf  value.IntervalSet // cycle.Ranks scratch
		posBuf   value.IntervalSet // cycle.Positions scratch
		cutBuf   value.IntervalSet // positions ∩ pk window scratch
	)
	var base int64
	for j := range rel.Rows {
		row := &rel.Rows[j]
		n := row.Count
		if n == 0 {
			continue
		}
		rowBase := base
		base += n

		v := cycle.Judge(row, rowBase, p, pkIdx, &clipBuf)
		if exact {
			_, exact = directRow(cand, row, pkIdx, v)
		}
		switch v.Kind {
		case cycle.Skip:
			pr.skipped++
			continue
		case cycle.Residual:
			pr.absorbed = false
		}

		// The row is scanned whole unless the pk window or the driving
		// cycle's closed-form positions (cut by the window) narrow it to pos.
		whole, pos := v.Clip == nil, v.Clip
		if v.Set != nil {
			L := v.Set.Len()
			interBuf = v.Set.IntersectInto(interBuf, v.Pred)
			rankBuf = cycle.Ranks(rankBuf, v.Set, interBuf)
			if cycles := (n + L - 1) / L; cycles*int64(len(rankBuf)) > n/8+4 {
				// Enumerating would fragment the row-space beyond the win:
				// keep what we have and let the residual filter decide.
				pr.absorbed = false
			} else {
				posBuf = cycle.Positions(posBuf, rowBase, n, L, rankBuf)
				if whole {
					whole, pos = false, posBuf
				} else {
					cutBuf = posBuf.IntersectInto(cutBuf, pos)
					pos = cutBuf
				}
			}
		}
		switch {
		case whole:
			pr.add(rowBase, rowBase+n)
		case len(pos) == 0:
			pr.skipped++
		default:
			for _, iv := range pos {
				pr.add(iv.Lo, iv.Hi)
			}
		}
	}
	pr.pruned = rel.Total - pr.total
	if pr.pruned == 0 && !pr.absorbed {
		return nil, exact // nothing gained: no rows pruned, filter still needed
	}
	return pr, exact
}
