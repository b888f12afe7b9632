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
// and never reorders the survivors. The same verdicts decide, row by row,
// whether the summary answers the plan's root sink exactly (summaryagg.go):
// a plan judges each summary it reads once.

import (
	"repro/internal/cycle"
	"repro/internal/generator"
	"repro/internal/pred"
	"repro/internal/value"
)

// scanPrune is the precomputed qualifying row-space for one filtered scan
// of a table regenerated from a registered summary, and the stream it was
// judged against: the scan opens gen restricted to ivs.
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

// skipRow marks a summary row that contributes nothing to the answered
// sink in pruneCache.drives.
const skipRow = -2

// pruneCache is one plan's reading of the registered summaries, taken in a
// single judging pass over each (filter, summary row) pair: the qualifying
// row-space of every filtered scan, and whether the summaries answer the
// plan's root sink. It is read once per plan (at Prepare time for prepared
// statements, at open for ad-hoc execution) and shared by every execution,
// so all of them make identical decisions — a precondition for the
// byte-parity and span-shape invariants.
type pruneCache struct {
	scans map[*PlanNode]*scanPrune // by OpScan leaf
	// answer is the plan's root sink when its table's summary answers it
	// exactly, nil otherwise; drives then holds, per summary row, its
	// driving column (-1 for none) or skipRow.
	answer *PlanNode
	drives []int32
}

// scan returns the qualifying row-space of a scan node, nil when the cache
// is absent (the PathRegen ceiling) or the scan runs unpruned.
func (pc *pruneCache) scan(pn *PlanNode) *scanPrune {
	if pc == nil {
		return nil
	}
	return pc.scans[pn]
}

// pruned reports whether some judged scan generates fewer tuples than its
// table holds.
func (pc *pruneCache) pruned() bool {
	for _, pr := range pc.scans {
		if pr.pruned > 0 {
			return true
		}
	}
	return false
}

// buildPruneCache walks the plan for scans of summary-backed tables and
// judges, once, each one that a filter sits on or that an answerable root
// sink reads. Filters that prune nothing and absorb nothing are left out —
// their scans run exactly as before. An answerable sink reads the plan's
// one scan, so its proof rides that scan's verdicts.
func buildPruneCache(db *Database, plan *Plan) *pruneCache {
	pc := &pruneCache{scans: make(map[*PlanNode]*scanPrune)}
	sink := answerable(plan.Root)
	var walk func(pn *PlanNode, p *pred.Region)
	walk = func(pn *PlanNode, p *pred.Region) {
		switch pn.Op {
		case OpFilter:
			walk(pn.Children[0], pn.Pred)
		case OpScan:
			r, ok := db.summaries[pn.Table]
			if !ok || p == nil && sink == nil {
				return
			}
			var pr *scanPrune
			if pr, pc.drives = judgeScan(p, r, db.Schema.Table(pn.Table).PKIndex(), sink); pr != nil {
				pc.scans[pn] = pr
			}
		default:
			for _, c := range pn.Children {
				walk(c, nil)
			}
		}
	}
	walk(plan.Root, nil)
	if pc.drives != nil {
		pc.answer = sink
	}
	return pc
}

// answerable returns the plan's root when its shape may be answered from
// summary rows alone, nil otherwise: a COUNT(*), GROUP BY or DISTINCT sink
// directly over one table's scan, filtered or not. The summary models base
// tables, not join results; a row-returning select needs the rows; and a
// sink under an ORDER BY or LIMIT, whose reordering or truncation the
// evaluator does not reproduce, is not the root. The gate is structural
// only — exactness is proved per summary row by judgeScan.
func answerable(root *PlanNode) *PlanNode {
	switch root.Op {
	case OpAggregate, OpGroupAgg, OpDistinct:
		if scan, _ := sinkScan(root); scan.Op == OpScan {
			return root
		}
	}
	return nil
}

// sinkScan returns the node under sink with any filter on it peeled off,
// and that filter's region (nil for none). Under an answerable sink the
// node is the table's scan, and the sink's GroupBy, Aggs and the region's
// columns are all table column indices.
func sinkScan(sink *PlanNode) (*PlanNode, *pred.Region) {
	if c := sink.Children[0]; c.Op == OpFilter {
		return c.Children[0], c.Pred
	}
	return sink.Children[0], nil
}

// judgeScan has every summary row of r judged against the filter's
// compiled region p (nil: an unfiltered scan) and assembles the qualifying
// row-space over r's stream; nil when there is no filter or pruning would
// change nothing (nothing pruned, nothing absorbed). When sink, the plan's
// answerable root sink, is non-nil — this scan is then its one scan — it
// also records each row's driving column, or nil drives once some verdict
// leaves sink inexact.
func judgeScan(p *pred.Region, r summaryScan, pkIdx int, sink *PlanNode) (pr *scanPrune, drives []int32) {
	rel := r.rel
	if p != nil {
		pr = &scanPrune{gen: r.gen, absorbed: true}
	}
	if sink != nil {
		drives = make([]int32, len(rel.Rows))
	}
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
		rowBase := base
		base += n

		v := cycle.Judge(row, rowBase, p, pkIdx, &clipBuf)
		if drives != nil {
			d, ok := directRow(sink, row, pkIdx, v)
			if drives[j] = int32(d); !ok {
				drives = nil
			}
		}
		if pr == nil || n == 0 {
			continue
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
	if pr != nil {
		if pr.pruned = rel.Total - pr.total; pr.pruned == 0 && !pr.absorbed {
			pr = nil // nothing gained: no rows pruned, filter still needed
		}
	}
	return pr, drives
}
