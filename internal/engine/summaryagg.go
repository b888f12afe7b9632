package engine

// Summary-direct aggregate execution: the fast path that answers
// COUNT / COUNT(col) / SUM / MIN / MAX / AVG — global or GROUP BY — straight
// from a table's relation summary in O(summary rows), without regenerating a
// single tuple. The planner attaches an OpSummaryAgg candidate to eligible
// plan shapes (Plan.SummaryAgg); execution takes it only when every summary
// row is provably exactly answerable from interval arithmetic alone, falling
// back to regeneration otherwise, so results are byte-identical to the
// regenerating executors by construction.
//
// Provability is judged per summary row against the generator's value law
// (synopsis.Row.Spec): within a summary row of Count n, the tuple at offset
// w takes value Set.At(w mod Set.Len()) for each cycling-set column (the
// phase resets to zero at every summary row), fixed columns hold their
// value, unspecced columns hold 0, and the primary key auto-numbers
// globally — a row whose first tuple is global tuple g spans [g, g+n), which
// the evaluator treats as one more cycling set. cycle.Judge rules on the
// predicate once per plan, in the judging pass that also prunes the
// table's scan (prune.go); a row is provable when at most one cycling
// column is "driving" — the verdict's driver or one enumerated as a GROUP
// BY key — and every cycling aggregate input coincides with it. That pass
// records each row's driving column, and the evaluator folds the recorded
// rows.
// Everything a row contributes is then closed-form: with
// I = S ∩ P, cycles = n/L, and Pref the first n mod L points of S,
//
//	matches  = cycles·|I| + |I ∩ Pref|
//	Σ matches = cycles·Σ(I) + Σ(I ∩ Pref)   (exact, 128-bit)
//
// and per-group counts enumerate v ∈ I with cnt(v) = cycles + [v ∈ Pref],
// which is bounded by n, so the fast path is never worse than regeneration.
//
// The regime runs through the ordinary operators: openCol opens the
// candidate as the plan's own aggregate sink (colSinkIter over a
// groupAggState, the very state behind COUNT(*), OpGroupAgg and
// OpDistinct), with the evaluator as the sink's drain in place of a scan
// pipeline, and runColumnar drives it like any other tree. Group ordering,
// empty-group identities, AVG truncation, the ErrAggOverflow policy,
// emission, sampling, tracing and cancellation are thereby shared code, not
// re-implementations; only the closed-form fold below is the regime's own.

import (
	"math/bits"

	"repro/internal/batch"
	"repro/internal/cycle"
	"repro/internal/sqlkit"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// rowSpec is one needed column's resolved value law within one summary row:
// a cycling interval set, or (set == nil) a fixed value.
type rowSpec struct {
	set   value.IntervalSet
	fixed int64
}

// aggContrib is one aggregate's exact contribution from one summary row (or
// one enumerated group value): a 128-bit sum and the min/max witnessed.
type aggContrib struct {
	sumLo, sumHi int64
	min, max     int64
}

// summaryAggEval evaluates one OpSummaryAgg candidate against one relation
// summary: it is the drain of the candidate's sink (openCol), folding the
// summary rows into that sink's groupAggState where a regenerated plan's
// scan pipeline would feed it batches. It is built at open and recycled with
// the opened tree, and Next allocates nothing once its scratch buffers have
// warmed up — the summary path inherits the engine's steady-state
// zero-allocation contract.
type summaryAggEval struct {
	cand *PlanNode
	rel  *synopsis.Relation
	pk   int // primary-key column index, -1 when the table has none
	ctl  *execCtl

	drives []int32 // per summary row: its driving column, -1 or skipRow (pruneCache.drives)

	need   []int               // needed table columns, ascending
	predOf []value.IntervalSet // per need position: predicate set or nil
	grpOf  []bool              // per need position: is a GROUP BY key
	rs     []rowSpec           // per need position: resolved spec (per row)

	st      *groupAggState // the sink's state
	contrib []aggContrib

	// Interval scratch, reused via write-back so steady state allocates
	// nothing: pkBuf synthesizes the row's primary-key range, interBuf
	// holds I = S ∩ P, prefBuf the cycle prefix, iprefBuf their
	// intersection. All uses extract scalars before the next column touches
	// them.
	pkBuf    value.IntervalSet
	interBuf value.IntervalSet
	prefBuf  value.IntervalSet
	iprefBuf value.IntervalSet
}

// summaryAggFor returns the plan's summary-direct candidate when it answers
// over db, nil when the fast path does not apply: a Regime ceiling below
// it, or a reading (the plan's pruneCache) that found no candidate, no
// registered summary for its table, or some summary row that is not
// provably exact. Prepared.open opens the candidate in place of the plan's
// root.
func summaryAggFor(db *Database, plan *Plan, opts ExecOptions, rd *pruneCache) *PlanNode {
	if opts.Regime != "" || rd == nil || rd.drives == nil || db.Summary(plan.SummaryAgg.Table) == nil {
		return nil
	}
	return plan.SummaryAgg
}

// newSummaryAggEval readies the evaluator of candidate cand over the
// table's registered summary, folding the rows ctl's reading recorded.
func newSummaryAggEval(db *Database, cand *PlanNode, ctl *execCtl) *summaryAggEval {
	e := &summaryAggEval{
		cand:   cand,
		rel:    db.Summary(cand.Table),
		pk:     db.Schema.Table(cand.Table).PKIndex(),
		ctl:    ctl,
		drives: ctl.prunes.drives,
	}
	if cand.Pred != nil {
		for _, c := range cand.Pred.Cols {
			e.need = addCol(e.need, c)
		}
	}
	for _, c := range cand.GroupBy {
		e.need = addCol(e.need, c)
	}
	for _, a := range cand.Aggs {
		if a.Col >= 0 {
			e.need = addCol(e.need, a.Col)
		}
	}
	e.predOf = make([]value.IntervalSet, len(e.need))
	if cand.Pred != nil {
		for i, c := range cand.Pred.Cols {
			e.predOf[e.needPos(c)] = cand.Pred.Sets[i]
		}
	}
	e.grpOf = make([]bool, len(e.need))
	for _, c := range cand.GroupBy {
		e.grpOf[e.needPos(c)] = true
	}
	e.rs = make([]rowSpec, len(e.need))
	e.st = newGroupAggState(cand)
	e.contrib = make([]aggContrib, len(cand.Aggs))
	return e
}

func (e *summaryAggEval) needPos(c int) int {
	if c >= 0 {
		for i, nc := range e.need {
			if nc == c {
				return i
			}
		}
	}
	return -1
}

// directRow decides whether one summary row, given the predicate's verdict
// v on it, is exactly answerable for cand, and names the row's driving
// column (-1 when none; skipRow for a skipped row, which is exact whatever
// else cycles: it contributes nothing). Otherwise at most one column may cycle among the
// verdict's driver, the GROUP BY keys and the aggregate inputs — the primary
// key, one value per tuple, counts as cycling.
//
//hydra:hotpath
func directRow(cand *PlanNode, row *synopsis.Row, pk int, v cycle.Verdict) (drive int, ok bool) {
	switch {
	case v.Kind == cycle.Skip:
		return skipRow, true
	case v.Kind == cycle.Residual, v.Set != nil && v.Clip != nil:
		// Two independently restricted cycles (a pk window on top of a
		// cycling column is one) couple through tuple offsets.
		return -1, false
	}
	drive = v.Col
	for _, c := range cand.GroupBy {
		if !cyclesIn(row, c, pk) {
			continue
		}
		// Grouping by the auto-numbered key means one group per tuple:
		// enumeration would match regeneration's cost, so fall back.
		if c == pk || drive >= 0 && drive != c {
			return drive, false
		}
		drive = c
	}
	for ai := range cand.Aggs {
		if c := cand.Aggs[ai].Col; c >= 0 && drive >= 0 && drive != c && cyclesIn(row, c, pk) {
			return drive, false
		}
	}
	return drive, true
}

// cyclesIn reports whether column c takes more than one value across the
// row's tuples: a cycling set, or the auto-numbered primary key.
func cyclesIn(row *synopsis.Row, c, pk int) bool {
	if c == pk {
		return true
	}
	sp := row.Spec(c, pk)
	return sp != nil && sp.Fixed == nil
}

// resolve loads e.rs with the row's value law for every needed column.
func (e *summaryAggEval) resolve(row *synopsis.Row, base int64) {
	for i, c := range e.need {
		switch sp := row.Spec(c, e.pk); {
		case c == e.pk:
			e.pkBuf = append(e.pkBuf[:0], value.Ival(base, base+row.Count))
			e.rs[i] = rowSpec{set: e.pkBuf}
		case sp == nil:
			e.rs[i] = rowSpec{}
		case sp.Fixed != nil:
			e.rs[i] = rowSpec{fixed: *sp.Fixed}
		default:
			e.rs[i] = rowSpec{set: sp.Set}
		}
	}
}

// Next folds every summary row the reading recorded into the sink's state
// and returns no batch: the evaluator is its sink's whole drain, so the
// sink finishes and emits the state exactly as it does a regenerated GROUP
// BY's. Steady state allocates nothing.
//
//hydra:hotpath
func (e *summaryAggEval) Next(*batch.ColBatch) bool {
	if e.ctl.stopped() {
		return false
	}
	var base int64
	for j, drive := range e.drives {
		row := &e.rel.Rows[j]
		if drive != skipRow {
			e.resolve(row, base)
			e.addRow(row, e.needPos(int(drive)))
		}
		base += row.Count
	}
	return false
}

// rewind has nothing of its own to restore: the sink resets the state.
func (e *summaryAggEval) rewind(*Database) error { return nil }

// deferredErr is nil: the sink's state judges overflow at finish.
func (e *summaryAggEval) deferredErr() error { return nil }

// addRow folds one provably exact summary row into the aggregation state;
// drive is its driving column as a need position, -1 when none.
func (e *summaryAggEval) addRow(row *synopsis.Row, drive int) {
	n := row.Count
	if drive < 0 {
		// No driving column: every tuple matches, keys are fixed, cycling
		// aggregate inputs run full independent cycles.
		e.fillKeys(-1, 0)
		for ai := range e.contrib {
			e.contrib[ai] = e.fullCycleContrib(ai, n)
		}
		e.fold(n)
		return
	}
	S := e.rs[drive].set
	L := S.Len()
	cycles, rem := n/L, n%L
	I := S
	if P := e.predOf[drive]; P != nil {
		e.interBuf = S.IntersectInto(e.interBuf, P)
		I = e.interBuf
	}
	e.prefBuf = S.PrefixInto(e.prefBuf, rem)
	e.iprefBuf = I.IntersectInto(e.iprefBuf, e.prefBuf)
	if e.grpOf[drive] {
		// The driving column is a GROUP BY key: enumerate its matching
		// values. With zero full cycles only the prefix's values occur, so
		// the enumeration (like the whole evaluation) is bounded by n.
		if cycles == 0 {
			e.enumGroups(drive, e.iprefBuf, 0)
		} else {
			e.enumGroups(drive, I, cycles)
		}
		return
	}
	cnt := cycles*I.Len() + e.iprefBuf.Len()
	if cnt == 0 {
		return
	}
	e.fillKeys(-1, 0)
	for ai := range e.contrib {
		e.contrib[ai] = e.drivenContrib(ai, I, cycles, cnt)
	}
	e.fold(cnt)
}

// enumGroups walks the driving column's matching values, contributing one
// group observation per value with its exact tuple count.
func (e *summaryAggEval) enumGroups(epos int, over value.IntervalSet, cycles int64) {
	for _, iv := range over {
		for v := iv.Lo; v < iv.Hi; v++ {
			cnt := cycles
			if e.iprefBuf.Contains(v) {
				cnt++
			}
			if cnt == 0 {
				continue
			}
			e.fillKeys(epos, v)
			for ai := range e.contrib {
				e.contrib[ai] = e.pointContrib(ai, v, cnt)
			}
			e.fold(cnt)
		}
	}
}

// fillKeys assembles the group key tuple: the driving column (at need
// position epos) takes v, every other key is fixed by classification.
func (e *summaryAggEval) fillKeys(epos int, v int64) {
	for ki, c := range e.cand.GroupBy {
		pos := e.needPos(c)
		if pos == epos {
			e.st.keyBuf[ki] = v
		} else {
			e.st.keyBuf[ki] = e.rs[pos].fixed
		}
	}
}

// fold merges one observation (cnt tuples with e.contrib's aggregate
// contributions) into the shared groupAggState, mirroring observe+merge.
func (e *summaryAggEval) fold(cnt int64) {
	st := e.st
	var g int32
	if len(st.groupBy) == 0 {
		g = 0
	} else {
		g = st.lookup(st.keyBuf)
	}
	st.counts[g] += cnt
	for ai := range st.aggs {
		c := &e.contrib[ai]
		switch st.aggs[ai].Fn {
		case sqlkit.AggSum, sqlkit.AggAvg:
			s, carry := bits.Add64(uint64(st.accs[ai][g]), uint64(c.sumLo), 0)
			st.accs[ai][g] = int64(s)
			st.accsHi[ai][g] += c.sumHi + int64(carry)
		case sqlkit.AggMin:
			if c.min < st.accs[ai][g] {
				st.accs[ai][g] = c.min
			}
		case sqlkit.AggMax:
			if c.max > st.accs[ai][g] {
				st.accs[ai][g] = c.max
			}
		}
	}
}

// fullCycleContrib is aggregate ai's contribution when all n tuples match:
// a fixed input contributes n·f, a cycling input its full cycles plus the
// phase prefix.
func (e *summaryAggEval) fullCycleContrib(ai int, n int64) aggContrib {
	c := e.cand.Aggs[ai].Col
	if c < 0 {
		return aggContrib{} // COUNT: answered from the group's tuple count
	}
	r := &e.rs[e.needPos(c)]
	if r.set == nil {
		lo, hi := cycle.Mul128(r.fixed, n)
		return aggContrib{sumLo: lo, sumHi: hi, min: r.fixed, max: r.fixed}
	}
	S := r.set
	cycles, rem := n/S.Len(), n%S.Len()
	e.prefBuf = S.PrefixInto(e.prefBuf, rem)
	slo, shi := cycle.SumSet128(S)
	plo, phi := cycle.SumSet128(e.prefBuf)
	lo, hi := cycle.MulAcc128(plo, phi, slo, shi, cycles)
	out := aggContrib{sumLo: lo, sumHi: hi}
	if cycles >= 1 {
		out.min, out.max = S.Min(), S.Max()
	} else {
		out.min, out.max = e.prefBuf.Min(), e.prefBuf.Max()
	}
	return out
}

// drivenContrib is aggregate ai's contribution when the driving column
// restricts the row to cnt tuples: a fixed input contributes cnt·f; a
// cycling input is the driving column itself (classification guarantees
// coincidence), summing its matching values weighted by occurrences.
func (e *summaryAggEval) drivenContrib(ai int, I value.IntervalSet, cycles, cnt int64) aggContrib {
	c := e.cand.Aggs[ai].Col
	if c < 0 {
		return aggContrib{}
	}
	r := &e.rs[e.needPos(c)]
	if r.set == nil {
		lo, hi := cycle.Mul128(r.fixed, cnt)
		return aggContrib{sumLo: lo, sumHi: hi, min: r.fixed, max: r.fixed}
	}
	slo, shi := cycle.SumSet128(I)
	plo, phi := cycle.SumSet128(e.iprefBuf)
	lo, hi := cycle.MulAcc128(plo, phi, slo, shi, cycles)
	out := aggContrib{sumLo: lo, sumHi: hi}
	if cycles >= 1 {
		out.min, out.max = I.Min(), I.Max()
	} else {
		out.min, out.max = e.iprefBuf.Min(), e.iprefBuf.Max()
	}
	return out
}

// pointContrib is aggregate ai's contribution from cnt tuples whose driving
// column holds v.
func (e *summaryAggEval) pointContrib(ai int, v, cnt int64) aggContrib {
	c := e.cand.Aggs[ai].Col
	if c < 0 {
		return aggContrib{}
	}
	r := &e.rs[e.needPos(c)]
	x := r.fixed
	if r.set != nil {
		x = v // the input is the driving column, by classification
	}
	lo, hi := cycle.Mul128(x, cnt)
	return aggContrib{sumLo: lo, sumHi: hi, min: x, max: x}
}
