package engine

// Summary-direct aggregate execution: the fast path that answers
// COUNT / COUNT(col) / SUM / MIN / MAX / AVG — global or GROUP BY — straight
// from a table's relation summary in O(summary rows), without regenerating a
// single tuple. The plan's reading of the summaries (buildPruneCache) takes
// it only for a root sink of an answerable shape whose every summary row is
// provably exactly answerable from interval arithmetic alone; otherwise the
// plan regenerates, so results are byte-identical to the regenerating
// executors by construction.
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
// The regime runs through the ordinary operators: openCol opens the plan's
// own aggregate sink (colSinkIter over a groupAggState, the very state
// behind COUNT(*), OpGroupAgg and OpDistinct), with the evaluator as the
// sink's drain in place of its scan pipeline, and runColumnar drives it
// like any other tree. Each observation
// — a row's matching tuples, or one enumerated group value's — is combined
// through groupAggState.add, the per-group combine the parallel executor's
// merge uses. Group ordering, empty-group identities, the SUM/MIN/MAX
// combine, AVG truncation, the ErrAggOverflow policy, emission, sampling,
// tracing and cancellation are thereby shared code, not re-implementations;
// only the closed forms below are the regime's own.

import (
	"slices"

	"repro/internal/batch"
	"repro/internal/cycle"
	"repro/internal/sqlkit"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// colLaw is one table column as the fold sees it: the predicate's set (nil
// when the predicate does not name the column) and, for the row being
// folded, its value law — a cycling set, or (set == nil) a fixed value.
type colLaw struct {
	pred, set value.IntervalSet
	fixed     int64
}

// summaryAggEval evaluates one answered sink against its table's relation
// summary: it is the sink's drain (openCol), folding the summary rows into
// the sink's groupAggState where a regenerated plan's scan pipeline would
// feed it batches. It is built at open and recycled with
// the opened tree, and Next allocates nothing once its scratch buffers have
// warmed up — the summary path inherits the engine's steady-state
// zero-allocation contract.
type summaryAggEval struct {
	sink  *PlanNode
	table string
	rel   *synopsis.Relation
	pk    int // primary-key column index, -1 when the table has none
	ctl   *execCtl

	drives []int32 // per summary row: its driving column, -1 or skipRow (pruneCache.drives)

	cols []colLaw       // by table column
	st   *groupAggState // the sink's state

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

// newSummaryAggEval readies the evaluator of the answered sink over its
// table's registered summary, folding the rows ctl's reading recorded. The
// table and predicate are the sink's child's.
func newSummaryAggEval(db *Database, sink *PlanNode, ctl *execCtl) *summaryAggEval {
	scan, p := sinkScan(sink)
	tbl := db.Schema.Table(scan.Table)
	e := &summaryAggEval{
		sink:   sink,
		table:  scan.Table,
		rel:    db.Summary(scan.Table),
		pk:     tbl.PKIndex(),
		ctl:    ctl,
		drives: ctl.prunes.drives,
		cols:   make([]colLaw, len(tbl.Columns)),
		st:     newGroupAggState(sink),
	}
	if p != nil {
		for i, c := range p.Cols {
			e.cols[c].pred = p.Sets[i]
		}
	}
	return e
}

// directRow decides whether one summary row, given the predicate's verdict
// v on it, is exactly answerable for sink, and names the row's driving
// column (-1 when none; skipRow for a skipped row, which is exact whatever
// else cycles: it contributes nothing). Otherwise at most one column may cycle among the
// verdict's driver, the GROUP BY keys and the aggregate inputs — the primary
// key, one value per tuple, counts as cycling.
//
//hydra:hotpath
func directRow(sink *PlanNode, row *synopsis.Row, pk int, v cycle.Verdict) (drive int, ok bool) {
	switch {
	case v.Kind == cycle.Skip:
		return skipRow, true
	case v.Kind == cycle.Residual, v.Set != nil && v.Clip != nil:
		// Two independently restricted cycles (a pk window on top of a
		// cycling column is one) couple through tuple offsets.
		return -1, false
	}
	drive = v.Col
	for _, c := range sink.GroupBy {
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
	for ai := range sink.Aggs {
		if c := sink.Aggs[ai].Col; c >= 0 && drive >= 0 && drive != c && cyclesIn(row, c, pk) {
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

// resolve loads column c's value law within the row whose first tuple is
// global tuple base.
func (e *summaryAggEval) resolve(row *synopsis.Row, base int64, c int) {
	l := &e.cols[c]
	switch sp := row.Spec(c, e.pk); {
	case c == e.pk:
		e.pkBuf = append(e.pkBuf[:0], value.Ival(base, base+row.Count))
		l.set = e.pkBuf
	case sp == nil:
		l.set, l.fixed = nil, 0
	case sp.Fixed != nil:
		l.set, l.fixed = nil, *sp.Fixed
	default:
		l.set = sp.Set
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
			e.addRow(row, base, int(drive))
		}
		base += row.Count
	}
	return false
}

// rewind has nothing of its own to restore: the sink resets the state.
func (e *summaryAggEval) rewind(*Database) error { return nil }

// deferredErr is nil: the sink's state judges overflow at finish.
func (e *summaryAggEval) deferredErr() error { return nil }

// addRow folds one provably exact summary row, whose first tuple is global
// tuple base and whose driving column is d (-1 when none), into the state.
// Without a driver every tuple matches and every key is fixed; a driver
// that is a GROUP BY key has its matching values enumerated, each as one
// observation in which the driver holds that value fixed.
func (e *summaryAggEval) addRow(row *synopsis.Row, base int64, d int) {
	n := row.Count
	for _, c := range e.sink.GroupBy {
		e.resolve(row, base, c)
	}
	for _, a := range e.sink.Aggs {
		if a.Col >= 0 {
			e.resolve(row, base, a.Col)
		}
	}
	if d < 0 {
		e.observe(n, n)
		return
	}
	e.resolve(row, base, d)
	I, ipref, cycles := e.closed(d, n)
	if !slices.Contains(e.sink.GroupBy, d) {
		if cnt := cycles*I.Len() + ipref.Len(); cnt > 0 {
			e.observe(n, cnt)
		}
		return
	}
	// Value v occurs cycles + [v ∈ I ∩ Pref] times, at least once: closed
	// returns only the prefix when no cycle completes, which also bounds
	// the enumeration, like the whole evaluation, by n. Every cycling input
	// is the driver, now fixed, so observe leaves I and ipref's scratch
	// alone.
	for _, iv := range I {
		for v := iv.Lo; v < iv.Hi; v++ {
			cnt := cycles
			if ipref.Contains(v) {
				cnt++
			}
			e.cols[d].set, e.cols[d].fixed = nil, v
			e.observe(n, cnt)
		}
	}
}

// closed is cycling column c's closed form over the row's n tuples: its
// matching set I = S ∩ P, the cycles = n / |S| full passes over it, and
// the matching prefix I ∩ Pref, Pref being the first n mod |S| points of S.
// A column the predicate leaves unrestricted matches its whole set. With no
// full cycle only the prefix occurs, so I comes back as I ∩ Pref: the
// match count cycles·|I| + |I ∩ Pref| and sum cycles·Σ(I) + Σ(I ∩ Pref)
// hold either way, and I's extremes are the matches' extremes.
func (e *summaryAggEval) closed(c int, n int64) (I, ipref value.IntervalSet, cycles int64) {
	l := &e.cols[c]
	S := l.set
	I = S
	if l.pred != nil {
		e.interBuf = S.IntersectInto(e.interBuf, l.pred)
		I = e.interBuf
	}
	e.prefBuf = S.PrefixInto(e.prefBuf, n%S.Len())
	e.iprefBuf = I.IntersectInto(e.iprefBuf, e.prefBuf)
	if cycles = n / S.Len(); cycles == 0 {
		I = e.iprefBuf
	}
	return I, e.iprefBuf, cycles
}

// observe combines cnt matching tuples of an n-tuple row into the group of
// their (fixed) keys. Each aggregate input contributes its partial: a fixed
// input f·cnt (MIN/MAX f); the cycling input — the driver, or with no
// driver an input cycling on its own — cycles·Σ(I) + Σ(I ∩ Pref) (MIN/MAX
// I's extremes).
func (e *summaryAggEval) observe(n, cnt int64) {
	lo, hi := e.st.partials()
	for ki, c := range e.sink.GroupBy {
		e.st.keyBuf[ki] = e.cols[c].fixed
	}
	for ai, a := range e.sink.Aggs {
		if a.Col < 0 {
			continue // COUNT: answered from the group's tuple count
		}
		l := &e.cols[a.Col]
		if l.set == nil {
			lo[ai], hi[ai] = cycle.Mul128(l.fixed, cnt)
			if a.Fn == sqlkit.AggMin || a.Fn == sqlkit.AggMax {
				lo[ai] = l.fixed
			}
			continue
		}
		switch I, ipref, cycles := e.closed(a.Col, n); a.Fn {
		case sqlkit.AggMin:
			lo[ai] = I.Min()
		case sqlkit.AggMax:
			lo[ai] = I.Max()
		default:
			slo, shi := cycle.SumSet128(I)
			plo, phi := cycle.SumSet128(ipref)
			lo[ai], hi[ai] = cycle.MulAcc128(plo, phi, slo, shi, cycles)
		}
	}
	e.st.add(cnt, lo, hi)
}
