package cycle

import (
	"repro/internal/pred"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// Kind is what a predicate provably does to one summary row's tuples.
type Kind uint8

const (
	// Skip: no tuple of the row matches.
	Skip Kind = iota
	// All: every tuple of the row matches.
	All
	// Driven: the matching tuples are known exactly, in closed form — the
	// positions where column Col's cycle lands inside the predicate,
	// intersected with Clip when the primary key is restricted too.
	Driven
	// Residual: the Driven positions are only a superset of the matches,
	// because column Second independently restricts its own cycle; a
	// consumer must re-check the tuples or decline.
	Residual
)

func (k Kind) String() string {
	return [...]string{"skip", "all", "driven", "residual"}[k]
}

// Verdict is Judge's finding for one (summary row, predicate) pair.
type Verdict struct {
	Kind Kind
	// Col is the driving column of a Driven or Residual verdict: the first
	// cycling column the predicate partially restricts, or the primary key
	// when only its window restricts the row. -1 otherwise.
	Col int
	// Set and Pred are that cycling column's cycle set and predicate set
	// (offset w matches iff Set.At(w mod Set.Len()) ∈ Pred); nil when the
	// primary key drives.
	Set, Pred value.IntervalSet
	// Clip, when non-nil, holds the global positions of the row that pass
	// the primary-key conjunct — a strict, non-empty subset of the row. It
	// aliases the scratch handed to Judge, so it is valid until the next call.
	Clip value.IntervalSet
	// Second is why a Residual verdict is one: the second partially
	// restricted cycling column. -1 otherwise.
	Second int
}

// Judge decides what the conjunctive predicate p does to one summary row
// whose first tuple is global tuple rowBase, under the value law of
// synopsis.Row.Spec: the primary key pkIdx numbers the row's tuples
// [rowBase, rowBase+Count), a fixed or unspecced column holds one value, a
// cycling column holds Set.At(w mod Set.Len()) at offset w. It is the only
// place a column spec meets a predicate set; the pruned scan and the
// summary-direct aggregate both act on its verdict. A nil p matches
// everything.
//
// A cycling column counts as restricted by its whole set, not by the prefix
// a short row (Count < Set.Len()) actually reaches, so a Driven verdict may
// expand to no positions at all — still exact.
//
// clip is caller-owned scratch for Verdict.Clip, rewritten from length zero
// and grown in place: Judge allocates nothing once it has reached the
// predicate's interval count.
//
//hydra:hotpath
func Judge(row *synopsis.Row, rowBase int64, p *pred.Region, pkIdx int, clip *value.IntervalSet) Verdict {
	skip := Verdict{Kind: Skip, Col: -1, Second: -1}
	n := row.Count
	if n <= 0 {
		return skip
	}
	v := Verdict{Kind: All, Col: -1, Second: -1}
	if p == nil {
		return v
	}
	for i, c := range p.Cols {
		P := p.Sets[i]
		if c == pkIdx {
			window := (*clip)[:0]
			for _, iv := range P {
				if x := iv.Intersect(value.Ival(rowBase, rowBase+n)); !x.Empty() {
					window = append(window, x)
				}
			}
			*clip = window
			switch window.Len() {
			case 0:
				return skip
			case n:
				// The whole row is inside the window: no restriction.
			default:
				v.Clip = window
			}
			continue
		}
		sp := row.Spec(c, pkIdx)
		if sp == nil || sp.Fixed != nil {
			var held int64
			if sp != nil {
				held = *sp.Fixed
			}
			if !P.Contains(held) {
				return skip
			}
			continue
		}
		switch m := sp.Set.IntersectLen(P); {
		case m == 0:
			return skip
		case m == sp.Set.Len():
			// Every cycled value matches: no restriction from this column.
		case v.Kind == All:
			v.Kind, v.Col, v.Set, v.Pred = Driven, c, sp.Set, P
		case v.Kind == Driven:
			v.Kind, v.Second = Residual, c
		}
	}
	if v.Kind == All && v.Clip != nil {
		v.Kind, v.Col = Driven, pkIdx
	}
	return v
}
