package cycle

import (
	"math/rand"
	"testing"

	"repro/internal/pred"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// The verdict property: for a random small summary and a random
// conjunctive interval predicate, Judge's ruling on every summary row is
// held to brute-force generation of that row under the value law —
//
//	skip     ⇒ no tuple matches
//	all      ⇒ every tuple matches
//	driven   ⇒ the closed-form positions are exactly the matching tuples
//	residual ⇒ they are a superset, and Second really is a second
//	           partially restricted cycling column
//
// The summaries are built to hit the corners: cycles that straddle row
// boundaries (counts that are no multiple of the cycle length, and shorter
// than it), zero-count and single-tuple rows, unspecced columns, pk windows
// cutting rows, and two restricted cycling columns in one row.

const (
	vPK   = 0 // primary key column of the 4-column test table
	vCols = 4
)

// randSet draws a canonical set of one or two intervals inside [0, 24).
func randSet(r *rand.Rand) value.IntervalSet {
	lo := r.Int63n(16)
	s := value.IntervalSet{value.Ival(lo, lo+1+r.Int63n(5))}
	if r.Intn(2) == 0 {
		lo2 := s[0].Hi + 1 + r.Int63n(3)
		s = append(s, value.Ival(lo2, lo2+1+r.Int63n(4)))
	}
	return s
}

func randSummary(r *rand.Rand) []synopsis.Row {
	rows := make([]synopsis.Row, 1+r.Intn(5))
	for j := range rows {
		switch r.Intn(6) {
		case 0: // zero-count row
		case 1:
			rows[j].Count = 1
		default:
			rows[j].Count = 2 + r.Int63n(40)
		}
		for c := 1; c < vCols; c++ {
			switch r.Intn(4) {
			case 0: // unspecced: generates 0
			case 1:
				rows[j].Specs = append(rows[j].Specs, synopsis.FixedSpec(c, r.Int63n(24)))
			default:
				rows[j].Specs = append(rows[j].Specs, synopsis.SetSpec(c, randSet(r)))
			}
		}
	}
	return rows
}

func randPred(r *rand.Rand, total int64) *pred.Region {
	p := &pred.Region{Table: "t"}
	for c := 0; c < vCols; c++ {
		if r.Intn(2) == 0 {
			continue
		}
		var P value.IntervalSet
		if c == vPK {
			lo := r.Int63n(total + 1)
			P = value.IntervalSet{value.Ival(lo, lo+1+r.Int63n(total+1))}
			if gap := P[0].Hi + 1 + r.Int63n(4); r.Intn(3) == 0 {
				P = append(P, value.Ival(gap, gap+1+r.Int63n(total+1)))
			}
		} else {
			P = randSet(r)
		}
		p.Cols = append(p.Cols, c)
		p.Sets = append(p.Sets, P)
	}
	return p
}

// lawValue is the value law, written down: column c of the tuple at offset
// w of a row whose first tuple is global tuple base.
func lawValue(row *synopsis.Row, base, w int64, c int) int64 {
	if c == vPK {
		return base + w
	}
	for _, sp := range row.Specs {
		if sp.Col != c {
			continue
		}
		if sp.Fixed != nil {
			return *sp.Fixed
		}
		return sp.Set.At(w % sp.Set.Len())
	}
	return 0
}

// checkVerdicts runs the property for one seed, tallying verdict kinds
// into seen when it is non-nil.
func checkVerdicts(t *testing.T, seed int64, seen *[Residual + 1]int) {
	r := rand.New(rand.NewSource(seed))
	rows := randSummary(r)
	var total int64
	for _, row := range rows {
		total += row.Count
	}
	p := randPred(r, total)

	var clip value.IntervalSet
	var base int64
	for j := range rows {
		row := &rows[j]
		n := row.Count
		v := Judge(row, base, p, vPK, &clip)

		var want value.IntervalSet // matching global positions, brute force
		for w := int64(0); w < n; w++ {
			ok := true
			for i, c := range p.Cols {
				ok = ok && p.Sets[i].Contains(lawValue(row, base, w, c))
			}
			if ok {
				want = append(want, value.Point(base+w))
			}
		}
		want = want.Normalize()

		// The closed form a consumer expands a Driven or Residual verdict to.
		pos := value.IntervalSet{value.Ival(base, base+n)}
		if v.Set != nil {
			pos = Positions(nil, base, n, v.Set.Len(), Ranks(nil, v.Set, v.Set.IntersectInto(nil, v.Pred)))
		}
		if v.Clip != nil {
			pos = pos.IntersectInto(nil, v.Clip)
		}

		fail := func(why string) {
			t.Helper()
			t.Fatalf("seed %d row %d (base %d, %+v) pred %+v: verdict %+v: %s; matches %v, positions %v",
				seed, j, base, *row, *p, v, why, want, pos)
		}
		switch v.Kind {
		case Skip:
			if len(want) != 0 {
				fail("skip, yet tuples match")
			}
		case All:
			if want.Len() != n {
				fail("all, yet some tuple does not match")
			}
		case Driven:
			if !pos.Equal(want) {
				fail("driven positions are not the matches")
			}
			if (v.Col == vPK) != (v.Set == nil) || v.Set == nil && v.Clip == nil {
				fail("driven by neither a cycle nor a window")
			}
		case Residual:
			if !pos.ContainsSet(want) {
				fail("residual positions miss a match")
			}
			sp := row.Spec(v.Second, vPK)
			if v.Second == v.Col || sp == nil || sp.Fixed != nil {
				fail("Second is not another cycling column")
			}
		}
		if v.Clip != nil && (v.Clip.Empty() || v.Clip.Len() >= n) {
			fail("Clip is not a strict non-empty subset of the row")
		}
		if seen != nil {
			seen[v.Kind]++
		}
		base += n
	}
}

func TestJudgeAgainstBruteForce(t *testing.T) {
	var seen [Residual + 1]int
	for seed := int64(0); seed < 4000; seed++ {
		checkVerdicts(t, seed, &seen)
	}
	for k, n := range seen {
		if n < 100 {
			t.Errorf("only %d %v verdicts in 4000 seeds: the generator no longer reaches them", n, Kind(k))
		}
	}
}

func FuzzJudge(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkVerdicts(t, seed, nil) })
}

// TestJudgeAllocatesNothing pins the scratch contract: once clip has grown,
// judging allocates nothing, whole-row windows included.
func TestJudgeAllocatesNothing(t *testing.T) {
	row := &synopsis.Row{Count: 10, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, value.IntervalSet{value.Ival(0, 4)})}}
	p := &pred.Region{Cols: []int{0, 1}, Sets: []value.IntervalSet{{value.Ival(0, 100)}, {value.Ival(1, 3)}}}
	var clip value.IntervalSet
	if v := Judge(row, 5, p, 0, &clip); v.Kind != Driven || v.Col != 1 || v.Clip != nil {
		t.Fatalf("verdict %+v", v)
	}
	if n := testing.AllocsPerRun(100, func() { Judge(row, 5, p, 0, &clip) }); n != 0 {
		t.Fatalf("Judge allocates %v per call", n)
	}
}
