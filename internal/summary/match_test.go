package summary

import (
	"math/rand"
	"testing"

	"repro/internal/region"
	"repro/internal/value"
)

// atomMatches reports whether atom ai of group rgi realizes every at-risk
// pattern entry: its representative satisfies the entry's condition exactly
// when the entry needs it satisfied. Entry axes outside the group are
// treated as satisfied (they are covered by their own group's row).
//
// It is the per-atom scan propagateNeeds ran before matchingAtoms, kept as
// the oracle TestMatchingAtomsOracle holds the bitset algebra to.
func (rb *relBuild) atomMatches(rgi, ai int, entries []atRisk) bool {
	rep := rb.groups[rgi].atoms[ai].Rep
	for _, e := range entries {
		sat := true
		for i, ra := range e.refAxes {
			if rb.axisGroup[ra] != rgi {
				continue
			}
			if len(rep) == 0 || !e.sets[i].Contains(rep[rb.axisInGroup[ra]].Lo) {
				sat = false
				break
			}
		}
		if sat != e.need {
			return false
		}
	}
	return true
}

// TestMatchingAtomsOracle compares matchingAtoms with atomMatches, atom by
// atom, over random representatives and at-risk entries. Group 0 holds
// axes 0–2 and group 1 axis 3, so an entry over axis 3 alone has no axis in
// group 0; about a tenth of the atoms have an empty representative; atom
// counts straddle word boundaries.
func TestMatchingAtomsOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	randSet := func() value.IntervalSet {
		var s value.IntervalSet
		for k := r.Intn(3); k >= 0; k-- {
			lo := int64(r.Intn(20))
			s = s.Union(value.NewIntervalSet(value.Ival(lo, lo+1+int64(r.Intn(8)))))
		}
		return s
	}
	for _, n := range []int{1, 5, 63, 64, 65, 127, 130, 200} {
		for trial := 0; trial < 20; trial++ {
			g := &conGroup{axes: []int{0, 1, 2}, atoms: make([]region.SigAtom, n)}
			for ai := range g.atoms {
				if r.Intn(10) == 0 {
					continue // empty Rep
				}
				for a := 0; a < 3; a++ {
					lo := int64(r.Intn(24))
					g.atoms[ai].Rep = append(g.atoms[ai].Rep, value.Ival(lo, lo+1))
				}
			}
			rb := &relBuild{
				groups:      []*conGroup{g, {axes: []int{3}}},
				axisGroup:   []int{0, 0, 0, 1},
				axisInGroup: []int{0, 1, 2, 0},
			}
			// Several rounds over one group, so memoized sets are reused.
			for round := 0; round < 5; round++ {
				entries := make([]atRisk, 1+r.Intn(4))
				for i := range entries {
					e := &entries[i]
					e.need = r.Intn(2) == 0
					for a := 0; a < 4; a++ {
						if r.Intn(2) == 0 {
							e.refAxes = append(e.refAxes, a)
							e.sets = append(e.sets, randSet())
						}
					}
					if len(e.refAxes) == 0 {
						e.refAxes, e.sets = []int{3}, []value.IntervalSet{randSet()}
					}
				}
				match := rb.matchingAtoms(0, entries)
				if len(match) != (n+63)/64 {
					t.Fatalf("n=%d: %d words", n, len(match))
				}
				for ai := 0; ai < len(match)*64; ai++ {
					got := match[ai/64]&(1<<(ai%64)) != 0
					want := ai < n && rb.atomMatches(0, ai, entries)
					if got != want {
						t.Fatalf("n=%d trial %d round %d atom %d: bitset %v, oracle %v (entries %+v)", n, trial, round, ai, got, want, entries)
					}
				}
			}
		}
	}
}
