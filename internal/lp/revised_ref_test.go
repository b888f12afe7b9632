package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// revisedReference is the revised simplex as it stood before pricing went
// through the shared-prefix trie: every pivot prices every atom as
// costAtom[v] − Σ_{i∈cols[v]} y[i] directly. It is kept verbatim as the
// oracle TestRevisedMatchesReference holds solveAtomsRevised to, bit for
// bit.
func revisedReference(s *AtomSystem) (x []float64, obj float64, pivots int, err error) {
	rows := s.rows()
	m := len(rows)
	n := s.NumAtoms
	if m == 0 {
		return make([]float64, n), 0, 0, nil
	}

	// Per-atom constraint membership (column supports).
	cols := make([][]int32, n)
	for i, r := range rows {
		for _, a := range r.Atoms {
			cols[a] = append(cols[a], int32(i))
		}
	}
	// Objective: deviations cost 1; preferred atoms get the tiny bonus.
	costAtom := make([]float64, n)
	if s.Total >= 0 {
		for _, a := range s.Prefer {
			costAtom[a] = -preferWeight
		}
	}

	b := make([]float64, m)
	for i, r := range rows {
		b[i] = float64(r.Card)
		if b[i] < 0 {
			return nil, 0, 0, fmt.Errorf("lp: negative cardinality %v in %s", r.Card, r.Label)
		}
	}

	// Variable numbering: [0,n) atoms, n+2i = u_i, n+2i+1 = v_i. Deficit
	// (u) always costs 1; surplus (v) is free on GE rows.
	costOf := func(v int) float64 {
		if v < n {
			return costAtom[v]
		}
		if (v-n)%2 == 1 && rows[(v-n)/2].Kind == GE {
			return 0
		}
		return 1
	}
	// column returns the support and signs of variable v.
	colSign := func(v int) ([]int32, float64) {
		if v < n {
			return cols[v], 1
		}
		i := int32((v - n) / 2)
		if (v-n)%2 == 0 {
			return []int32{i}, 1 // u_i
		}
		return []int32{i}, -1 // v_i
	}

	// Basis: u_i for every row; B = I.
	basis := make([]int, m)
	xB := make([]float64, m)
	binv := make([][]float64, m)
	for i := 0; i < m; i++ {
		basis[i] = n + 2*i
		xB[i] = b[i]
		binv[i] = make([]float64, m)
		binv[i][i] = 1
	}

	y := make([]float64, m)
	d := make([]float64, m)
	const tol = 1e-7
	stalled := 0
	nVars := n + 2*m
	objVal := func() float64 {
		v := 0.0
		for k := 0; k < m; k++ {
			v += costOf(basis[k]) * xB[k]
		}
		return v
	}

	for {
		// y = c_B^T B^{-1}.
		for i := 0; i < m; i++ {
			y[i] = 0
		}
		for k := 0; k < m; k++ {
			cb := costOf(basis[k])
			if cb == 0 {
				continue
			}
			row := binv[k]
			for i := 0; i < m; i++ {
				y[i] += cb * row[i]
			}
		}
		// Pricing.
		enter, bestRC := -1, -tol
		bland := stalled >= stallLimit
		price := func(v int) float64 {
			sup, sign := colSign(v)
			dot := 0.0
			for _, i := range sup {
				dot += y[i]
			}
			return costOf(v) - sign*dot
		}
		for v := 0; v < nVars; v++ {
			rc := price(v)
			if bland {
				if rc < -tol {
					enter = v
					break
				}
				continue
			}
			if rc < bestRC {
				bestRC = rc
				enter = v
			}
		}
		if enter < 0 {
			break // optimal
		}
		// Direction d = B^{-1} A_enter.
		sup, sign := colSign(enter)
		for k := 0; k < m; k++ {
			acc := 0.0
			row := binv[k]
			for _, i := range sup {
				acc += row[i]
			}
			d[k] = sign * acc
		}
		// Ratio test (Bland tie-break on basis index).
		leave := -1
		best := math.Inf(1)
		for k := 0; k < m; k++ {
			if d[k] > tol {
				r := xB[k] / d[k]
				if r < best-tol || (math.Abs(r-best) <= tol && (leave < 0 || basis[k] < basis[leave])) {
					best = r
					leave = k
				}
			}
		}
		if leave < 0 {
			return nil, 0, pivots, fmt.Errorf("lp: relaxed system reported unbounded (solver defect)")
		}
		before := objVal()
		// Pivot: update xB and B^{-1}.
		theta := best
		for k := 0; k < m; k++ {
			xB[k] -= theta * d[k]
			if xB[k] < 0 && xB[k] > -1e-9 {
				xB[k] = 0
			}
		}
		xB[leave] = theta
		piv := d[leave]
		lrow := binv[leave]
		inv := 1 / piv
		for i := 0; i < m; i++ {
			lrow[i] *= inv
		}
		for k := 0; k < m; k++ {
			if k == leave || d[k] == 0 {
				continue
			}
			f := d[k]
			row := binv[k]
			for i := 0; i < m; i++ {
				row[i] -= f * lrow[i]
			}
		}
		basis[leave] = enter
		pivots++
		if objVal() < before-1e-9 {
			stalled = 0
		} else {
			stalled++
		}
		if pivots > maxPivots {
			return nil, 0, pivots, fmt.Errorf("lp: revised pivot limit exceeded (%d)", maxPivots)
		}
	}

	x = make([]float64, n)
	for k := 0; k < m; k++ {
		if basis[k] < n {
			v := xB[k]
			if v < 0 {
				v = 0
			}
			x[basis[k]] = v
		}
	}
	return x, objVal(), pivots, nil
}

// refSystem builds a system above denseCutover from per-atom supports
// (ascending row lists): row i lists, in ascending order, the atoms whose
// support contains i. Cards come from hidden counts, so the EQ rows are
// consistent unless perturb shifts some of them.
func refSystem(r *rand.Rand, m int, supp [][]int32, perturb bool) *AtomSystem {
	s := &AtomSystem{NumAtoms: len(supp), Cons: make([]AtomConstraint, m)}
	for a, sup := range supp {
		hidden := int64(r.Intn(4))
		s.Total += hidden
		for _, i := range sup {
			s.Cons[i].Atoms = append(s.Cons[i].Atoms, a)
			s.Cons[i].Card += hidden
		}
	}
	for i := range s.Cons {
		if perturb && r.Intn(4) == 0 {
			s.Cons[i].Card += int64(r.Intn(50))
		}
		s.Cons[i].Label = fmt.Sprintf("c%d", i)
	}
	return s
}

// randSupport draws an ascending row list in which each of m rows appears
// with probability p.
func randSupport(r *rand.Rand, m int, p float64) []int32 {
	var sup []int32
	for i := 0; i < m; i++ {
		if r.Float64() < p {
			sup = append(sup, int32(i))
		}
	}
	return sup
}

// TestRevisedMatchesReference holds the trie-priced revised simplex to the
// direct one bit for bit: same x, same objective, same pivot count, on
// systems shaped to exercise every branch of the shared-prefix pricing, and
// on one that stalls long enough for Bland pricing to run.
func TestRevisedMatchesReference(t *testing.T) {
	n := denseCutover + 300
	cases := map[string]func(r *rand.Rand) *AtomSystem{
		// Supports are prefixes of a few long row paths, so nearly every
		// atom shares most of its sum with others.
		"prefix sharing": func(r *rand.Rand) *AtomSystem {
			const m = 48
			paths := make([][]int32, 6)
			for i := range paths {
				paths[i] = randSupport(r, m, 0.6)
			}
			supp := make([][]int32, n)
			for a := range supp {
				p := paths[r.Intn(len(paths))]
				supp[a] = p[:r.Intn(len(p)+1)]
			}
			return refSystem(r, m, supp, true)
		},
		// Only a handful of distinct supports among thousands of atoms.
		"duplicate supports": func(r *rand.Rand) *AtomSystem {
			const m = 30
			distinct := make([][]int32, 12)
			for i := range distinct {
				distinct[i] = randSupport(r, m, 0.3)
			}
			supp := make([][]int32, n)
			for a := range supp {
				supp[a] = distinct[r.Intn(len(distinct))]
			}
			return refSystem(r, m, supp, true)
		},
		// No total row: atoms in no constraint keep an empty support and
		// price at the root's 0.0.
		"unconstrained atoms, no total": func(r *rand.Rand) *AtomSystem {
			const m = 40
			supp := make([][]int32, n)
			for a := range supp {
				if r.Intn(3) > 0 {
					supp[a] = randSupport(r, m, 0.15)
				}
			}
			s := refSystem(r, m, supp, true)
			s.Total = -1
			s.Prefer = []int{0, 5, 17} // ignored without a total
			return s
		},
		// Inhabitation-style GE rows (card 1, free surplus) and preferred
		// atoms with the tiny objective bonus.
		"GE rows and prefer": func(r *rand.Rand) *AtomSystem {
			const m = 36
			supp := make([][]int32, n)
			for a := range supp {
				supp[a] = randSupport(r, m, 0.2)
			}
			s := refSystem(r, m, supp, false)
			for g := 0; g < 25; g++ {
				var atoms []int
				for a := r.Intn(50); a < n; a += 1 + r.Intn(400) {
					atoms = append(atoms, a)
				}
				s.Cons = append(s.Cons, AtomConstraint{Atoms: atoms, Card: 1, Kind: GE, Label: fmt.Sprintf("ge%d", g)})
			}
			for a := 0; a < n; a += 1 + r.Intn(30) {
				s.Prefer = append(s.Prefer, a)
			}
			return s
		},
	}
	for name, gen := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			s := gen(rand.New(rand.NewSource(seed)))
			checkRevisedMatches(t, fmt.Sprintf("%s/seed %d", name, seed), s)
		}
	}

	// A fully degenerate system: every card is 0, so every pivot has step
	// 0, the objective never improves, and the stall counter equals the
	// pivot count. More than stallLimit pivots therefore proves the solver
	// priced under Bland's rule.
	r := rand.New(rand.NewSource(9))
	const m = 24
	supp := make([][]int32, denseCutover+200)
	for a := range supp {
		supp[a] = randSupport(r, m, 0.1)
	}
	s := refSystem(r, m, supp, false)
	s.Total = 0
	for i := range s.Cons {
		s.Cons[i].Card = 0
	}
	pivots := checkRevisedMatches(t, "degenerate", s)
	if pivots <= stallLimit {
		t.Fatalf("%d pivots, want > stallLimit (%d) so that Bland pricing runs", pivots, stallLimit)
	}
}

func checkRevisedMatches(t *testing.T, name string, s *AtomSystem) int {
	t.Helper()
	if s.NumAtoms <= denseCutover {
		t.Fatalf("%s: %d atoms would take the dense path", name, s.NumAtoms)
	}
	wantX, wantObj, wantPiv, wantErr := revisedReference(s)
	x, obj, piv, err := solveAtomsRevised(s)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: err %v, reference %v", name, err, wantErr)
	}
	if piv != wantPiv {
		t.Errorf("%s: %d pivots, reference %d", name, piv, wantPiv)
	}
	if math.Float64bits(obj) != math.Float64bits(wantObj) {
		t.Errorf("%s: obj %v, reference %v", name, obj, wantObj)
	}
	for a := range wantX {
		if math.Float64bits(x[a]) != math.Float64bits(wantX[a]) {
			t.Errorf("%s: x[%d] = %v, reference %v", name, a, x[a], wantX[a])
			break
		}
	}
	t.Logf("%s: %d pivots, obj %g", name, piv, obj)
	return piv
}
