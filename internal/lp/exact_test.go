package lp

import (
	"fmt"
	"math/big"
)

// SolveExact runs the same two-phase simplex in exact rational arithmetic:
// slower than Solve but immune to floating-point drift, the differential
// oracle the float64 path is held to (TestQuickExactAgreesWithFloat).
func SolveExact(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t, err := newRatTableau(p)
	if err != nil {
		return nil, err
	}
	if err := t.run(t.phase1Cost(), true); err != nil {
		return nil, err
	}
	if t.objValue().Sign() > 0 {
		return &Solution{Status: Infeasible, Pivots: t.pivots}, nil
	}
	t.driveOutArtificials()
	if err := t.run(t.phase2Cost(p), false); err != nil {
		return nil, err
	}
	if t.unbounded {
		return &Solution{Status: Unbounded, Pivots: t.pivots}, nil
	}
	x := make([]float64, p.NumVars)
	for i, bv := range t.basis {
		if bv < p.NumVars {
			f, _ := t.rhs(i).Float64()
			x[bv] = f
		}
	}
	var obj float64
	for _, term := range p.Objective {
		obj += term.Coef * x[term.Var]
	}
	return &Solution{Status: Optimal, X: x, Obj: obj, Pivots: t.pivots}, nil
}

type ratTableau struct {
	m, n      int
	nTotal    int
	rows      [][]*big.Rat
	basis     []int
	cost      []*big.Rat
	artStart  int
	pivots    int
	unbounded bool
}

func ratOf(f float64) (*big.Rat, error) {
	r := new(big.Rat)
	if r.SetFloat64(f) == nil {
		return nil, fmt.Errorf("lp: non-finite coefficient %v", f)
	}
	return r, nil
}

func newRatTableau(p *Problem) (*ratTableau, error) {
	m := len(p.Cons)
	extra := 0
	for _, c := range p.Cons {
		if c.Kind != EQ {
			extra++
		}
	}
	n := p.NumVars + extra
	t := &ratTableau{m: m, n: n, nTotal: n + m, artStart: n}
	t.rows = make([][]*big.Rat, m)
	t.basis = make([]int, m)

	slack := p.NumVars
	for i, c := range p.Cons {
		row := make([]*big.Rat, t.nTotal+1)
		for j := range row {
			row[j] = new(big.Rat)
		}
		for _, term := range c.Terms {
			coef, err := ratOf(term.Coef)
			if err != nil {
				return nil, err
			}
			row[term.Var].Add(row[term.Var], coef)
		}
		rhs, err := ratOf(c.RHS)
		if err != nil {
			return nil, err
		}
		switch c.Kind {
		case LE:
			row[slack].SetInt64(1)
			slack++
		case GE:
			row[slack].SetInt64(-1)
			slack++
		}
		if rhs.Sign() < 0 {
			for j := range row {
				row[j].Neg(row[j])
			}
			rhs.Neg(rhs)
		}
		row[t.nTotal].Set(rhs)
		row[t.artStart+i].SetInt64(1)
		t.rows[i] = row
		t.basis[i] = t.artStart + i
	}
	return t, nil
}

func (t *ratTableau) rhs(i int) *big.Rat { return t.rows[i][t.nTotal] }

func (t *ratTableau) phase1Cost() []*big.Rat {
	cost := make([]*big.Rat, t.nTotal+1)
	for j := range cost {
		cost[j] = new(big.Rat)
	}
	for j := t.artStart; j < t.nTotal; j++ {
		cost[j].SetInt64(1)
	}
	for i := 0; i < t.m; i++ {
		for j := 0; j <= t.nTotal; j++ {
			cost[j].Sub(cost[j], t.rows[i][j])
		}
	}
	return cost
}

func (t *ratTableau) phase2Cost(p *Problem) []*big.Rat {
	obj := make([]*big.Rat, t.nTotal)
	for j := range obj {
		obj[j] = new(big.Rat)
	}
	for _, term := range p.Objective {
		coef, _ := ratOf(term.Coef)
		obj[term.Var].Add(obj[term.Var], coef)
	}
	cost := make([]*big.Rat, t.nTotal+1)
	for j := range cost {
		cost[j] = new(big.Rat)
	}
	for j := 0; j < t.nTotal; j++ {
		cost[j].Set(obj[j])
	}
	tmp := new(big.Rat)
	for i, bv := range t.basis {
		cb := obj[bv]
		if cb.Sign() == 0 {
			continue
		}
		for j := 0; j <= t.nTotal; j++ {
			cost[j].Sub(cost[j], tmp.Mul(cb, t.rows[i][j]))
		}
	}
	return cost
}

func (t *ratTableau) objValue() *big.Rat {
	return new(big.Rat).Neg(t.cost[t.nTotal])
}

func (t *ratTableau) run(cost []*big.Rat, allowArtificials bool) error {
	t.cost = cost
	t.unbounded = false
	ratio := new(big.Rat)
	for {
		enter := -1
		limit := t.nTotal
		if !allowArtificials {
			limit = t.artStart
		}
		for j := 0; j < limit; j++ {
			if t.cost[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return nil
		}
		leave := -1
		var best *big.Rat
		for i := 0; i < t.m; i++ {
			a := t.rows[i][enter]
			if a.Sign() > 0 {
				ratio.Quo(t.rhs(i), a)
				switch {
				case best == nil || ratio.Cmp(best) < 0:
					best = new(big.Rat).Set(ratio)
					leave = i
				case ratio.Cmp(best) == 0 && t.basis[i] < t.basis[leave]:
					leave = i
				}
			}
		}
		if leave < 0 {
			t.unbounded = true
			return nil
		}
		t.pivot(leave, enter)
		if t.pivots > maxPivots {
			return fmt.Errorf("lp: exact pivot limit exceeded (%d)", maxPivots)
		}
	}
}

func (t *ratTableau) pivot(row, col int) {
	t.pivots++
	pr := t.rows[row]
	inv := new(big.Rat).Inv(pr[col])
	for j := 0; j <= t.nTotal; j++ {
		pr[j].Mul(pr[j], inv)
	}
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := new(big.Rat).Set(t.rows[i][col])
		if f.Sign() == 0 {
			continue
		}
		ri := t.rows[i]
		for j := 0; j <= t.nTotal; j++ {
			ri[j].Sub(ri[j], tmp.Mul(f, pr[j]))
		}
	}
	if t.cost[col].Sign() != 0 {
		f := new(big.Rat).Set(t.cost[col])
		for j := 0; j <= t.nTotal; j++ {
			t.cost[j].Sub(t.cost[j], tmp.Mul(f, pr[j]))
		}
	}
	t.basis[row] = col
}

func (t *ratTableau) driveOutArtificials() {
	for i, bv := range t.basis {
		if bv < t.artStart {
			continue
		}
		for j := 0; j < t.artStart; j++ {
			if t.rows[i][j].Sign() != 0 {
				t.pivot(i, j)
				break
			}
		}
	}
}
