package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// AtomConstraint is one volumetric constraint expressed over partition
// atoms: the rows placed in the listed atoms must total Card (Kind EQ) or
// at least Card (Kind GE). GE rows express inhabitation requirements —
// "this cell must hold at least one tuple because a referencing relation's
// atom materializes its foreign keys from it".
type AtomConstraint struct {
	Atoms []int // ascending atom indexes whose union is the constraint region
	Card  int64
	Kind  ConKind // EQ (default) or GE
	Label string
}

// AtomSystem is the per-relation LP in atom form: one variable per atom,
// one equality per constraint, plus the relation's total row count.
type AtomSystem struct {
	NumAtoms int
	Cons     []AtomConstraint
	// Total is the relation's row count; every atom variable sums to it.
	// A negative Total omits the row-count constraint.
	Total int64
	// Prefer lists atoms whose population is needed downstream (their
	// primary-key ranges feed foreign-key terms of other relations). They
	// receive a tiny negative objective coefficient so the solver keeps
	// them non-empty whenever the constraints allow it.
	Prefer []int
}

// preferWeight is small enough never to trade a unit of constraint
// deviation (weight 1) for any amount of preference.
const preferWeight = 1e-6

// BuildRelaxed encodes the system as an always-feasible LP: each constraint
// i gets deviation variables u_i, v_i with
//
//	Σ_{a∈C_i} x_a + u_i − v_i = card_i
//
// and the objective charges deviations: both directions for EQ rows, only
// the deficit (u) for GE rows. When the original system is feasible the
// optimum is 0 and x satisfies every constraint exactly — matching Hydra's
// behaviour of satisfying most constraints with no error and degrading
// gracefully on contradictory (what-if) annotation sets.
func (s *AtomSystem) BuildRelaxed() *Problem {
	rows := s.rows()
	p := &Problem{NumVars: s.NumAtoms + 2*len(rows)}
	for i, r := range rows {
		u := s.NumAtoms + 2*i
		v := u + 1
		terms := make([]Term, 0, len(r.Atoms)+2)
		for _, a := range r.Atoms {
			terms = append(terms, Term{Var: a, Coef: 1})
		}
		terms = append(terms, Term{Var: u, Coef: 1}, Term{Var: v, Coef: -1})
		p.AddConstraint(Constraint{Terms: terms, Kind: EQ, RHS: float64(r.Card), Label: r.Label})
		p.Objective = append(p.Objective, Term{Var: u, Coef: 1})
		if r.Kind != GE {
			p.Objective = append(p.Objective, Term{Var: v, Coef: 1})
		}
	}
	// Preference terms are only safe when the total-row constraint bounds
	// every atom; without it a preferred atom outside all constraint
	// regions would make the LP unbounded.
	if s.Total >= 0 {
		for _, a := range s.Prefer {
			p.Objective = append(p.Objective, Term{Var: a, Coef: -preferWeight})
		}
	}
	return p
}

// rows returns the constraint rows including the synthetic total-row
// constraint when Total >= 0.
func (s *AtomSystem) rows() []AtomConstraint {
	rows := append([]AtomConstraint(nil), s.Cons...)
	if s.Total >= 0 {
		all := make([]int, s.NumAtoms)
		for i := range all {
			all[i] = i
		}
		rows = append(rows, AtomConstraint{Atoms: all, Card: s.Total, Label: "|R|"})
	}
	return rows
}

// SolveResult is the integerized outcome of solving an AtomSystem.
type SolveResult struct {
	// Counts holds the integer row count per atom.
	Counts []int64
	// Residuals holds, per constraint (same order as rows(), i.e. Cons
	// then the total), the signed deviation card − Σ counts after
	// integerization and repair.
	Residuals []int64
	// Labels parallels Residuals.
	Labels []string
	// LPObj is the optimal L1 deviation of the fractional LP (0 when the
	// annotation set is consistent).
	LPObj float64
	// Pivots counts simplex pivots.
	Pivots int
}

// denseCutover is the atom count above which SolveAtoms switches from the
// dense tableau to the revised simplex. The dense tableau materializes
// m×(n+2m) floats; the revised solver needs only the m×m basis inverse.
const denseCutover = 4096

// SolveAtoms solves the relaxed LP, rounds the fractional atom counts to
// integers, and runs a bounded repair pass that shifts rows between atoms
// to cancel residuals introduced by rounding. Large systems use the revised
// simplex automatically.
func SolveAtoms(s *AtomSystem) (*SolveResult, error) {
	if s.NumAtoms == 0 {
		return nil, fmt.Errorf("lp: atom system with no atoms")
	}
	var (
		xs     []float64
		objVal float64
		pivots int
	)
	if s.NumAtoms > denseCutover {
		x, obj, piv, err := solveAtomsRevised(s)
		if err != nil {
			return nil, err
		}
		xs, objVal, pivots = x, obj, piv
	} else {
		sol, err := Solve(s.BuildRelaxed())
		if err != nil {
			return nil, err
		}
		if sol.Status != Optimal {
			// The relaxed LP is always feasible and bounded below by
			// 0; any other status is a solver defect.
			return nil, fmt.Errorf("lp: relaxed system reported %s", sol.Status)
		}
		xs, objVal, pivots = sol.X[:s.NumAtoms], sol.Obj, sol.Pivots
	}

	counts := make([]int64, s.NumAtoms)
	for a := 0; a < s.NumAtoms; a++ {
		v := xs[a]
		if v < 0 {
			v = 0
		}
		counts[a] = int64(math.Round(v))
	}
	rows := s.rows()
	res := &SolveResult{Counts: counts, LPObj: objVal, Pivots: pivots}
	repair(rows, counts)
	for _, r := range rows {
		var sum int64
		for _, a := range r.Atoms {
			sum += counts[a]
		}
		resid := r.Card - sum
		if r.Kind == GE && resid < 0 {
			resid = 0 // surplus satisfies a lower bound
		}
		res.Residuals = append(res.Residuals, resid)
		res.Labels = append(res.Labels, r.Label)
	}
	return res, nil
}

// repair greedily cancels integer residuals. For each unsatisfied
// constraint it adjusts the member atoms with the lowest "degree" (number
// of other constraints they participate in) first, so corrections disturb
// as few other constraints as possible. A few passes suffice in practice;
// remaining residuals are reported, mirroring the paper's small constant
// volumetric discrepancies.
func repair(rows []AtomConstraint, counts []int64) {
	degree := make([]int, len(counts))
	for _, r := range rows {
		for _, a := range r.Atoms {
			degree[a]++
		}
	}
	// Each row's members by (degree, atom), sorted when the row is first
	// unsatisfied; degrees never change, so later passes reuse the order.
	order := make([][]int, len(rows))
	const passes = 8
	for pass := 0; pass < passes; pass++ {
		changed := false
		for i, r := range rows {
			var sum int64
			for _, a := range r.Atoms {
				sum += counts[a]
			}
			resid := r.Card - sum
			if r.Kind == GE && resid < 0 {
				resid = 0 // lower bound already met
			}
			if resid == 0 {
				continue
			}
			if order[i] == nil {
				order[i] = slices.Clone(r.Atoms)
				slices.SortFunc(order[i], func(a, b int) int {
					return cmp.Or(cmp.Compare(degree[a], degree[b]), cmp.Compare(a, b))
				})
			}
			for _, a := range order[i] {
				if resid == 0 {
					break
				}
				if resid > 0 {
					counts[a] += resid
					resid = 0
					changed = true
					continue
				}
				take := -resid
				if take > counts[a] {
					take = counts[a]
				}
				if take > 0 {
					counts[a] -= take
					resid += take
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}
