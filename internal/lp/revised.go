package lp

import (
	"fmt"
	"math"
	"slices"
)

// solveAtomsRevised solves the relaxed atom system with a revised simplex
// specialized to its structure: atom columns are sparse 0/1 vectors (the
// constraints the atom belongs to) and every constraint carries a +u/−v
// deviation pair. Because {u_i} forms an identity starting basis with
// x_B = b ≥ 0, no phase-1 is needed, and memory is O(m²) for the basis
// inverse regardless of the (possibly very large) atom count — this is what
// lets Hydra-style fact-table LPs with hundreds of thousands of variables
// solve in seconds within the paper's data-scale-free budget.
//
// Pricing goes through a prefix trie over the atoms' supports (see
// prefixTrie): an atom's reduced cost is costAtom[v] − Σ_{i∈cols[v]} y[i]
// summed left to right over its ascending rows, so atoms sharing a prefix
// share that partial sum bit for bit, and one pass over the trie's nodes
// prices every atom. Every floating-point operation keeps its inputs and
// order, and variables are priced in the same order (atoms, then u₀, v₀,
// u₁, …), so pivots, x and the objective are bit-identical to pricing each
// atom on its own.
func solveAtomsRevised(s *AtomSystem) (x []float64, obj float64, pivots int, err error) {
	rows := s.rows()
	m := len(rows)
	n := s.NumAtoms
	if m == 0 {
		return make([]float64, n), 0, 0, nil
	}

	b := make([]float64, m)
	for i, r := range rows {
		b[i] = float64(r.Card)
		if b[i] < 0 {
			return nil, 0, 0, fmt.Errorf("lp: negative cardinality %v in %s", r.Card, r.Label)
		}
	}

	// Variable numbering: [0,n) atoms, n+2i = u_i, n+2i+1 = v_i.
	// Objective: deviations cost 1, except surplus (v) on GE rows, which
	// is free; preferred atoms get the tiny bonus.
	nVars := n + 2*m
	cost := make([]float64, nVars)
	if s.Total >= 0 {
		for _, a := range s.Prefer {
			cost[a] = -preferWeight
		}
	}
	for i, r := range rows {
		cost[n+2*i] = 1
		if r.Kind != GE {
			cost[n+2*i+1] = 1
		}
	}
	sup := newSupports(rows, n)
	trie := newPrefixTrie(sup, n, m)

	// Basis: u_i for every row; B = I, kept as one flat row-major m×m
	// slice.
	basis := make([]int, m)
	xB := make([]float64, m)
	binv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		basis[i] = n + 2*i
		xB[i] = b[i]
		binv[i*m+i] = 1
	}

	y := make([]float64, m)
	d := make([]float64, m)
	const tol = 1e-7
	stalled := 0
	objVal := func() float64 {
		v := 0.0
		for k := 0; k < m; k++ {
			v += cost[basis[k]] * xB[k]
		}
		return v
	}

	for {
		// y = c_B^T B^{-1}.
		clear(y)
		for k := 0; k < m; k++ {
			cb := cost[basis[k]]
			if cb == 0 {
				continue
			}
			row := binv[k*m : k*m+m]
			for i := 0; i < m; i++ {
				y[i] += cb * row[i]
			}
		}
		enter := price(trie, cost, y, n, stalled >= stallLimit, tol)
		if enter < 0 {
			break // optimal
		}
		// Direction d = B^{-1} A_enter.
		if enter < n {
			col := sup.of(enter)
			for k := 0; k < m; k++ {
				acc := 0.0
				row := binv[k*m : k*m+m]
				for _, i := range col {
					acc += row[i]
				}
				d[k] = acc
			}
		} else {
			i := (enter - n) / 2
			sign := 1.0 // u_i
			if (enter-n)%2 == 1 {
				sign = -1 // v_i
			}
			for k := 0; k < m; k++ {
				// From 0.0 like the atoms' sums: 0.0 + −0.0 is +0.0.
				acc := 0.0
				acc += binv[k*m+i]
				d[k] = sign * acc
			}
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
		lrow := binv[leave*m : leave*m+m]
		inv := 1 / piv
		for i := 0; i < m; i++ {
			lrow[i] *= inv
		}
		for k := 0; k < m; k++ {
			if k == leave || d[k] == 0 {
				continue
			}
			f := d[k]
			row := binv[k*m : k*m+m]
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

// price returns the entering variable for duals y, or -1 at optimality:
// the most negative reduced cost below −tol (Dantzig), or under bland the
// first variable below −tol. Variables are scanned atoms first, then
// u₀, v₀, u₁, v₁, …; Dantzig keeps the first of equal minima.
func price(trie *prefixTrie, cost, y []float64, n int, bland bool, tol float64) int {
	ps := trie.sums(y)
	enter, bestRC := -1, -tol
	for v, leaf := range trie.leaf {
		rc := cost[v] - ps[leaf]
		if bland {
			if rc < -tol {
				return v
			}
			continue
		}
		if rc < bestRC {
			bestRC = rc
			enter = v
		}
	}
	for i, yi := range y {
		// The one-row sum, from 0.0 like every other. u_i has column +e_i
		// and v_i has −e_i; c − (−1)·dot is c + dot exactly.
		dot := 0.0
		dot += yi
		for j, rc := range [2]float64{cost[n+2*i] - dot, cost[n+2*i+1] + dot} {
			if bland {
				if rc < -tol {
					return n + 2*i + j
				}
				continue
			}
			if rc < bestRC {
				bestRC = rc
				enter = n + 2*i + j
			}
		}
	}
	return enter
}

// supports holds every atom's column support — the ascending rows it
// belongs to — in CSR form: atom a's rows are row[start[a]:start[a+1]].
type supports struct {
	start []int32
	row   []int32
}

func newSupports(rows []AtomConstraint, n int) supports {
	start := make([]int32, n+1)
	for _, r := range rows {
		for _, a := range r.Atoms {
			start[a+1]++
		}
	}
	for a := 0; a < n; a++ {
		start[a+1] += start[a]
	}
	row := make([]int32, start[n])
	fill := slices.Clone(start[:n])
	for i, r := range rows {
		for _, a := range r.Atoms {
			row[fill[a]] = int32(i)
			fill[a]++
		}
	}
	return supports{start: start, row: row}
}

func (s supports) of(a int) []int32 { return s.row[s.start[a]:s.start[a+1]] }

// prefixTrie shares the pricing sums of atoms whose supports share a
// prefix. Node 0 is the root (the empty prefix, sum 0.0); every other node
// extends its parent's prefix by one row, and its sum is the parent's sum
// plus that row's dual — exactly the left-to-right partial sum every atom
// below it would compute on its own. Nodes are numbered level by level
// (all depth-1 nodes, then depth 2, …), so a node's parent is always
// computed earlier but never immediately before it: the adds of one pass
// are independent rather than one dependent chain, as preorder numbering
// would make them.
type prefixTrie struct {
	par  []int32 // parent node; par[0] is unused
	row  []int32 // the row whose dual the node adds; row[0] is unused
	leaf []int32 // per atom: the node whose prefix is its whole support
	ps   []float64
}

// newPrefixTrie builds the trie over the supports of n atoms in m rows one
// level at a time: the atoms still descending at depth d are ordered by
// (node, row at depth d) with two stable counting sorts, and each distinct
// pair becomes a child at depth d+1, numbered in that order.
func newPrefixTrie(sup supports, n, m int) *prefixTrie {
	node := make([]int32, n) // each atom's node at the current depth
	var cur []int32          // atoms whose support is longer than the depth
	for a := 0; a < n; a++ {
		if sup.start[a+1] > sup.start[a] {
			cur = append(cur, int32(a))
		}
	}
	leaf := make([]int32, n)
	byRow := make([]int32, len(cur))
	rowStart := make([]int32, m+1)
	var nodeStart []int32
	var levels [][2][]int32 // per depth below the root: its nodes' par and row
	nodes := int32(1)
	for d, lo := int32(0), int32(0); len(cur) > 0; d++ {
		hi := nodes // this level's nodes are [lo, hi)
		rowAt := func(a int32) int32 { return sup.row[sup.start[a]+d] }
		clear(rowStart)
		for _, a := range cur {
			rowStart[rowAt(a)+1]++
		}
		for r := 1; r <= m; r++ {
			rowStart[r] += rowStart[r-1]
		}
		byRow = byRow[:len(cur)]
		for _, a := range cur {
			r := rowAt(a)
			byRow[rowStart[r]] = a
			rowStart[r]++
		}
		nodeStart = slices.Grow(nodeStart[:0], int(hi-lo)+1)[:hi-lo+1]
		clear(nodeStart)
		for _, a := range byRow {
			nodeStart[node[a]-lo+1]++
		}
		for k := 1; k < len(nodeStart); k++ {
			nodeStart[k] += nodeStart[k-1]
		}
		for _, a := range byRow {
			k := node[a] - lo
			cur[nodeStart[k]] = a
			nodeStart[k]++
		}
		// Each distinct (node, row) run of cur is one child.
		runs := 0
		for i, a := range cur {
			if i == 0 || node[a] != node[cur[i-1]] || rowAt(a) != rowAt(cur[i-1]) {
				runs++
			}
		}
		par, row := make([]int32, 0, runs), make([]int32, 0, runs)
		keep := cur[:0]
		prevNode, prevRow := int32(-1), int32(-1)
		for _, a := range cur {
			if r := rowAt(a); node[a] != prevNode || r != prevRow {
				prevNode, prevRow = node[a], r
				par, row = append(par, node[a]), append(row, r)
			}
			node[a] = hi + int32(len(par)) - 1
			if sup.start[a+1]-sup.start[a] == d+1 {
				leaf[a] = node[a]
			} else {
				keep = append(keep, a)
			}
		}
		levels = append(levels, [2][]int32{par, row})
		cur, lo, nodes = keep, hi, hi+int32(runs)
	}
	t := &prefixTrie{par: make([]int32, 1, nodes), row: make([]int32, 1, nodes), leaf: leaf, ps: make([]float64, nodes)}
	for _, l := range levels {
		t.par, t.row = append(t.par, l[0]...), append(t.row, l[1]...)
	}
	return t
}

// sums computes every node's prefix sum of y and returns it, indexed by
// node.
func (t *prefixTrie) sums(y []float64) []float64 {
	ps, par, row := t.ps, t.par, t.row
	ps[0] = 0
	for j := 1; j < len(ps); j++ {
		ps[j] = ps[par[j]] + y[row[j]]
	}
	return ps
}
