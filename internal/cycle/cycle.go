// Package cycle holds the interval arithmetic shared by the engine's two
// summary-direct paths: the aggregate evaluator (summaryagg.go), which sums
// cycling columns in closed form, and the pruned scan (prune.go), which
// turns a predicate's surviving cycle ranks into the exact tuple positions
// a summary row contributes. Both reason about the generator's law — within
// a summary row of Count n, the tuple at offset w takes value
// Set.At(w mod Set.Len()), with the phase resetting to zero at every
// summary row — so the helpers live in one package rather than two
// re-implementations.
//
// The 128-bit sum helpers (Mul128, MulAcc128, SumSet128) are the exact
// arithmetic the aggregate path folds with; Ranks and Positions are the
// position kernels the pruned scan seeks with. All of them are
// allocation-free: the position kernels append only into caller-provided
// destination slices.
package cycle

import (
	"math/bits"

	"repro/internal/value"
)

// Mul128 returns the signed 128-bit product a·b as (low, high) words.
//
//hydra:hotpath
func Mul128(a, b int64) (lo, hi int64) {
	h, l := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		h -= uint64(b)
	}
	if b < 0 {
		h -= uint64(a)
	}
	return int64(l), int64(h)
}

// MulAcc128 returns (accLo,accHi) + (lo,hi)·c for c >= 0, all signed 128-bit.
//
//hydra:hotpath
func MulAcc128(accLo, accHi, lo, hi, c int64) (int64, int64) {
	ph, pl := bits.Mul64(uint64(lo), uint64(c))
	rhi := hi*c + int64(ph)
	s, carry := bits.Add64(uint64(accLo), pl, 0)
	return int64(s), accHi + rhi + int64(carry)
}

// SumSet128 returns the exact sum of a canonical interval set's points in
// 128 bits. Per interval [a,b): Σ = u·(a+b−1)/2 with u = b−a; exactly one
// of u and a+b−1 is even, so the halving is exact in integers.
//
//hydra:hotpath
func SumSet128(s value.IntervalSet) (lo, hi int64) {
	for _, iv := range s {
		u := iv.Hi - iv.Lo
		m := iv.Lo + iv.Hi - 1
		var plo, phi int64
		if u%2 == 0 {
			plo, phi = Mul128(u/2, m)
		} else {
			plo, phi = Mul128(u, m/2)
		}
		s, carry := bits.Add64(uint64(lo), uint64(plo), 0)
		lo = int64(s)
		hi += phi + int64(carry)
	}
	return lo, hi
}

// Ranks maps the surviving values of one cycling column into rank space:
// given the column's canonical cycle set s and i = s ∩ P (the shape
// IntersectInto produces — canonical, with every i interval inside exactly
// one s interval), it returns the set of cycle offsets w in [0, s.Len())
// whose value s.At(w) lies in i, appended into dst[:0]. Value intervals
// separated only by gaps of s become adjacent in rank space, so outputs are
// merged: the result is canonical over [0, L).
//
//hydra:hotpath
func Ranks(dst value.IntervalSet, s, i value.IntervalSet) value.IntervalSet {
	dst = dst[:0]
	var base int64 // ranks preceding the current s interval
	ii := 0
	for si := 0; si < len(s) && ii < len(i); si++ {
		sv := s[si]
		for ii < len(i) && i[ii].Hi <= sv.Hi {
			iv := i[ii]
			ii++
			if iv.Lo < sv.Lo {
				continue // not inside sv: malformed input, skip defensively
			}
			lo := base + (iv.Lo - sv.Lo)
			hi := base + (iv.Hi - sv.Lo)
			if k := len(dst); k > 0 && dst[k-1].Hi == lo {
				dst[k-1].Hi = hi
			} else {
				dst = append(dst, value.Ival(lo, hi))
			}
		}
		base += sv.Hi - sv.Lo
	}
	return dst
}

// Positions expands surviving cycle ranks into global tuple positions for
// one summary row: the row's tuples occupy [base, base+n), its driving
// column cycles with period l, and ranks (canonical over [0, l)) holds the
// offsets-within-cycle that survive the predicate. The result — appended
// into dst[:0] — is the canonical set of global positions p in
// [base, base+n) with (p−base) mod l ∈ ranks: ascending, disjoint, with
// cycle-straddling adjacency merged (a full-cycle ranks of [0,l) collapses
// to the single interval [base, base+n)).
//
//hydra:hotpath
func Positions(dst value.IntervalSet, base, n, l int64, ranks value.IntervalSet) value.IntervalSet {
	dst = dst[:0]
	if n <= 0 || l <= 0 || len(ranks) == 0 {
		return dst
	}
	for c := int64(0); c*l < n; c++ {
		off := base + c*l
		lim := n - c*l // offsets of the row still available in this cycle
		for _, r := range ranks {
			lo := r.Lo
			if lo >= lim {
				break
			}
			hi := r.Hi
			if hi > lim {
				hi = lim
			}
			glo, ghi := off+lo, off+hi
			if k := len(dst); k > 0 && dst[k-1].Hi == glo {
				dst[k-1].Hi = ghi
			} else {
				dst = append(dst, value.Ival(glo, ghi))
			}
		}
	}
	return dst
}
