package cycle

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/value"
)

// FuzzSum128 differentially tests the summary-direct path's 128-bit helpers
// against math/big: Mul128 and MulAcc128 (word arithmetic and sign
// correction) and SumSet128 (the exact-halving interval sum).

// bigIntervalSum is the exact sum of an interval's points: u·(lo+hi−1)/2
// with u = hi−lo; exactly one factor is even, so the division is exact.
func bigIntervalSum(iv value.Interval) *big.Int {
	if iv.Empty() {
		return new(big.Int)
	}
	u := new(big.Int).SetInt64(iv.Hi - iv.Lo)
	m := new(big.Int).SetInt64(iv.Lo + iv.Hi - 1)
	u.Mul(u, m)
	return u.Rsh(u, 1)
}

func FuzzSum128(f *testing.F) {
	// A small negative total carried as lo=−5, hi=−1.
	f.Add(int64(-5), int64(-1), int64(3), int64(-7), int64(9), int64(-100), int64(50), int64(3), int64(1000))
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(math.MinInt64), int64(math.MaxInt64), int64(1), int64(value.DomainMax/3), int64(1<<31), int64(7), int64(1<<30))
	f.Add(int64(-1), int64(0), int64(-1), int64(-1), int64(math.MaxInt64), int64(value.DomainMin/3), int64(1<<20), int64(0), int64(5))
	f.Fuzz(func(t *testing.T, lo, hi, a, b, c int64, iv1lo, iv1n, gap, iv2n int64) {
		// Mul128: unrestricted — any int64 product fits in 128 bits.
		pl, ph := Mul128(a, b)
		wantMul := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		if big128(pl, ph).Cmp(wantMul) != 0 {
			t.Fatalf("Mul128(%d, %d) = %v, want %v", a, b, big128(pl, ph), wantMul)
		}

		// MulAcc128: bounded to its documented contract (c >= 0, operands
		// small enough that hi*c cannot overflow; the engine's totals stay
		// below 2¹²⁴).
		mHi := hi % (1 << 40)
		cm := c % (1 << 20)
		if cm < 0 {
			cm = -cm
		}
		accHi := a % (1 << 40)
		gl, gh := MulAcc128(lo, accHi, b, mHi, cm)
		wantAcc := new(big.Int).Mul(big128(b, mHi), big.NewInt(cm))
		wantAcc.Add(wantAcc, big128(lo, accHi))
		if big128(gl, gh).Cmp(wantAcc) != 0 {
			t.Fatalf("MulAcc128(%d,%d, %d,%d, %d) = %v, want %v", lo, accHi, b, mHi, cm, big128(gl, gh), wantAcc)
		}

		// SumSet128 over a canonical two-interval set built inside the
		// value domain: exact against per-interval big sums.
		lo1 := iv1lo % (value.DomainMax / 2)
		n1 := iv1n & (1<<32 - 1)
		g := gap&(1<<16-1) + 1
		n2 := iv2n & (1<<32 - 1)
		set := value.IntervalSet{
			value.Ival(lo1, lo1+n1),
			value.Ival(lo1+n1+g, lo1+n1+g+n2),
		}
		sl, sh := SumSet128(set)
		wantSum := new(big.Int)
		for _, iv := range set {
			wantSum.Add(wantSum, bigIntervalSum(iv))
		}
		if big128(sl, sh).Cmp(wantSum) != 0 {
			t.Fatalf("SumSet128(%v) = %v, want %v", set, big128(sl, sh), wantSum)
		}
	})
}

// FuzzPositions differentially tests the position-enumeration kernels the
// pruned scan is built on: for a fuzzed cycle set S, predicate set P, and
// row geometry (base, n), the composed Ranks/Positions output must equal
// brute-force evaluation of the generator's law — offset w survives iff
// P contains S.At(w mod S.Len()).
func FuzzPositions(f *testing.F) {
	f.Add(int64(0), int64(10), int64(3), int64(20), int64(5), int64(25), int64(0), int64(61))
	f.Add(int64(-5), int64(2), int64(1), int64(1), int64(-5), int64(0), int64(100), int64(7))
	f.Add(int64(0), int64(2), int64(8), int64(2), int64(0), int64(12), int64(3), int64(9)) // gap-merge shape
	f.Add(int64(1), int64(1), int64(1), int64(1), int64(-100), int64(100), int64(50), int64(1))
	f.Fuzz(func(t *testing.T, s1lo, s1n, sgap, s2n, plo, phi, base, n int64) {
		// Build a canonical two-interval cycle set and a predicate interval,
		// all bounded so brute force stays cheap.
		s1lo %= 1 << 10
		s1n = s1n&(1<<6-1) + 1
		sgap = sgap&(1<<6-1) + 1
		s2n = s2n & (1<<6 - 1)
		S := value.IntervalSet{value.Ival(s1lo, s1lo+s1n)}
		if s2n > 0 {
			S = append(S, value.Ival(s1lo+s1n+sgap, s1lo+s1n+sgap+s2n))
		}
		plo %= 1 << 11
		phi %= 1 << 11
		if phi < plo {
			plo, phi = phi, plo
		}
		P := value.IntervalSet{value.Ival(plo, phi+1)}
		base = base & (1<<20 - 1)
		n = n & (1<<10 - 1)

		L := S.Len()
		I := S.IntersectInto(nil, P)
		R := Ranks(nil, S, I)

		// Ranks invariants: canonical over [0, L), count = |I|.
		var rn int64
		for k, r := range R {
			if r.Lo >= r.Hi || r.Lo < 0 || r.Hi > L {
				t.Fatalf("Ranks(%v, %v)[%d] = %v out of [0,%d)", S, I, k, r, L)
			}
			if k > 0 && R[k-1].Hi >= r.Lo {
				t.Fatalf("Ranks(%v, %v) not canonical: %v", S, I, R)
			}
			rn += r.Hi - r.Lo
		}
		if rn != I.Len() {
			t.Fatalf("Ranks(%v, %v) covers %d ranks, want %d", S, I, rn, I.Len())
		}

		got := Positions(nil, base, n, L, R)
		var want value.IntervalSet
		var wantCount int64
		for w := int64(0); w < n; w++ {
			if !P.Contains(S.At(w % L)) {
				continue
			}
			wantCount++
			g := base + w
			if k := len(want); k > 0 && want[k-1].Hi == g {
				want[k-1].Hi = g + 1
			} else {
				want = append(want, value.Ival(g, g+1))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Positions(%d,%d,%d,%v) = %v, want %v", base, n, L, R, got, want)
		}
		var gotCount int64
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("Positions(%d,%d,%d,%v)[%d] = %v, want %v", base, n, L, R, k, got[k], want[k])
			}
			gotCount += got[k].Hi - got[k].Lo
		}
		if gotCount != wantCount {
			t.Fatalf("Positions count %d, want %d", gotCount, wantCount)
		}
	})
}
