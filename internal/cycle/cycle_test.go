package cycle

import (
	"math"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/value"
)

// big128 reconstructs the signed 128-bit value (hi·2⁶⁴ + uint64(lo)) as a
// big.Int for exact comparison.
func big128(lo, hi int64) *big.Int {
	v := new(big.Int).Lsh(big.NewInt(hi), 64)
	return v.Add(v, new(big.Int).SetUint64(uint64(lo)))
}

// Test128BitHelpers cross-checks the 128-bit arithmetic the summary-direct
// paths sum with against math/big references on edge values.
func Test128BitHelpers(t *testing.T) {
	for _, tc := range []struct{ a, b int64 }{
		{0, 0}, {1, 1}, {-1, 1}, {-1, -1},
		{math.MaxInt64, 2}, {math.MinInt64, 3}, {1 << 61, 1 << 2},
		{-(1 << 61), 12345}, {987654321, -123456789},
		{math.MaxInt64, math.MaxInt64}, {math.MinInt64, math.MinInt64},
	} {
		lo, hi := Mul128(tc.a, tc.b)
		want := new(big.Int).Mul(big.NewInt(tc.a), big.NewInt(tc.b))
		if got := big128(lo, hi); got.Cmp(want) != 0 {
			t.Errorf("Mul128(%d,%d) = (%d,%d) = %s, want %s", tc.a, tc.b, lo, hi, got, want)
		}
		// MulAcc128 accumulates c copies of (lo,hi) onto a running pair.
		// Its contract is bounded by the evaluator's use — Σ value·count
		// with total count ≤ 2⁶³, which always fits 128 bits — so only
		// check in-range accumulations.
		wantAcc := new(big.Int).Add(big.NewInt(5), new(big.Int).Mul(want, big.NewInt(3)))
		if wantAcc.BitLen() < 127 {
			alo, ahi := MulAcc128(5, 0, lo, hi, 3)
			if got := big128(alo, ahi); got.Cmp(wantAcc) != 0 {
				t.Errorf("MulAcc128(5, 3×%s) = %s, want %s", want, got, wantAcc)
			}
		}
	}
	s := value.IntervalSet{value.Ival(-3, 2), value.Ival(10, 14)}
	lo, hi := SumSet128(s)
	var want int64
	for _, iv := range s {
		for v := iv.Lo; v < iv.Hi; v++ {
			want += v
		}
	}
	if hi != want>>63 || lo != want {
		t.Fatalf("SumSet128(%v) = (%d,%d), want %d", s, lo, hi, want)
	}
}

func ivs(pairs ...int64) value.IntervalSet {
	out := make(value.IntervalSet, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, value.Ival(pairs[i], pairs[i+1]))
	}
	return out
}

// rankBrute computes Ranks' contract the slow way: rank r survives iff the
// r-th smallest point of s lies in i.
func rankBrute(s, i value.IntervalSet) value.IntervalSet {
	var out value.IntervalSet
	for r := int64(0); r < s.Len(); r++ {
		if !i.Contains(s.At(r)) {
			continue
		}
		if k := len(out); k > 0 && out[k-1].Hi == r {
			out[k-1].Hi = r + 1
		} else {
			out = append(out, value.Ival(r, r+1))
		}
	}
	return out
}

func TestRanks(t *testing.T) {
	for _, tc := range []struct {
		name string
		s, i value.IntervalSet
	}{
		{"full", ivs(0, 10), ivs(0, 10)},
		{"prefix", ivs(0, 10), ivs(0, 3)},
		{"suffix", ivs(0, 10), ivs(7, 10)},
		{"middle", ivs(5, 25), ivs(11, 14)},
		{"empty-i", ivs(0, 10), nil},
		{"two-in-one", ivs(0, 100), ivs(3, 7, 50, 60)},
		// Value intervals separated only by a gap of s become adjacent in
		// rank space and must merge: S = {[0,2),[10,12)}, I = S → [0,4).
		{"gap-merge", ivs(0, 2, 10, 12), ivs(0, 2, 10, 12)},
		{"gap-partial", ivs(0, 5, 10, 15), ivs(3, 5, 10, 12)},
		{"negative", ivs(-20, -10, 0, 4), ivs(-15, -12, 1, 3)},
		{"three-spans", ivs(0, 4, 8, 12, 100, 104), ivs(2, 4, 8, 10, 100, 101)},
	} {
		got := Ranks(nil, tc.s, tc.i)
		want := rankBrute(tc.s, tc.i)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Ranks(%v, %v) = %v, want %v", tc.name, tc.s, tc.i, got, want)
		}
	}
	// The gap-merge case specifically must come out as one interval.
	if got := Ranks(nil, ivs(0, 2, 10, 12), ivs(0, 2, 10, 12)); len(got) != 1 || got[0] != value.Ival(0, 4) {
		t.Errorf("gap-merge Ranks = %v, want [0,4)", got)
	}
}

// posBrute enumerates Positions' contract directly: offset w of the row
// survives iff w mod l is a surviving rank.
func posBrute(base, n, l int64, ranks value.IntervalSet) value.IntervalSet {
	var out value.IntervalSet
	for w := int64(0); w < n; w++ {
		if !ranks.Contains(w % l) {
			continue
		}
		g := base + w
		if k := len(out); k > 0 && out[k-1].Hi == g {
			out[k-1].Hi = g + 1
		} else {
			out = append(out, value.Ival(g, g+1))
		}
	}
	return out
}

func TestPositions(t *testing.T) {
	for _, tc := range []struct {
		name    string
		base, n int64
		l       int64
		ranks   value.IntervalSet
	}{
		{"full-cycle", 100, 10, 5, ivs(0, 5)},
		{"single-rank", 0, 20, 5, ivs(2, 3)},
		{"rank-span", 7, 23, 10, ivs(3, 6)},
		{"partial-last-cycle", 0, 13, 5, ivs(3, 5)},
		{"wrap-merge", 0, 20, 5, ivs(0, 1, 4, 5)}, // rank 4 then rank 0 of next cycle are adjacent
		{"row-shorter-than-cycle", 50, 3, 10, ivs(1, 6)},
		{"empty-ranks", 0, 10, 5, nil},
		{"two-ranks", 1000, 17, 6, ivs(1, 2, 4, 6)},
	} {
		got := Positions(nil, tc.base, tc.n, tc.l, tc.ranks)
		want := posBrute(tc.base, tc.n, tc.l, tc.ranks)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Positions(%d,%d,%d,%v) = %v, want %v",
				tc.name, tc.base, tc.n, tc.l, tc.ranks, got, want)
		}
	}
	// A full-cycle rank set must collapse to a single interval.
	if got := Positions(nil, 100, 17, 5, ivs(0, 5)); len(got) != 1 || got[0] != value.Ival(100, 117) {
		t.Errorf("full-cycle Positions = %v, want [100,117)", got)
	}
}

// TestRanksPositionsCompose drives the two kernels end to end the way the
// pruned scan does: S ∩ P → Ranks → Positions must equal brute-force
// evaluation of "P.Contains(S.At(w mod L))" over the whole row.
func TestRanksPositionsCompose(t *testing.T) {
	S := ivs(0, 10, 20, 30, 45, 50)
	for _, P := range []value.IntervalSet{
		ivs(5, 25),
		ivs(-5, 3, 22, 23, 47, 60),
		ivs(9, 21),
		ivs(0, 100),
		ivs(200, 300),
	} {
		I := S.IntersectInto(nil, P)
		R := Ranks(nil, S, I)
		const base, n = 37, 61
		got := Positions(nil, base, n, S.Len(), R)
		var want value.IntervalSet
		for w := int64(0); w < n; w++ {
			if !P.Contains(S.At(w % S.Len())) {
				continue
			}
			g := base + int64(w)
			if k := len(want); k > 0 && want[k-1].Hi == g {
				want[k-1].Hi = g + 1
			} else {
				want = append(want, value.Ival(g, g+1))
			}
		}
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("compose P=%v: got %v, want %v", P, got, want)
		}
	}
}
