package pred

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// refMatchVec is the executable specification MatchVec is held to: apply
// the definitional per-row Region.Match to every candidate.
func refMatchVec(m *Region, cols [][]int64, n int, sel []int32, width int) []int32 {
	row := make([]int64, width)
	gather := func(r int32) []int64 {
		for c := range row {
			if cols[c] != nil {
				row[c] = cols[c][r]
			}
		}
		return row
	}
	var out []int32
	if sel == nil {
		for i := 0; i < n; i++ {
			if m.Match(gather(int32(i))) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, r := range sel {
		if m.Match(gather(r)) {
			out = append(out, r)
		}
	}
	return out
}

func sameSel(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d survivors, want %d (got %v, want %v)", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: survivor %d = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestMatchVecRandomized pins MatchVec to Region.Match over randomized
// regions: 1-3 constrained columns, single-interval and multi-interval
// sets, dense inputs and random selections.
func TestMatchVecRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width, n = 4, 257
	cols := make([][]int64, width)
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = rng.Int63n(100)
		}
	}
	for trial := 0; trial < 200; trial++ {
		r := &Region{Table: "t"}
		ncols := 1 + rng.Intn(3)
		for c := 0; c < ncols; c++ {
			var set value.IntervalSet
			if rng.Intn(3) == 0 { // multi-interval: forces the Contains path
				lo1 := rng.Int63n(40)
				lo2 := 50 + rng.Int63n(40)
				set = value.NewIntervalSet(value.Ival(lo1, lo1+rng.Int63n(10)+1), value.Ival(lo2, lo2+rng.Int63n(10)+1))
			} else {
				lo := rng.Int63n(90)
				set = value.NewIntervalSet(value.Ival(lo, lo+rng.Int63n(30)+1))
			}
			r.Cols = append(r.Cols, c)
			r.Sets = append(r.Sets, set)
		}
		m := r.Matcher()

		var sel []int32
		if rng.Intn(2) == 0 {
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		got := m.MatchVec(cols, n, sel, make([]int32, 0, n))
		want := refMatchVec(r, cols, n, sel, width)
		sameSel(t, "randomized", got, want)
	}
}

// TestMatchVecEdges exercises the edge shapes the engine relies on: empty
// selections, all-pass and all-fail vectors, unconstrained matchers, empty
// regions, and in-place refinement when dst aliases sel.
func TestMatchVecEdges(t *testing.T) {
	const n = 64
	cols := [][]int64{make([]int64, n)}
	for i := range cols[0] {
		cols[0][i] = int64(i)
	}
	region := func(sets ...value.IntervalSet) *Matcher {
		r := &Region{Table: "t"}
		for i, s := range sets {
			r.Cols = append(r.Cols, i)
			r.Sets = append(r.Sets, s)
		}
		return r.Matcher()
	}

	allPass := region(value.NewIntervalSet(value.Ival(0, n)))
	got := allPass.MatchVec(cols, n, nil, make([]int32, 0, n))
	if len(got) != n || got[0] != 0 || got[n-1] != n-1 {
		t.Fatalf("all-pass dense: %d survivors", len(got))
	}

	allFail := region(value.NewIntervalSet(value.Ival(1000, 2000)))
	if got := allFail.MatchVec(cols, n, nil, make([]int32, 0, n)); len(got) != 0 {
		t.Fatalf("all-fail dense: %d survivors", len(got))
	}

	// Empty selection in, empty selection out — for every matcher shape.
	for _, m := range []*Matcher{allPass, allFail, region()} {
		if got := m.MatchVec(cols, n, []int32{}, make([]int32, 0, n)); len(got) != 0 {
			t.Fatalf("empty selection produced %d survivors", len(got))
		}
	}

	// Unconstrained matcher passes candidates through verbatim.
	sel := []int32{3, 9, 41}
	got = region().MatchVec(cols, n, sel, make([]int32, 0, n))
	sameSel(t, "unconstrained", got, sel)

	// Empty region (empty interval set) matches nothing.
	empty := region(value.IntervalSet(nil))
	if got := empty.MatchVec(cols, n, nil, make([]int32, 0, n)); len(got) != 0 {
		t.Fatalf("empty region matched %d rows", len(got))
	}

	// dst aliasing sel (the engine's selection-buffer reuse) must be safe.
	buf := make([]int32, 0, n)
	buf = append(buf, 2, 4, 6, 50)
	mid := region(value.NewIntervalSet(value.Ival(3, 10)))
	got = mid.MatchVec(cols, n, buf[:4], buf[:0])
	sameSel(t, "aliased", got, []int32{4, 6})
}
