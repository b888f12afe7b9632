package region

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/value"
)

func testSpace2D() *Space {
	t := &schema.Table{
		Name: "t",
		Columns: []*schema.Column{
			{Name: "x", Type: schema.Int, DomainLo: 0, DomainHi: 10},
			{Name: "y", Type: schema.Int, DomainLo: 0, DomainHi: 10},
		},
	}
	return NewSpace(t, []int{0, 1})
}

func blockOf(t *testing.T, s *Space, sets map[int]value.IntervalSet) Block {
	t.Helper()
	b, err := BlockFromSets(s, sets)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBlockBasics(t *testing.T) {
	s := testSpace2D()
	full := s.Full()
	if full.Empty() || full.Points() != 100 {
		t.Errorf("full: empty=%v points=%d", full.Empty(), full.Points())
	}
	b := blockOf(t, s, map[int]value.IntervalSet{
		0: value.NewIntervalSet(value.Ival(2, 5)),
		1: value.NewIntervalSet(value.Ival(0, 4), value.Ival(6, 8)),
	})
	if b.Points() != 3*6 {
		t.Errorf("points = %d, want 18", b.Points())
	}
	if !b.Contains([]int64{2, 7}) || b.Contains([]int64{2, 5}) || b.Contains([]int64{5, 0}) {
		t.Error("Contains misbehaves")
	}
	if Block(nil).Empty() {
		t.Error("zero-dim block must be non-empty")
	}
	if Block(nil).Points() != 1 {
		t.Error("zero-dim block has one point")
	}
}

func TestBlockFromSetsErrors(t *testing.T) {
	s := testSpace2D()
	if _, err := BlockFromSets(s, map[int]value.IntervalSet{5: nil}); err == nil {
		t.Error("unknown column accepted")
	}
	b := blockOf(t, s, map[int]value.IntervalSet{0: value.NewIntervalSet(value.Ival(50, 60))})
	if !b.Empty() {
		t.Error("out-of-domain set should produce an empty block")
	}
}

func TestBlockIntersectSubtract(t *testing.T) {
	s := testSpace2D()
	a := blockOf(t, s, map[int]value.IntervalSet{0: value.NewIntervalSet(value.Ival(0, 6)), 1: value.NewIntervalSet(value.Ival(0, 6))})
	b := blockOf(t, s, map[int]value.IntervalSet{0: value.NewIntervalSet(value.Ival(3, 10)), 1: value.NewIntervalSet(value.Ival(3, 10))})
	x := a.Intersect(b)
	if x.Points() != 9 {
		t.Errorf("intersection points = %d, want 9", x.Points())
	}
	diff := a.Subtract(b)
	var total int64
	for _, d := range diff {
		total += d.Points()
	}
	if total != 36-9 {
		t.Errorf("difference points = %d, want 27", total)
	}
	// Pieces must be disjoint from b and from each other.
	for px := int64(0); px < 10; px++ {
		for py := int64(0); py < 10; py++ {
			pt := []int64{px, py}
			inA, inB := a.Contains(pt), b.Contains(pt)
			n := 0
			for _, d := range diff {
				if d.Contains(pt) {
					n++
				}
			}
			want := 0
			if inA && !inB {
				want = 1
			}
			if n != want {
				t.Fatalf("point %v covered %d times, want %d", pt, n, want)
			}
		}
	}
}

func TestBlockSubtractDisjoint(t *testing.T) {
	s := testSpace2D()
	a := blockOf(t, s, map[int]value.IntervalSet{0: value.NewIntervalSet(value.Ival(0, 2))})
	b := blockOf(t, s, map[int]value.IntervalSet{0: value.NewIntervalSet(value.Ival(5, 7))})
	diff := a.Subtract(b)
	if len(diff) != 1 || diff[0].Points() != a.Points() {
		t.Errorf("disjoint subtract changed the block: %v", diff)
	}
}

func TestBlockPointsSaturates(t *testing.T) {
	big := value.NewIntervalSet(value.Ival(0, math.MaxInt64/2))
	b := Block{big, big, big}
	if b.Points() != math.MaxInt64 {
		t.Errorf("Points should saturate, got %d", b.Points())
	}
}

// randRegions builds random product regions over the 10x10 test space.
func randRegions(r *rand.Rand, n int) []Block {
	var out []Block
	for i := 0; i < n; i++ {
		b := make(Block, 2)
		for a := 0; a < 2; a++ {
			lo := int64(r.Intn(9))
			hi := lo + 1 + int64(r.Intn(int(10-lo)))
			set := value.NewIntervalSet(value.Ival(lo, hi))
			if r.Intn(3) == 0 { // sometimes a second interval
				lo2 := int64(r.Intn(9))
				set = set.Union(value.NewIntervalSet(value.Ival(lo2, lo2+1+int64(r.Intn(3)))))
			}
			b[a] = set.Intersect(value.NewIntervalSet(value.Ival(0, 10)))
		}
		out = append(out, b)
	}
	return out
}

// TestQuickPartitionIsPartition: atoms cover every point exactly once, and
// each atom's membership matches pointwise region membership.
func TestQuickPartitionIsPartition(t *testing.T) {
	s := testSpace2D()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		regions := randRegions(r, 1+r.Intn(5))
		atoms := Partition(s, regions)
		seenSig := map[string]bool{}
		for px := int64(0); px < 10; px++ {
			for py := int64(0); py < 10; py++ {
				pt := []int64{px, py}
				covering := -1
				for ai := range atoms {
					if atoms[ai].Blocks.Contains(pt) {
						if covering >= 0 {
							return false // double cover
						}
						covering = ai
					}
				}
				if covering < 0 {
					return false // gap
				}
				for ri, reg := range regions {
					if reg.Contains(pt) != atoms[covering].In(ri) {
						return false // membership mismatch
					}
				}
			}
		}
		// Minimality: no two atoms share a signature.
		for _, a := range atoms {
			key := ""
			for _, m := range a.Members {
				key += string(rune(m)) + ","
			}
			if seenSig[key] {
				return false
			}
			seenSig[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickPartitionCountsConserved: atom point counts sum to the domain
// size.
func TestQuickPartitionCountsConserved(t *testing.T) {
	s := testSpace2D()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		regions := randRegions(r, 1+r.Intn(6))
		atoms := Partition(s, regions)
		var total int64
		for _, a := range atoms {
			total += a.Blocks.Points()
		}
		return total == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPartitionNoRegions(t *testing.T) {
	s := testSpace2D()
	atoms := Partition(s, nil)
	if len(atoms) != 1 || len(atoms[0].Members) != 0 || atoms[0].Blocks.Points() != 100 {
		t.Errorf("empty partition = %+v", atoms)
	}
}

func TestPartitionNestedRegions(t *testing.T) {
	s := testSpace2D()
	inner := blockOf(t, s, map[int]value.IntervalSet{0: value.NewIntervalSet(value.Ival(2, 4))})
	outer := blockOf(t, s, map[int]value.IntervalSet{0: value.NewIntervalSet(value.Ival(0, 6))})
	atoms := Partition(s, []Block{inner, outer})
	// Expect exactly 3 atoms: inner∩outer, outer-only, rest.
	if len(atoms) != 3 {
		t.Fatalf("atoms = %d, want 3", len(atoms))
	}
	var pts [3]int64
	for i, a := range atoms {
		pts[i] = a.Blocks.Points()
	}
	if pts[0]+pts[1]+pts[2] != 100 {
		t.Errorf("points = %v", pts)
	}
}

func TestGridCountsAndMaterialization(t *testing.T) {
	s := testSpace2D()
	r1 := blockOf(t, s, map[int]value.IntervalSet{0: value.NewIntervalSet(value.Ival(2, 5))})
	r2 := blockOf(t, s, map[int]value.IntervalSet{1: value.NewIntervalSet(value.Ival(4, 6))})
	g := Grid(s, []Block{r1, r2})
	// Axis x cuts: 0,2,5,10 -> 3 cells; axis y cuts: 0,4,6,10 -> 3 cells.
	if g.VarCount != 9 {
		t.Fatalf("grid = %+v", g)
	}
}

// TestGridRefinesPartition: grid never has fewer variables than the region
// partition (the paper's comparison direction).
func TestGridRefinesPartition(t *testing.T) {
	s := testSpace2D()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		regions := randRegions(r, 1+r.Intn(5))
		atoms := Partition(s, regions)
		g := Grid(s, regions)
		return g.VarCount >= int64(len(atoms))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpaceAxisOf(t *testing.T) {
	s := testSpace2D()
	if s.AxisOf(1) != 1 || s.AxisOf(7) != -1 {
		t.Error("AxisOf misbehaves")
	}
	if s.Dims() != 2 {
		t.Error("Dims misbehaves")
	}
}

func TestBlockUnionOps(t *testing.T) {
	s := testSpace2D()
	a := blockOf(t, s, map[int]value.IntervalSet{0: value.NewIntervalSet(value.Ival(0, 5))})
	u := BlockUnion{a}
	o := blockOf(t, s, map[int]value.IntervalSet{0: value.NewIntervalSet(value.Ival(3, 7))})
	if got := u.IntersectBlock(o).Points(); got != 2*10 {
		t.Errorf("IntersectBlock points = %d", got)
	}
	if got := u.SubtractBlock(o).Points(); got != 3*10 {
		t.Errorf("SubtractBlock points = %d", got)
	}
	if !BlockUnion(nil).Empty() {
		t.Error("nil union should be empty")
	}
	if u.Contains([]int64{4, 4}) != true || u.Contains([]int64{6, 4}) != false {
		t.Error("union Contains misbehaves")
	}
}

// TestQuickSignatureMatchesGeometric: the signature DP and the geometric
// refinement are two implementations of the same definition — they must
// produce identical membership-signature sets, and the DP's representative
// cells must lie inside atoms with exactly that membership.
func TestQuickSignatureMatchesGeometric(t *testing.T) {
	s := testSpace2D()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		regions := randRegions(r, 1+r.Intn(5))
		geo := Partition(s, regions)
		sig := SignaturePartition(s, regions)
		if len(geo) != len(sig) {
			return false
		}
		sigKey := func(members []int) string {
			out := ""
			for _, m := range members {
				out += string(rune('a'+m)) + ","
			}
			return out
		}
		geoSet := map[string]bool{}
		for _, a := range geo {
			geoSet[sigKey(a.Members)] = true
		}
		for _, a := range sig {
			if !geoSet[sigKey(a.Members)] {
				return false
			}
			// The representative cell's low corner realizes the signature.
			pt := make([]int64, len(a.Rep))
			for i, iv := range a.Rep {
				pt[i] = iv.Lo
			}
			for ri, reg := range regions {
				if reg.Contains(pt) != slices.Contains(a.Members, ri) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSignaturePartitionZeroDims(t *testing.T) {
	s := &Space{Table: "z"}
	atoms := SignaturePartition(s, nil)
	if len(atoms) != 1 || len(atoms[0].Members) != 0 {
		t.Errorf("zero-dim partition = %+v", atoms)
	}
}
