package region

import (
	"math"
	"sort"
)

// GridResult describes the DataSynth-style grid partition of a space.
type GridResult struct {
	// VarCount is the number of grid cells (LP variables). Saturates at
	// MaxInt64.
	VarCount int64
}

// Grid computes the baseline grid partitioning of Arasu et al.: each axis is
// cut at every boundary value of every constraint region, and the LP gets
// one variable per cell of the resulting cross-product grid. Only the cell
// count is computed (the paper's complexity comparison needs nothing else).
func Grid(s *Space, regions []Block) *GridResult {
	count := int64(1)
	for _, bs := range gridBounds(s, regions) {
		n := int64(len(bs) - 1)
		if n <= 0 {
			return &GridResult{VarCount: 0}
		}
		if count > math.MaxInt64/n {
			return &GridResult{VarCount: math.MaxInt64}
		}
		count *= n
	}
	return &GridResult{VarCount: count}
}

// gridBounds collects, per axis, the sorted distinct cut points: the domain
// endpoints plus every interval boundary of every region.
func gridBounds(s *Space, regions []Block) [][]int64 {
	out := make([][]int64, s.Dims())
	for a := 0; a < s.Dims(); a++ {
		set := map[int64]bool{s.Domains[a].Lo: true, s.Domains[a].Hi: true}
		for _, r := range regions {
			for _, iv := range r[a] {
				if iv.Lo > s.Domains[a].Lo && iv.Lo < s.Domains[a].Hi {
					set[iv.Lo] = true
				}
				if iv.Hi > s.Domains[a].Lo && iv.Hi < s.Domains[a].Hi {
					set[iv.Hi] = true
				}
			}
		}
		bs := make([]int64, 0, len(set))
		for v := range set {
			bs = append(bs, v)
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		out[a] = bs
	}
	return out
}
