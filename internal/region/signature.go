package region

import (
	"encoding/binary"
	"math/bits"
	"sort"

	"repro/internal/value"
)

// SigAtom is one atom of the signature partition: the distinct set of
// constraint regions containing it, plus one representative cell (one 1-D
// cell per axis) lying inside the atom.
type SigAtom struct {
	Members []int // ascending region indexes
	Rep     []value.Interval
}

// SignaturePartition computes the atoms of the Boolean algebra generated by
// product regions without materializing any geometry. It exploits the
// product structure Hydra's constraint regions always have:
//
//   - each axis is cut at every boundary of every region's interval set,
//     giving a small list of 1-D cells per axis;
//   - a point's constraint signature factorizes as the intersection over
//     axes of the per-cell membership masks;
//   - a dynamic program over the axes therefore enumerates exactly the
//     distinct signatures: its state set after axis k is the set of
//     distinct partial intersections, which never exceeds the final atom
//     count.
//
// The result is identical (as a set of membership signatures) to the
// geometric Partition, at a fraction of the time and memory; the geometric
// version remains as the reference implementation for tests. Every atom
// carries one representative cell, sufficient for Hydra's summary rows: all
// points of an atom are volumetrically interchangeable.
func SignaturePartition(s *Space, regions []Block) []SigAtom {
	words := (len(regions) + 63) / 64
	if words == 0 {
		words = 1
	}
	dims := s.Dims()
	// A round's states live in one arena of signatures (state k's words
	// at sigs[k*words:]); each state also records the state of the
	// previous round it extends and the cell it took there, and the final
	// atoms' representative cells are read back along those links.
	type link struct{ prev, cell int32 }
	sigs := make([]uint64, words)
	for i := range regions {
		sigs[i/64] |= 1 << (i % 64)
	}
	links := make([][]link, dims)
	cellsOf := make([][]value.Interval, dims)

	sig := make([]uint64, words)
	key := make([]byte, 0, words*8)
	for a := 0; a < dims; a++ {
		cells := axisCells(s.Domains[a], regions, a)
		cellsOf[a] = cells
		// Membership mask per cell: regions whose axis-a set contains it.
		masks := make([]uint64, len(cells)*words)
		for ci, cell := range cells {
			m := masks[ci*words : (ci+1)*words]
			for ri, r := range regions {
				if r[a].Contains(cell.Lo) {
					m[ri/64] |= 1 << (ri % 64)
				}
			}
		}
		states := len(sigs) / words
		next := make([]uint64, 0, len(sigs))
		lk := make([]link, 0, states)
		index := make(map[string]struct{}, states)
		for k := 0; k < states; k++ {
			st := sigs[k*words : (k+1)*words]
			for ci := range cells {
				m := masks[ci*words : (ci+1)*words]
				key = key[:0]
				for w := range sig {
					sig[w] = st[w] & m[w]
					key = binary.LittleEndian.AppendUint64(key, sig[w])
				}
				if _, ok := index[string(key)]; ok {
					continue
				}
				index[string(key)] = struct{}{}
				next = append(next, sig...)
				lk = append(lk, link{prev: int32(k), cell: int32(ci)})
			}
		}
		sigs, links[a] = next, lk
	}

	n := len(sigs) / words
	total := 0
	for _, w := range sigs {
		total += bits.OnesCount64(w)
	}
	memberArena := make([]int, 0, total)
	var repArena []value.Interval
	if dims > 0 {
		repArena = make([]value.Interval, n*dims)
	}
	atoms := make([]SigAtom, n)
	for k := range atoms {
		at := &atoms[k]
		lo := len(memberArena)
		for w, word := range sigs[k*words : (k+1)*words] {
			for ; word != 0; word &= word - 1 {
				memberArena = append(memberArena, w*64+bits.TrailingZeros64(word))
			}
		}
		if hi := len(memberArena); hi > lo {
			at.Members = memberArena[lo:hi:hi]
		}
		if dims > 0 {
			at.Rep = repArena[k*dims : (k+1)*dims : (k+1)*dims]
			for a, st := dims-1, k; a >= 0; a-- {
				l := links[a][st]
				at.Rep[a] = cellsOf[a][l.cell]
				st = int(l.prev)
			}
		}
	}
	return atoms
}

// axisCells returns the 1-D cells of one axis: the domain cut at every
// boundary of every region's interval set on that axis.
func axisCells(domain value.Interval, regions []Block, a int) []value.Interval {
	cuts := map[int64]bool{domain.Lo: true, domain.Hi: true}
	for _, r := range regions {
		for _, iv := range r[a] {
			if iv.Lo > domain.Lo && iv.Lo < domain.Hi {
				cuts[iv.Lo] = true
			}
			if iv.Hi > domain.Lo && iv.Hi < domain.Hi {
				cuts[iv.Hi] = true
			}
		}
	}
	bs := make([]int64, 0, len(cuts))
	for v := range cuts {
		bs = append(bs, v)
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	cells := make([]value.Interval, 0, len(bs)-1)
	for i := 0; i+1 < len(bs); i++ {
		cells = append(cells, value.Ival(bs[i], bs[i+1]))
	}
	if len(cells) == 0 {
		cells = append(cells, domain) // degenerate empty domain
	}
	return cells
}
