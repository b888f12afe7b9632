package generator

import (
	"repro/internal/batch"
	"repro/internal/value"
)

// SectionSet is a generation stream restricted to an arbitrary set of
// global-row intervals — the scan side of the engine's predicate pushdown.
// Where Section narrows a stream to one contiguous [lo, hi) range, a
// SectionSet skips across many: the engine intersects a filter with the
// summary rows' value sets, computes the qualifying positions in closed
// form, and scans only those, so pruned tuples are never materialized.
//
// The output is byte-identical to generating the full stream and keeping
// exactly the rows at the given positions, in order — SeekRow phase-aligns
// every cycling column at each segment hop, the same guarantee Section
// gives for its single range. Row indices exposed by SeekRow/Total/Section
// are *pruned* coordinates: index i addresses the i-th qualifying tuple,
// so the morsel scheduler partitions only live rows and workers never
// inherit dead ranges.
type SectionSet struct {
	gen *Stream // base 0; end reset per segment; cum pre-built

	ivs  []value.Interval // qualifying global-row intervals: ascending, disjoint, non-empty
	pcum []int64          // pcum[k] = qualifying rows before ivs[k]; len(ivs)+1 entries

	base int64 // window bounds in pruned coordinates (full set: [0, pcum[len]])
	end  int64
	pos  int64 // pruned-coordinate cursor: next qualifying row to produce
	seg  int   // segment holding pos (valid while pos < end)
}

// SectionSet restricts the stream to the given qualifying global-row
// intervals (ascending, disjoint, non-empty — a canonical interval set over
// [0, Total)). The receiver's own cursor is untouched; like Section, the
// result is an independent source sharing the immutable summary and
// cumulative-count index. The returned source also implements
// parallel.Source (Total/Section) and SeekRow for rewinds, so the engine's
// scan can drop it in wherever a Stream goes.
func (s *Stream) SectionSet(ivs []value.Interval) batch.ColProjector { return s.sectionSet(ivs) }

func (s *Stream) sectionSet(ivs []value.Interval) *SectionSet {
	cum := s.cumCounts()
	pcum := make([]int64, len(ivs)+1)
	for k, iv := range ivs {
		pcum[k+1] = pcum[k] + (iv.Hi - iv.Lo)
	}
	ss := &SectionSet{
		gen:  &Stream{table: s.table, rel: s.rel, pkIdx: s.pkIdx, cum: cum},
		ivs:  ivs,
		pcum: pcum,
		end:  pcum[len(ivs)],
	}
	ss.SeekRow(0)
	return ss
}

// Total returns the number of qualifying tuples in this source's window.
func (ss *SectionSet) Total() int64 { return ss.end - ss.base }

// SeekRow repositions so the next tuple produced is qualifying row i of
// this source's own window (clamped to [0, Total()]), mirroring
// Stream.SeekRow in pruned coordinates.
func (ss *SectionSet) SeekRow(i int64) {
	if i < 0 {
		i = 0
	}
	if n := ss.end - ss.base; i > n {
		i = n
	}
	p := ss.base + i
	ss.pos = p
	if p >= ss.end {
		return // exhausted; the fill loops guard on pos < end first
	}
	ss.seekAbs(p)
}

// seekAbs lands the underlying stream on absolute pruned position p
// (p < end): binary-search the segment, then seek the generator to the
// matching global row and bound it by the segment (and window) end.
//
//hydra:hotpath
func (ss *SectionSet) seekAbs(p int64) {
	pcum := ss.pcum
	lo, hi := 0, len(ss.ivs)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pcum[mid+1] > p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	ss.seg = lo
	g := ss.ivs[lo].Lo + (p - pcum[lo])
	lim := ss.ivs[lo].Hi
	if rem := ss.end - p; g+rem < lim {
		lim = g + rem // window ends inside this segment
	}
	ss.gen.end = lim
	ss.gen.seekTo(g)
}

// nextSegment hops the underlying stream to the start of the next
// qualifying interval. Callers ensure pos < end, which implies another
// segment exists.
//
//hydra:hotpath
func (ss *SectionSet) nextSegment() {
	k := ss.seg + 1
	g := ss.ivs[k].Lo
	lim := ss.ivs[k].Hi
	if rem := ss.end - ss.pos; g+rem < lim {
		lim = g + rem
	}
	ss.gen.end = lim
	ss.gen.seekTo(g)
	ss.seg = k
}

// NextColBatch fills dst's projected columns with up to dst.Cap()
// qualifying rows, splicing segments so batches stay full until the window
// is exhausted. The concatenation of the outputs equals the unpruned stream
// filtered to the qualifying positions, byte for byte. SectionSet
// implements batch.ColProjector exactly as Stream does.
//
//hydra:hotpath
func (ss *SectionSet) NextColBatch(dst *batch.ColBatch, cols []int) bool {
	dst.Reset()
	for dst.Len() < dst.Cap() && ss.pos < ss.end {
		if ss.gen.pk >= ss.gen.end {
			ss.nextSegment()
			continue
		}
		before := ss.gen.pk
		ss.gen.fillColBatch(dst, cols, dst.Cap())
		ss.pos += ss.gen.pk - before
	}
	return dst.Len() > 0
}

// Section opens an independent sub-source over qualifying rows [lo, hi) of
// this source's own window (pruned coordinates, bounds clamped). Together
// with Total this implements parallel.Source, so morsels partition the
// pruned row space directly.
func (ss *SectionSet) Section(lo, hi int64) batch.ColProjector {
	n := ss.end - ss.base
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	g := ss.gen
	sub := &SectionSet{
		gen:  &Stream{table: g.table, rel: g.rel, pkIdx: g.pkIdx, cum: g.cum},
		ivs:  ss.ivs,
		pcum: ss.pcum,
		base: ss.base + lo,
		end:  ss.base + hi,
	}
	sub.SeekRow(0)
	return sub
}
