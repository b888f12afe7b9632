// Package generator implements Hydra's Tuple Generator: it expands a
// database summary into concrete rows on demand. Plugged into the engine's
// datagen scan it realizes the paper's dynamic regeneration — queries
// execute against tables holding zero stored rows — and because rows are
// produced in memory the generation velocity can be regulated precisely
// (the rows/sec slider of the demo's vendor interface).
//
// Generation is batched and has one kernel, fillColBatch: it expands a
// summary row's Count tuples column by column in unit-stride passes,
// hoisting the Fixed/Set dispatch out of the row loop and replacing the
// per-row modulo of the cycling sets with an incrementing interval cursor.
// Every source here — Stream, its Section/Partition sub-streams, the
// SectionSet pruned scan and the Paced limiter — is a batch.ColProjector
// and nothing else: NextColBatch is the kernel under projection pushdown.
// Consumers that want whole rows read any of them through batch.RowReader.
package generator

import (
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/schema"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// Stream yields the coded rows of one relation summary in primary-key
// order: summary row j expands to its Count tuples, and tuple i (globally)
// receives primary key i. Stream implements batch.ColProjector.
//
// Because generation is a pure function of the summary, a stream's row
// space is partitionable: SeekRow repositions to any global tuple index,
// Section opens an independent sub-stream over a row range, and Partition
// splits the stream n ways. The concatenation of a partition's outputs is
// byte-identical to the sequential stream, which is what lets the engine's
// morsel-driven executor fan generation out across workers.
type Stream struct {
	table *schema.Table
	rel   *synopsis.Relation
	pkIdx int

	base int64 // first global tuple index this stream produces
	end  int64 // exclusive global bound (rel.Total for full streams)

	rowIdx int   // current summary row
	within int64 // tuples already emitted from the current summary row
	pk     int64 // next primary key (global tuple index)

	// cum, shared by all sections of one parent stream, holds the
	// cumulative tuple counts of the summary rows: cum[j] = Σ Rows[:j].Count
	// (len(Rows)+1 entries). Built lazily on the first seek; SeekRow binary
	// searches it to land on the right summary row. cumOnce guards the
	// build: the parallel executor calls Section concurrently from workers.
	cum     []int64
	cumOnce sync.Once

	// Row-major adapter state, built on first use: appendRows transposes
	// full-width column tiles. Bench-only, like NextBatch.
	tile    *batch.ColBatch
	allCols []int
}

// NewStream opens a generation stream over a relation synopsis.
func NewStream(t *schema.Table, rel *synopsis.Relation) *Stream {
	return &Stream{
		table: t,
		rel:   rel,
		pkIdx: t.PKIndex(),
		end:   rel.Total,
	}
}

// Total returns the number of tuples the stream will produce in full (for
// a Section or Partition sub-stream, the length of its row range).
func (s *Stream) Total() int64 { return s.end - s.base }

// cumCounts returns the relation's cumulative tuple counts, building them
// on first use and sharing the slice with every section of this stream.
// Safe for concurrent callers (workers sectioning one parent stream).
func (s *Stream) cumCounts() []int64 {
	s.cumOnce.Do(func() {
		if s.cum != nil {
			return // a section constructed with the parent's index
		}
		cum := make([]int64, len(s.rel.Rows)+1)
		for j := range s.rel.Rows {
			cum[j+1] = cum[j] + s.rel.Rows[j].Count
		}
		s.cum = cum
	})
	return s.cum
}

// SeekRow repositions the stream so the next tuple produced is row i of
// this stream's own row range (clamped to [0, Total()]) — for a full
// stream that is global tuple i; for a Section or Partition sub-stream it
// is relative to the sub-range, mirroring how the engine's stored-relation
// cursor slices. The summary row holding the tuple is found by binary
// search over the cumulative counts, and the offset within that row
// phase-aligns every cycling-interval cursor: the sought tuple's cycling
// values are identical to what sequential generation would have produced,
// so seeking never perturbs the stream's deterministic content.
func (s *Stream) SeekRow(i int64) {
	if i < 0 {
		i = 0
	}
	if n := s.end - s.base; i > n {
		i = n
	}
	s.cumCounts()
	s.seekTo(s.base + i)
}

// seekTo lands the stream on global tuple index g. It is SeekRow without
// the clamping or the lazy index build — s.cum must already be populated —
// so the pruned scan's segment hopping (sectionset.go) can reposition from
// hot generation loops without closures or sync.Once.
//
//hydra:hotpath
func (s *Stream) seekTo(g int64) {
	cum := s.cum
	// Smallest j with cum[j+1] > g: summary row j holds tuple g. For
	// g == Total the search lands past the last row, exhausting the stream.
	lo, hi := 0, len(s.rel.Rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid+1] > g {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.rowIdx = lo
	if lo < len(s.rel.Rows) {
		s.within = g - cum[lo]
	} else {
		s.within = 0
	}
	s.pk = g
}

// section returns an independent sub-stream over rows [lo, hi) of s's own
// row range, sharing the (immutable) cumulative-count index.
func (s *Stream) section(lo, hi int64) *Stream {
	n := s.end - s.base
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
	sub := &Stream{
		table: s.table,
		rel:   s.rel,
		pkIdx: s.pkIdx,
		cum:   s.cumCounts(),
		base:  s.base + lo,
		end:   s.base + hi,
	}
	sub.SeekRow(0)
	return sub
}

// Section opens an independent sub-stream over rows [lo, hi) of this
// stream's own row range (bounds clamped; for a full stream these are
// global tuple indices, and sections nest). Sections of one parent may be
// consumed concurrently — each carries its own cursor — and their
// concatenation in range order reproduces the parent exactly. Together
// with Total this implements the parallel.Source contract the engine's
// morsel-driven executor schedules over.
func (s *Stream) Section(lo, hi int64) batch.ColProjector { return s.section(lo, hi) }

// Partition splits the stream's own row range into n contiguous
// sub-streams of near-equal size (n < 1 is treated as 1). When n exceeds
// the number of tuples the trailing sub-streams are empty. The
// concatenation of the partitions' outputs is byte-identical to the
// receiver's output; partitions of partitions nest accordingly.
func (s *Stream) Partition(n int) []*Stream {
	if n < 1 {
		n = 1
	}
	total := s.end - s.base
	parts := make([]*Stream, n)
	for k := 0; k < n; k++ {
		lo := total * int64(k) / int64(n)
		hi := total * int64(k+1) / int64(n)
		parts[k] = s.section(lo, hi)
	}
	return parts
}

// Cols returns the width of generated rows.
func (s *Stream) Cols() int { return len(s.table.Columns) }

// tileRows is how many rows the row-major adapter draws from the kernel at
// a time. A tile of 128 rows times a typical row width stays within the L1
// cache, so the transpose reads and writes cache-resident lines.
const tileRows = 128

// NextBatch resets dst and fills it with up to dst.Cap() generated rows in
// row-major form, reporting whether any were produced. dst must have width
// Cols(). A Section or Partition sub-stream stops at its range's upper
// bound.
//
// Pinned by the benchmark (bench/regen.go times it as
// generator.batch_rows_per_s) and called by nothing else outside tests: it
// is not part of the scan contract, and the next benchmark PR deletes it
// with appendRows, tile, allCols and batch.Batch (see ROADMAP).
//
//hydra:hotpath
func (s *Stream) NextBatch(dst *batch.Batch) bool {
	dst.Reset()
	s.appendRows(dst)
	return dst.Len() > 0
}

// appendRows is the row-major face of the kernel: it draws full-width
// column tiles from fillColBatch and transposes each onto the end of dst,
// until dst is full or the stream's range is exhausted. Row-major output
// is therefore the columnar output pivoted, by construction.
//
//hydra:hotpath
func (s *Stream) appendRows(dst *batch.Batch) {
	if s.tile == nil {
		s.allCols = make([]int, len(s.table.Columns))
		for c := range s.allCols {
			s.allCols[c] = c
		}
		s.tile = batch.NewCol(len(s.allCols), tileRows, s.allCols)
	}
	ncols := len(s.allCols)
	for free := dst.Cap() - dst.Len(); free > 0; free = dst.Cap() - dst.Len() {
		s.tile.Reset()
		s.fillColBatch(s.tile, s.allCols, min(free, tileRows))
		k := s.tile.Len()
		if k == 0 {
			return
		}
		out := dst.Extend(k)
		for c := range s.allCols {
			off := c
			for _, v := range s.tile.Col(c)[:k] {
				out[off] = v
				off += ncols
			}
		}
	}
}

// NextColBatch resets dst and fills it with up to dst.Cap() generated rows
// in column-major form, materializing only the columns listed in cols —
// the projection pushdown of the columnar engine. Unprojected columns are
// never touched: no storage is read or written for them, so a query
// needing three of a table's twenty-plus columns pays for three. Stream
// implements batch.ColProjector; a Section or Partition sub-stream stops
// at its range's upper bound.
//
//hydra:hotpath
func (s *Stream) NextColBatch(dst *batch.ColBatch, cols []int) bool {
	dst.Reset()
	s.fillColBatch(dst, cols, dst.Cap())
	return dst.Len() > 0
}

// fillColBatch is the generation kernel — the only code that turns a
// summary row into tuples. It appends to dst until dst holds limit rows or
// the stream's range is exhausted, filling each projected column of a
// summary-row segment in one unit-stride pass under the law of
// synopsis.Row.Spec: the primary key auto-numbers, an unspecced column is
// 0, a fixed spec is a straight store, and a cycling set is walked with a
// phase-aligned cursor.
//
//hydra:hotpath
func (s *Stream) fillColBatch(dst *batch.ColBatch, cols []int, limit int) {
	for dst.Len() < limit && s.pk < s.end && s.rowIdx < len(s.rel.Rows) {
		row := &s.rel.Rows[s.rowIdx]
		if s.within >= row.Count {
			s.rowIdx++
			s.within = 0
			continue
		}
		k := row.Count - s.within
		if left := s.end - s.pk; k > left {
			k = left
		}
		if free := int64(limit - dst.Len()); k > free {
			k = free
		}
		base := dst.Len()
		dst.SetLen(base + int(k))
		for _, c := range cols {
			seg := dst.Col(c)[base : base+int(k)]
			if c == s.pkIdx {
				pk := s.pk
				for i := range seg {
					seg[i] = pk
					pk++
				}
				continue
			}
			sp := row.Spec(c, s.pkIdx)
			switch {
			case sp == nil:
				clear(seg)
			case sp.Fixed != nil:
				v := *sp.Fixed
				for i := range seg {
					seg[i] = v
				}
			default:
				fillCycling(seg, sp.Set, s.within)
			}
		}
		s.within += k
		s.pk += k
	}
}

// fillCycling writes one cycling-set column segment: value i of the segment
// is set.At((start+i) mod set.Len()) — the deterministic fan-out that
// spreads foreign keys evenly across the referenced key range, as the
// paper's alignment intends. The modulo and rank search run once per
// segment; the loop then walks the interval set with an incrementing
// cursor.
func fillCycling(seg []int64, set value.IntervalSet, start int64) {
	rank := start % set.Len()
	iv := 0
	for rank >= set[iv].Len() {
		rank -= set[iv].Len()
		iv++
	}
	v := set[iv].Lo + rank
	hi := set[iv].Hi
	for i := range seg {
		seg[i] = v
		v++
		if v == hi {
			iv++
			if iv == len(set) {
				iv = 0
			}
			v = set[iv].Lo
			hi = set[iv].Hi
		}
	}
}

// Paced wraps a scan source with a rate limiter, realizing the demo's
// velocity slider. A rate of zero or less means unlimited. Paced is a
// batch.ColProjector and forwards the projection, so a paced scan expands
// only the columns its query needs; it deliberately offers none of the
// seek or section capabilities (a paced scan is sequential by definition).
//
// Pacing uses an absolute schedule: row i is due at start + i·interval, so
// sleep overshoot (which on a typical kernel is tens of microseconds to a
// millisecond per sleep) is automatically credited back — the achieved rate
// converges to the requested one instead of drifting low. Batches are
// credited wholesale: NextColBatch waits until its first row is due, then
// advances the schedule by the rows the batch holds, so the caller's batch
// capacity is the pacing granule — a 1-row batch (batch.RowReader over one)
// delivers rows on the schedule from the first row on, a full-size batch
// pays one sleep per batch.
type Paced struct {
	src      batch.ColProjector
	interval time.Duration // time budget per row
	due      time.Time     // when the next row is due
	started  bool

	// now and sleep are the limiter's clock, injectable by tests so the
	// absolute schedule can be pinned without real sleeping.
	now   func() time.Time
	sleep func(time.Duration)
}

// maxBurstBehind caps how far the schedule may fall behind a slow consumer;
// beyond this the limiter forgives the backlog rather than bursting.
const maxBurstBehind = 100 * time.Millisecond

// NewPaced limits src to rowsPerSec rows per second.
func NewPaced(src batch.ColProjector, rowsPerSec float64) *Paced {
	p := &Paced{src: src, now: time.Now, sleep: time.Sleep}
	if rowsPerSec > 0 {
		p.interval = time.Duration(float64(time.Second) / rowsPerSec)
	}
	return p
}

// NextColBatch produces the wrapped source's next batch no sooner than the
// rate allows, crediting exactly the rows the batch holds against the
// absolute schedule — a partial final batch advances the schedule by its
// own length, not the batch capacity, and the call that discovers
// exhaustion charges nothing. Sleeps shorter than a millisecond are skipped
// and repaid on later batches, so high target rates stay accurate without a
// syscall per batch.
//
//hydra:hotpath
func (p *Paced) NextColBatch(dst *batch.ColBatch, cols []int) bool {
	if !p.src.NextColBatch(dst, cols) {
		return false
	}
	if p.interval > 0 {
		p.pace(int64(dst.Len()))
	}
	return true
}

// Err forwards the wrapped source's scan error (batch.RowScan reports one),
// so pacing an external producer does not hide why its scan stopped.
func (p *Paced) Err() error {
	if e, ok := p.src.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// pace blocks until the next row is due, then advances the schedule by n
// rows.
func (p *Paced) pace(n int64) {
	now := p.now()
	if !p.started {
		p.started = true
		p.due = now
	}
	if wait := p.due.Sub(now); wait > time.Millisecond {
		p.sleep(wait)
	} else if wait < -maxBurstBehind {
		p.due = now.Add(-maxBurstBehind)
	}
	p.due = p.due.Add(time.Duration(n) * p.interval)
}
