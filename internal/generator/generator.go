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
// There are two sources here, both batch.ColProjector and nothing else:
// Stream, one cursor over a row space of the relation (the whole of it, a
// Section or Partition of it, or the engine's pruned SectionSet of it),
// and the Paced limiter. NextColBatch is the kernel under projection
// pushdown. Consumers that want whole rows read either through
// batch.RowReader. Beside the kernel, a Lookup reads the same law at single
// tuples by primary key: the engine's positional joins probe a regenerated
// table through one instead of draining it.
package generator

import (
	"math"
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
// A stream scans a row space: an ascending list of disjoint, non-empty
// global-row intervals, [0, Total) for NewStream, and produces exactly the
// tuples at those positions, in order — the output is byte-identical to
// generating the whole relation and keeping those rows. Because generation
// is a pure function of the summary, the row space is partitionable: row
// indices of SeekRow, Section, Partition and Total count rows of the space
// (for a restricted stream, index i addresses its i-th qualifying tuple),
// and the concatenation of a partition's outputs is byte-identical to the
// stream itself, which is what lets the engine's morsel-driven executor fan
// generation out across workers.
type Stream struct {
	table *schema.Table
	rel   *synopsis.Relation
	pkIdx int

	// cum holds the cumulative tuple counts of the summary rows: cum[j] =
	// Σ Rows[:j].Count (len(Rows)+1 entries). NewStream builds it once, and
	// every stream cut from that one shares it read-only, so sections may
	// be opened and scanned concurrently.
	cum []int64

	// The row space: ivs are its global-row intervals, and pcum[k] the
	// rows of the space before ivs[k] (len(ivs)+1 entries). Shared
	// read-only, like cum.
	ivs  []value.Interval
	pcum []int64

	base, end int64 // this stream's window of the row space
	pos       int64 // next row of the space to produce
	seg       int   // interval of ivs holding pos (valid while pos < end)
	lim       int64 // global end of the current run: ivs[seg].Hi, cut at the window's end

	rowIdx int   // current summary row
	within int64 // tuples already emitted from the current summary row
	pk     int64 // next primary key (global tuple index)

	// Row-major adapter state, built on first use: appendRows transposes
	// full-width column tiles. Bench-only, like NextBatch.
	tile    *batch.ColBatch
	allCols []int
}

// NewStream opens a generation stream over a relation synopsis, its row
// space the whole relation.
func NewStream(t *schema.Table, rel *synopsis.Relation) *Stream {
	cum := make([]int64, len(rel.Rows)+1)
	for j := range rel.Rows {
		cum[j+1] = cum[j] + rel.Rows[j].Count
	}
	var all []value.Interval
	if rel.Total > 0 {
		all = []value.Interval{value.Ival(0, rel.Total)}
	}
	return (&Stream{table: t, rel: rel, pkIdx: t.PKIndex(), cum: cum}).SectionSet(all)
}

// SectionSet opens an independent stream whose row space is ivs: global-row
// intervals — whatever the receiver's own row space — ascending, disjoint,
// non-empty and within [0, rel.Total). It is the scan side of the engine's
// predicate pushdown: the engine intersects a filter with the summary rows'
// value sets, computes the qualifying positions in closed form, and scans
// only those, so pruned tuples are never materialized. The receiver's
// cursor is untouched; the result shares its summary and cumulative-count
// index.
func (s *Stream) SectionSet(ivs []value.Interval) *Stream {
	pcum := make([]int64, len(ivs)+1)
	for k, iv := range ivs {
		pcum[k+1] = pcum[k] + (iv.Hi - iv.Lo)
	}
	r := &Stream{table: s.table, rel: s.rel, pkIdx: s.pkIdx, cum: s.cum, ivs: ivs, pcum: pcum, end: pcum[len(ivs)]}
	r.SeekRow(0)
	return r
}

// Total returns the number of tuples the stream will produce in full: the
// rows of its window of the row space.
func (s *Stream) Total() int64 { return s.end - s.base }

// SeekRow repositions the stream so the next tuple produced is row i of its
// own window (clamped to [0, Total()]), mirroring how the engine's
// stored-relation cursor slices. The interval holding the row and the
// summary row holding the tuple are found by binary search, and the offset
// within that summary row phase-aligns every cycling-interval cursor: the
// sought tuple's cycling values are identical to what sequential generation
// would have produced, so seeking never perturbs the stream's content.
func (s *Stream) SeekRow(i int64) {
	p := s.base + min(max(i, 0), s.Total())
	if p == s.end {
		s.pos = p // exhausted; fill guards on pos < end first
		return
	}
	// Smallest k with pcum[k+1] > p: interval k holds row p of the space.
	lo, hi := 0, len(s.ivs)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.pcum[mid+1] > p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.seek(p, lo)
}

// seek lands the stream on row p of its space (p < end), which interval
// seg holds: the run it generates next ends at the interval's end or the
// window's, whichever comes first.
//
//hydra:hotpath
func (s *Stream) seek(p int64, seg int) {
	g := s.ivs[seg].Lo + (p - s.pcum[seg])
	s.pos, s.seg, s.pk = p, seg, g
	s.lim = min(s.ivs[seg].Hi, g+(s.end-p))
	// Smallest j with cum[j+1] > g: summary row j holds tuple g.
	cum := s.cum
	lo, hi := 0, len(s.rel.Rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid+1] > g {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.rowIdx, s.within = lo, 0
	if lo < len(s.rel.Rows) {
		s.within = g - cum[lo]
	}
}

// Section opens an independent sub-stream over rows [lo, hi) of this
// stream's own window (bounds clamped; for a NewStream these are global
// tuple indices, and sections nest). Sections of one parent may be opened
// and consumed concurrently — each carries its own cursor — and their
// concatenation in range order reproduces the parent exactly. Together
// with Total this implements the parallel.Source contract the engine's
// morsel-driven executor schedules over.
func (s *Stream) Section(lo, hi int64) batch.ColProjector {
	n := s.Total()
	lo = min(max(lo, 0), n)
	hi = min(max(hi, lo), n)
	sub := &Stream{table: s.table, rel: s.rel, pkIdx: s.pkIdx, cum: s.cum, ivs: s.ivs, pcum: s.pcum, base: s.base + lo, end: s.base + hi}
	sub.SeekRow(0)
	return sub
}

// Partition splits the stream's own window into n contiguous sub-streams
// of near-equal size (n < 1 is treated as 1). When n exceeds the number of
// tuples the trailing sub-streams are empty. The concatenation of the
// partitions' outputs is byte-identical to the receiver's output;
// partitions of partitions nest accordingly.
func (s *Stream) Partition(n int) []*Stream {
	n = max(n, 1)
	total := s.Total()
	parts := make([]*Stream, n)
	for k := range parts {
		parts[k] = s.Section(total*int64(k)/int64(n), total*int64(k+1)/int64(n)).(*Stream)
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
// Cols(). The stream stops at its window's end.
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
// column tiles from fill and transposes each onto the end of dst, until
// dst is full or the stream's window is exhausted. Row-major output is
// therefore the columnar output pivoted, by construction.
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
		s.fill(s.tile, s.allCols, min(free, tileRows))
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
// needing three of a table's twenty-plus columns pays for three. Batches
// stay full across the row space's interval hops until the window is
// exhausted.
//
//hydra:hotpath
func (s *Stream) NextColBatch(dst *batch.ColBatch, cols []int) bool {
	dst.Reset()
	s.fill(dst, cols, dst.Cap())
	return dst.Len() > 0
}

// fill appends to dst until it holds limit rows or the window is
// exhausted, one run of the row space at a time: a run that ends with its
// interval hops to the start of the next.
//
//hydra:hotpath
func (s *Stream) fill(dst *batch.ColBatch, cols []int, limit int) {
	for dst.Len() < limit && s.pos < s.end {
		if s.pk == s.lim {
			s.seek(s.pos, s.seg+1)
		}
		n := s.fillColBatch(dst, cols, limit)
		if n == 0 {
			return // the summary rows ran out before Total: nothing more to generate
		}
		s.pos += n
	}
}

// fillColBatch is the generation kernel — the only code that turns a
// summary row into tuples. It appends to dst until dst holds limit rows or
// the current run ends, filling each projected column of a summary-row
// segment in one unit-stride pass under the law of synopsis.Row.Spec: the
// primary key auto-numbers, an unspecced column is 0, a fixed spec is a
// straight store, and a cycling set is walked with a phase-aligned cursor.
// It returns the number of rows appended.
//
//hydra:hotpath
func (s *Stream) fillColBatch(dst *batch.ColBatch, cols []int, limit int) int64 {
	start := s.pk
	for dst.Len() < limit && s.pk < s.lim && s.rowIdx < len(s.rel.Rows) {
		row := &s.rel.Rows[s.rowIdx]
		if s.within >= row.Count {
			s.rowIdx++
			s.within = 0
			continue
		}
		k := row.Count - s.within
		if left := s.lim - s.pk; k > left {
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
	return s.pk - start
}

// Lookup is a point-lookup cursor over a stream: the kernel's law read at
// one tuple instead of expanded over a run. A stream's tuple with global
// index k has primary key k, so a key–foreign-key join into the relation
// finds its one match, if any, by position — no tuple is generated ahead
// and nothing is hashed. The cursor remembers the key interval its last
// hit landed in, the gap its last miss did, and the summary row its last
// gathered key came from: regenerated foreign keys walk their cycling sets
// in ascending runs, so a lookup rarely searches. It only reads the
// stream, whose cursor it leaves alone, so any number of Lookups over one
// stream may run concurrently, one per goroutine.
type Lookup struct {
	s *Stream
	// ivs are the keys the stream produces, as ascending disjoint
	// global-row intervals: its row space cut to its window and to the
	// tuples the summary rows hold — the stream's own ivs when that cuts
	// nothing.
	ivs []value.Interval
	// The interval of ivs the last hit landed in, and the gap between
	// intervals the last miss did, each as its first key and its width: k
	// lies in [lo, lo+n) exactly when uint64(k−lo) < n, int64 wrap-around
	// included, which keeps Has one comparison per range.
	lo, mlo int64
	n, mn   uint64
	row     int // summary row of the last key Gather read
}

// Lookup returns a point-lookup cursor over the tuples the stream produces
// in full: those of its window of the row space.
func (s *Stream) Lookup() *Lookup {
	l := &Lookup{s: s, ivs: s.ivs}
	last := s.cum[len(s.rel.Rows)]
	if n := len(s.ivs); s.base > 0 || s.end < s.pcum[n] || n > 0 && s.ivs[n-1].Hi > last {
		l.ivs = nil
		for seg, iv := range s.ivs {
			lo := iv.Lo + max(s.base-s.pcum[seg], 0)
			hi := min(iv.Lo+(s.end-s.pcum[seg]), iv.Hi, last)
			if lo < hi {
				l.ivs = append(l.ivs, value.Ival(lo, hi))
			}
		}
	}
	return l
}

// Has reports whether the stream produces the tuple with global index (and
// primary key) k: k lies in its row space, within its window, and before
// the summary rows run out. Any other k, negative included, has no match.
// Small enough to inline into a probe loop; find searches.
func (l *Lookup) Has(k int64) bool {
	return uint64(k-l.lo) < l.n || uint64(k-l.mlo) >= l.mn && l.find(k)
}

// find is Has on a key outside the remembered interval and gap: a binary
// search for the interval that holds k, or for the gap k falls in.
//
//hydra:hotpath
func (l *Lookup) find(k int64) bool {
	ivs := l.ivs
	// Smallest seg with ivs[seg].Hi > k: the only interval that can hold k.
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ivs[mid].Hi > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(ivs) && k >= ivs[lo].Lo {
		l.lo, l.n = ivs[lo].Lo, uint64(ivs[lo].Hi-ivs[lo].Lo)
		return true
	}
	// The gap reaches from the interval below, or the least int64, to the
	// interval above, or through the greatest int64. A gap from the least
	// through the greatest is one key wider than a uint64 counts: its
	// greatest key falls through to find, which answers false again.
	l.mlo, l.mn = math.MinInt64, math.MaxUint64
	if lo > 0 {
		l.mlo = ivs[lo-1].Hi
		l.mn = uint64(math.MaxInt64-l.mlo) + 1
	}
	if lo < len(ivs) {
		l.mn = uint64(ivs[lo].Lo - l.mlo)
	}
	return false
}

// Gather fills dst[i] with column c of the tuple whose global index is
// keys[at[i]] — a key Has found — for a compacted output: the late top-K's
// emit reads its winners' columns with it. See read for the law.
func (l *Lookup) Gather(dst []int64, c int, keys []int64, at []int32) {
	l.read(dst, c, keys, at[:len(dst)], false)
}

// Scatter fills dst[a] with column c of the tuple whose global index is
// keys[a], for each a in at — keys Has found — writing in place: the
// in-place key join reads its build columns into the probe batch's own
// rows with it, at is the batch's selection. See read for the law.
func (l *Lookup) Scatter(dst []int64, c int, keys []int64, at []int32) {
	l.read(dst, c, keys, at, true)
}

// read is Gather (output row i) and Scatter (output row at[i]): it reads
// column c of the tuple keys[at[i]] exactly as fillColBatch generates it,
// under the law of synopsis.Row.Spec: the key itself in the primary key, 0
// where the tuple's summary row r leaves c unspecced, the row's Fixed
// value, or Set.At((k − cum[r]) mod |Set|) for a cycling set. The summary
// row is searched for only when a key leaves the last one's, and the spec
// is resolved once per summary row.
//
//hydra:hotpath
func (l *Lookup) read(dst []int64, c int, keys []int64, at []int32, scatter bool) {
	s := l.s
	o := 0
	if c == s.pkIdx {
		for i, a := range at {
			if o = i; scatter {
				o = int(a)
			}
			dst[o] = keys[a]
		}
		return
	}
	cum, r := s.cum, l.row
	sp, span := s.spec(r, c)
	for i, a := range at {
		k := keys[a]
		if k < cum[r] || k >= cum[r+1] {
			// Smallest r with cum[r+1] > k: summary row r holds tuple k.
			lo, hi := 0, len(s.rel.Rows)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if cum[mid+1] > k {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			r = lo
			sp, span = s.spec(r, c)
		}
		if o = i; scatter {
			o = int(a)
		}
		switch {
		case sp == nil:
			dst[o] = 0
		case sp.Fixed != nil:
			dst[o] = *sp.Fixed
		default:
			dst[o] = sp.Set.At((k - cum[r]) % span)
		}
	}
	l.row = r
}

// spec resolves column c's spec in summary row r (nil past the last row,
// where Gather's cursor starts on an empty relation) and, for a cycling
// set, its length.
func (s *Stream) spec(r, c int) (*synopsis.ColSpec, int64) {
	if r >= len(s.rel.Rows) {
		return nil, 0
	}
	sp := s.rel.Rows[r].Spec(c, s.pkIdx)
	if sp == nil || sp.Fixed != nil {
		return sp, 0
	}
	return sp, sp.Set.Len()
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
