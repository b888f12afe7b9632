// Package batch provides the fixed-capacity column batch that Hydra's
// generation and execution pipelines move tuples in, and the one contract
// a scan source speaks. Producing and consuming rows a batch at a time
// amortizes per-row interface calls and bounds checks across the whole
// pipeline: the generator expands a summary row's Count tuples in one tight
// loop per column, and every engine operator accounts cardinalities once
// per batch instead of once per row.
//
// ColBatch (colbatch.go) is the only layout the engine, the generator's
// kernel and stored relations use, and ColProjector is the only pull
// contract. Rows exist at two edges only: RowReader (rows.go) pivots any
// ColProjector into whole rows for consumers that want tuples (CSV export,
// the velocity demos), and ColBatch.LiveRow pivots result rows out at the
// sink.
//
// The row-major Batch below is kept for the benchmark alone.
package batch

// DefaultCap is the default batch capacity in rows. 1024 rows of a
// handful of int64 columns keeps a batch comfortably inside the L2 cache
// while amortizing per-batch overhead to noise.
const DefaultCap = 1024

// Batch is a reusable, fixed-capacity buffer of coded rows, row-major: the
// values of row i occupy data[i*cols : (i+1)*cols]. The zero value is not
// usable; construct with New.
//
// Pinned by the benchmark: bench/regen.go times generator.Stream.NextBatch
// into a Batch as generator.batch_rows_per_s, and that is the type's only
// caller outside tests. The next benchmark PR drops that ledger row together
// with this type, Stream.NextBatch and Stream.appendRows (see ROADMAP).
type Batch struct {
	cols    int
	capRows int
	data    []int64 // row-major; len = Len()*cols
}

// New returns an empty batch for rows of the given width. capRows <= 0
// selects DefaultCap.
func New(cols, capRows int) *Batch {
	if capRows <= 0 {
		capRows = DefaultCap
	}
	return &Batch{cols: cols, capRows: capRows, data: make([]int64, 0, cols*capRows)}
}

// Cols returns the row width.
func (b *Batch) Cols() int { return b.cols }

// Cap returns the batch capacity in rows.
func (b *Batch) Cap() int { return b.capRows }

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int {
	if b.cols == 0 {
		return 0
	}
	return len(b.data) / b.cols
}

// Full reports whether the batch has reached capacity.
func (b *Batch) Full() bool { return len(b.data) >= b.capRows*b.cols }

// Reset empties the batch, retaining its storage.
func (b *Batch) Reset() { b.data = b.data[:0] }

// Row returns row i as a slice aliasing the batch's storage. The slice is
// valid until the batch is Reset or Truncated below i.
func (b *Batch) Row(i int) []int64 {
	return b.data[i*b.cols : (i+1)*b.cols : (i+1)*b.cols]
}

// Append extends the batch by one row and returns that row's storage. The
// returned slice may hold stale values; the caller must overwrite every
// column. Append panics if the batch is full.
func (b *Batch) Append() []int64 {
	if b.Full() {
		panic("batch: Append on full batch")
	}
	n := len(b.data)
	b.data = b.data[: n+b.cols : cap(b.data)]
	return b.data[n : n+b.cols : n+b.cols]
}

// Extend grows the batch by k rows and returns their flat storage
// (k*Cols values, row-major). Like Append, the storage may hold stale
// values. Extend panics if k rows do not fit.
func (b *Batch) Extend(k int) []int64 {
	n := len(b.data)
	m := n + k*b.cols
	if m > b.capRows*b.cols {
		panic("batch: Extend beyond capacity")
	}
	b.data = b.data[:m:cap(b.data)]
	return b.data[n:m:m]
}

// Truncate shortens the batch to n rows. It panics if n exceeds Len.
func (b *Batch) Truncate(n int) {
	if n*b.cols > len(b.data) {
		panic("batch: Truncate beyond length")
	}
	b.data = b.data[: n*b.cols : cap(b.data)]
}

// Data returns the batch's flat row-major storage (Len()*Cols() values).
func (b *Batch) Data() []int64 { return b.data }
