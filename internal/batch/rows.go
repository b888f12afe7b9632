package batch

import (
	"errors"
	"fmt"
)

// The two pivots between rows and column batches. Inside the program every
// scan source is a ColProjector and every operator consumes ColBatches;
// rows exist only here, at the boundary where a consumer wants tuples
// (RowReader) or a producer outside this module hands them in (FromRows),
// and at the engine's sink (ColBatch.LiveRow).

// RowReader reads any ColProjector one row at a time through the caller's
// ColBatch: the batch's capacity is the read-ahead (a 1-row batch over a
// paced source delivers row-granular velocity) and its populated columns
// are the projection — unpopulated columns read 0.
type RowReader struct {
	src  ColProjector
	b    *ColBatch
	cols []int
	row  []int64
	i    int
}

// NewRowReader returns a reader over src that refills b as it drains.
func NewRowReader(src ColProjector, b *ColBatch) *RowReader {
	b.Reset()
	r := &RowReader{src: src, b: b, row: make([]int64, b.width)}
	for c, col := range b.cols {
		if col != nil {
			r.cols = append(r.cols, c)
		}
	}
	return r
}

// Next returns the next row, or ok=false once the source is exhausted. The
// returned slice is reused across calls; callers that retain rows must copy
// them.
//
//hydra:hotpath
func (r *RowReader) Next() (row []int64, ok bool) {
	if r.i >= r.b.n {
		if !r.src.NextColBatch(r.b, r.cols) {
			return nil, false
		}
		r.i = 0
	}
	for _, c := range r.cols {
		r.row[c] = r.b.cols[c][r.i]
	}
	r.i++
	return r.row, true
}

// RowSource yields coded rows one at a time; Next returns ok=false when the
// source is exhausted. It survives as the input type of FromRows, for
// producers outside this module.
type RowSource interface {
	Next() (row []int64, ok bool)
}

// ErrRowArity tags a scan that stopped because its RowSource produced a
// row whose length differs from the table's width; test with errors.Is.
var ErrRowArity = errors.New("row arity mismatch")

// RowScan adapts a RowSource to the scan contract; construct with FromRows.
type RowScan struct {
	src RowSource
	err error
}

// FromRows adapts a row-at-a-time producer to the scan contract — the one
// adapter, for datagen sources supplied by callers outside this module.
// Projection cannot be pushed into an opaque producer, so each row is
// produced whole and the projected columns are stored straight from it.
// Rows are input from outside the program: one whose length is not the
// batch's width stops the scan, and Err reports it.
func FromRows(src RowSource) *RowScan { return &RowScan{src: src} }

// NextColBatch implements ColProjector.
//
//hydra:hotpath
func (a *RowScan) NextColBatch(dst *ColBatch, cols []int) bool {
	dst.Reset()
	if a.err != nil {
		return false
	}
	n := 0
	for n < dst.capRows {
		row, ok := a.src.Next()
		if !ok {
			break
		}
		if len(row) != dst.width {
			a.err = arityErr(len(row), dst.width)
			return false
		}
		for _, c := range cols {
			dst.cols[c][n] = row[c]
		}
		n++
	}
	dst.n = n
	return n > 0
}

// Err returns the error that stopped the scan, if any. The engine's scan
// operator surfaces it as the query's error once the drain ends.
func (a *RowScan) Err() error { return a.err }

//hydra:coldpath
func arityErr(got, want int) error {
	return fmt.Errorf("batch: %w: row has %d values, table has %d columns", ErrRowArity, got, want)
}
