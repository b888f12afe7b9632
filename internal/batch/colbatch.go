package batch

// ColBatch is the column-major batch: the values of column c occupy one
// contiguous []int64, and a reusable selection vector marks which rows are
// live. The layout is what makes late materialization possible — an
// operator touches only the columns it was asked to populate, a filter
// flips selection indices instead of moving row data, and column fills are
// unit-stride.
//
// A batch is constructed for a fixed set of populated columns; the other
// columns carry no storage (Col returns nil), so a scan projected to three
// of twenty-plus columns never allocates — let alone writes — the rest. A
// batch may also be constructed with no storage at all and sized by its
// writer (Reserve): the engine's root batch under a sink, which holds only
// the rows the sink emits. And a scan source writing into a wider batch —
// a join's, whose probe columns come first — sees the table's width
// through a column-prefix view (PrefixView).
type ColBatch struct {
	width   int
	capRows int
	n       int       // physical rows
	cols    [][]int64 // len == width; nil for unpopulated columns
	sel     []int32   // live rows, ascending; nil means all n rows are live
	selBuf  []int32   // reusable selection storage handed out by SelBuf
}

// NewCol returns an empty column batch of the given logical row width.
// capRows <= 0 selects DefaultCap. Only the listed columns receive storage;
// populated indices must be in [0, width) and are deduplicated by the
// caller's contract (duplicates are harmless but waste nothing here).
func NewCol(width, capRows int, populated []int) *ColBatch {
	if capRows <= 0 {
		capRows = DefaultCap
	}
	b := &ColBatch{width: width, capRows: capRows, cols: make([][]int64, width)}
	for _, c := range populated {
		if b.cols[c] == nil {
			b.cols[c] = make([]int64, capRows)
		}
	}
	return b
}

// AllCols is the complete column set [0, n): the populated list of a
// whole-row batch and the projection of a whole-row scan.
func AllCols(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// Width returns the logical row width.
func (b *ColBatch) Width() int { return b.width }

// Cap returns the batch capacity in rows.
func (b *ColBatch) Cap() int { return b.capRows }

// Len returns the number of physical rows in the batch (live or not).
func (b *ColBatch) Len() int { return b.n }

// SetLen sets the physical row count (the writer's contract: fill the
// populated columns' first n entries). It panics beyond capacity and leaves
// the batch dense (no selection).
func (b *ColBatch) SetLen(n int) {
	if n > b.capRows {
		panic("batch: SetLen beyond capacity")
	}
	b.n = n
	b.sel = nil
}

// Live returns the number of live rows: len(Sel()) under a selection,
// otherwise every physical row.
func (b *ColBatch) Live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// Sel returns the selection vector — ascending physical row indices of the
// live rows — or nil when the batch is dense (all rows live).
func (b *ColBatch) Sel() []int32 { return b.sel }

// SetSel installs a selection vector. The slice is retained, not copied;
// filters pass a prefix of SelBuf.
func (b *ColBatch) SetSel(sel []int32) { b.sel = sel }

// SelBuf returns the batch's reusable selection storage (capacity Cap,
// length 0). A filter appends surviving row indices to it and installs the
// result with SetSel. Refining an existing selection in place is safe: the
// write index never passes the read index.
func (b *ColBatch) SelBuf() []int32 {
	if b.selBuf == nil {
		b.selBuf = make([]int32, 0, b.capRows)
	}
	return b.selBuf[:0]
}

// Col returns column c's storage, or nil when c is unpopulated; entries
// [0, Len) are meaningful. Its length is Cap, except in a batch its writer
// sizes (Reserve): there it is at least the rows last reserved, which are
// at least Len.
func (b *ColBatch) Col(c int) []int64 { return b.cols[c] }

// Reserve gives each of cols storage for at least n rows, n <= Cap: a
// column already that long — every column NewCol populated — is left as
// it is, and a shorter one gets exactly n rows, so a writer that reserves
// the same n every time allocates once. The engine's sinks reserve the
// rows they are about to emit, in a root batch constructed without
// storage.
func (b *ColBatch) Reserve(cols []int, n int) {
	for _, c := range cols {
		if len(b.cols[c]) < n {
			b.cols[c] = make([]int64, n)
		}
	}
}

// PrefixView makes v an empty batch over b's first width columns and its
// capacity: v shares b's column storage, so what a writer fills in v is in
// b (the writer then sets b's length). It allocates nothing — v is the
// caller's — and lets a scan source that checks its table's width (RowScan)
// write into a wider batch.
func (b *ColBatch) PrefixView(v *ColBatch, width int) {
	*v = ColBatch{width: width, capRows: b.capRows, cols: b.cols[:width:width]}
}

// Cols exposes the per-column storage slice, indexed by column position;
// unpopulated columns are nil. Hot loops (predicate vectorization) index it
// directly.
func (b *ColBatch) Cols() [][]int64 { return b.cols }

// Reset empties the batch: zero physical rows, dense selection, storage
// retained.
func (b *ColBatch) Reset() {
	b.n = 0
	b.sel = nil
}

// LiveRow writes the i-th live row (selection order) into dst, which must
// have length Width. Every column must be populated — this is the
// materialization step for sampled output rows.
func (b *ColBatch) LiveRow(i int, dst []int64) {
	r := i
	if b.sel != nil {
		r = int(b.sel[i])
	}
	for c, col := range b.cols {
		dst[c] = col[r]
	}
}

// ColProjector is the scan contract — the one thing a scan source is.
// NextColBatch resets dst, fills exactly the columns in cols (which must
// all be populated in dst) with up to dst.Cap() rows, sets the physical
// length, and reports whether any rows were produced; the batch is left
// dense. Once it returns false the source is exhausted.
//
// The projection is the caller's required-column set: implementations must
// never touch columns outside it. The generator's Stream, its Paced
// wrapper, the engine's stored-relation cursor and the RowSource adapter
// (FromRows) implement it; everything else a source may offer — SeekRow,
// Total/Section, Err — is an optional capability the engine discovers by
// type assertion.
type ColProjector interface {
	NextColBatch(dst *ColBatch, cols []int) bool
}
