// Package engine is Hydra's in-memory relational engine substrate. It plays
// the role PostgreSQL v9.3 plays in the paper: it executes the SPJ workload
// at the client site to produce annotated query plans, re-executes it at the
// vendor site for verification, and supports replacing a table's scan with a
// dynamic-regeneration source (the paper's "datagen" relation property) so
// queries run against tables holding zero stored rows.
//
// Values are integer codes (see package schema for the coding), moved in
// column batches from one scan contract (batch.ColProjector); all operators
// are pipelined iterators except a hash join's build side, which drains at
// open — unless it is positional: a join on the primary key of a table
// regenerated from its summary looks each probe key up in the summary and
// drains nothing (exec_col.go, positionalLeaf).
package engine

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/generator"
	"repro/internal/schema"
	"repro/internal/synopsis"
)

// DatagenFunc opens a fresh dynamic-regeneration source for a table. It is
// invoked once per scan operator opened on the table, when an execution
// state opens, not per execution (a reused ExecState rewinds its scans):
// once for a build side however many workers probe it, and, for the
// partitionable leaf of a sink's morsel-parallel drain, once per worker
// (each then scans sections of the first worker's source). The source speaks the engine's one scan contract,
// batch.ColProjector; a caller outside this module that produces rows one
// at a time wraps its producer in batch.FromRows.
type DatagenFunc func() (batch.ColProjector, error)

// Relation is a stored table: the schema plus materialized coded values,
// held column-major — the layout every scan hands out — so a stored scan is
// a copy per projected column and a section is a sub-slice. Append is the
// only way in.
type Relation struct {
	Table *schema.Table
	cols  [][]int64 // one per schema column, each n long
	n     int
}

// Append adds a row after checking arity. The row is copied; the caller may
// reuse its slice. The first Append reserves Table.RowCount rows per
// column, so loading a table of the declared size never regrows.
func (r *Relation) Append(row []int64) error {
	if len(row) != len(r.Table.Columns) {
		return fmt.Errorf("engine: relation %s: row arity %d, want %d", r.Table.Name, len(row), len(r.Table.Columns))
	}
	if r.cols == nil {
		r.cols = make([][]int64, len(row))
		for c := range r.cols {
			r.cols[c] = make([]int64, 0, max(r.Table.RowCount, 0))
		}
	}
	for c, v := range row {
		r.cols[c] = append(r.cols[c], v)
	}
	r.n++
	return nil
}

// Len returns the number of stored rows.
func (r *Relation) Len() int { return r.n }

// Col returns the stored values of column c, in row order. The slice
// aliases the relation's storage and must not be modified.
func (r *Relation) Col(c int) []int64 {
	if r.cols == nil {
		return nil
	}
	return r.cols[c]
}

// Row returns a copy of row i.
func (r *Relation) Row(i int) []int64 {
	row := make([]int64, len(r.cols))
	for c, col := range r.cols {
		row[c] = col[i]
	}
	return row
}

// Database holds each table's one scan source — stored rows, a registered
// summary the engine regenerates from, or an opaque datagen source. It holds
// no drained data: each Prepared owns its hash builds. reg counts
// registrations: a Prepared made under an older count is stale.
//
// Register every table (AddRelation, SetDatagen, SetSummary) before
// querying: registrations are not safe concurrently with Prepare or
// executions. Once registration is done, Prepare and every execution entry
// point are safe for concurrent use.
type Database struct {
	Schema    *schema.Schema
	rels      map[string]*Relation
	datagen   map[string]DatagenFunc
	summaries map[string]summaryScan
	reg       uint64
}

// summaryScan is a table's registered summary and the one stream over the
// whole table built from it at registration: every scan of the table is a
// Section or a SectionSet of gen.
type summaryScan struct {
	rel *synopsis.Relation
	gen *generator.Stream
}

// NewDatabase creates an empty database over the schema.
func NewDatabase(s *schema.Schema) *Database {
	return &Database{
		Schema:    s,
		rels:      make(map[string]*Relation),
		datagen:   make(map[string]DatagenFunc),
		summaries: make(map[string]summaryScan),
	}
}

// newRegistration makes every Prepared made so far stale: a Prepared's
// proofs, row-spaces and drained builds were taken against the
// registrations it was prepared under.
func (db *Database) newRegistration() {
	db.reg++
}

// AddRelation registers a stored relation for a schema table. A relation
// whose column count differs from the schema's table of that name is
// refused: scans size their batches from the schema. Append the rows first:
// registering makes Prepareds already made stale (see newRegistration).
func (db *Database) AddRelation(rel *Relation) error {
	t := db.Schema.Table(rel.Table.Name)
	if t == nil {
		return fmt.Errorf("engine: table %s not in schema", rel.Table.Name)
	}
	if len(rel.Table.Columns) != len(t.Columns) {
		return fmt.Errorf("engine: relation %s has %d columns, schema table has %d", rel.Table.Name, len(rel.Table.Columns), len(t.Columns))
	}
	db.rels[rel.Table.Name] = rel
	db.newRegistration()
	return nil
}

// Relation returns the stored relation for a table, or nil.
func (db *Database) Relation(name string) *Relation { return db.rels[name] }

// SetDatagen enables the dataless "datagen" property for a table with an
// opaque source: scans of the table stream rows from fn instead of stored
// data, and nothing is known about them ahead, so they are neither pruned
// nor answered from a summary. It replaces a summary registered for the
// table; passing nil disables it.
func (db *Database) SetDatagen(table string, fn DatagenFunc) {
	db.newRegistration()
	delete(db.summaries, table)
	if fn == nil {
		delete(db.datagen, table)
		return
	}
	db.datagen[table] = fn
}

// DatagenEnabled reports whether the table scans via dynamic regeneration:
// from a registered summary or a datagen source.
func (db *Database) DatagenEnabled(table string) bool {
	_, gen := db.datagen[table]
	_, sum := db.summaries[table]
	return gen || sum
}

// SetSummary makes a schema table regenerate from rel at full speed — the
// one way a table regenerates from a summary. One generator stream over the
// whole table is built here and every scan is cut from it, so what the
// scans produce and what the pruner and the summary-direct evaluator
// (summaryagg.go) reason over are the same relation: provably exact
// aggregates are answered in O(summary rows) without generating a tuple,
// and filters prune the rows they provably reject. It replaces a datagen
// source registered for the table. rel is held, not copied, and must not
// change while registered. Passing nil unregisters the summary and leaves
// a datagen source in place; a table the schema lacks is ignored.
func (db *Database) SetSummary(table string, rel *synopsis.Relation) {
	db.newRegistration()
	t := db.Schema.Table(table)
	if rel == nil || t == nil {
		delete(db.summaries, table)
		return
	}
	delete(db.datagen, table)
	db.summaries[table] = summaryScan{rel: rel, gen: generator.NewStream(t, rel)}
}

// Summary returns the registered relation summary for a table, or nil.
func (db *Database) Summary(table string) *synopsis.Relation { return db.summaries[table].rel }

// openScan returns a fresh cursor over the table's whole scan: a section of
// its registered stream, a datagen source, or the stored columns.
func (db *Database) openScan(table string) (batch.ColProjector, error) {
	if r, ok := db.summaries[table]; ok {
		return r.gen.Section(0, r.gen.Total()), nil
	}
	if fn, ok := db.datagen[table]; ok {
		return fn()
	}
	rel := db.rels[table]
	if rel == nil {
		return nil, fmt.Errorf("engine: table %s has neither stored rows nor datagen", table)
	}
	return &relCursor{cols: rel.cols, hi: rel.n}, nil
}

// relCursor scans rows [lo, hi) of a stored relation's columns. It offers
// every scan capability: projection, SeekRow, and Total/Section (the
// parallel.Source contract, so stored relations are morsel-partitionable
// like generator streams).
type relCursor struct {
	cols   [][]int64
	lo, hi int
	i      int // rows of the window already produced
}

// NextColBatch copies the next rows of the projected columns into dst,
// implementing batch.ColProjector: only the requested columns are read or
// written, mirroring the generator's projection pushdown.
//
//hydra:hotpath
func (s *relCursor) NextColBatch(dst *batch.ColBatch, cols []int) bool {
	dst.Reset()
	at := s.lo + s.i
	n := min(s.hi-at, dst.Cap())
	if n <= 0 {
		return false
	}
	dst.SetLen(n)
	for _, c := range cols {
		copy(dst.Col(c), s.cols[c][at:at+n])
	}
	s.i += n
	return true
}

// SeekRow repositions the cursor to row i of its window (clamped), so
// prepared executions rewind a stored scan without reopening it.
func (s *relCursor) SeekRow(i int64) {
	s.i = int(min(max(i, 0), s.Total()))
}

// Total returns the number of rows in the cursor's window.
func (s *relCursor) Total() int64 { return int64(s.hi - s.lo) }

// Section opens an independent cursor over rows [lo, hi) of the window
// (bounds clamped).
func (s *relCursor) Section(lo, hi int64) batch.ColProjector {
	n := s.Total()
	lo = min(max(lo, 0), n)
	hi = min(max(hi, lo), n)
	return &relCursor{cols: s.cols, lo: s.lo + int(lo), hi: s.lo + int(hi)}
}
