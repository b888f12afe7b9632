// Package synopsis holds the data model of Hydra's database summary: the
// minuscule, memory-resident artifact from which databases of arbitrary
// size are regenerated on the fly. A relation summary is a list of rows
// (#TUPLES, value-spec vector) — exactly the presentation of Figure 4 of
// the paper, where the primary-key column is replaced by a tuple count and
// generated later as auto-numbers.
//
// The types live here, below every pipeline package, so both producers
// (package summary's deterministic-alignment builder) and consumers (the
// tuple generator, the engine's summary-direct aggregate fast path) can
// share them without import cycles. Package summary re-exports everything
// via type aliases; code above the engine should keep importing summary.
package synopsis

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/schema"
	"repro/internal/value"
)

// ColSpec prescribes the value of one column within a summary row: either a
// fixed code or a set of codes the generator cycles through.
type ColSpec struct {
	Col   int               `json:"col"`
	Fixed *int64            `json:"fixed,omitempty"`
	Set   value.IntervalSet `json:"set,omitempty"`
}

// FixedSpec returns a fixed-value spec.
func FixedSpec(col int, v int64) ColSpec { return ColSpec{Col: col, Fixed: &v} }

// SetSpec returns a cycling-set spec.
func SetSpec(col int, s value.IntervalSet) ColSpec { return ColSpec{Col: col, Set: s} }

// Row is one summary row: Count tuples sharing the value specs.
type Row struct {
	Count int64     `json:"count"`
	Specs []ColSpec `json:"specs"`
}

// Spec resolves the value law of column col within the row — the one rule
// the tuple generator and every summary-direct reasoner share. The tuple at
// offset w of the row (global index g) holds, in column col:
//
//   - g itself when col is the primary key pkIdx: the key always
//     auto-numbers, whatever the row's specs say (Spec returns nil);
//   - 0 when no spec names col (Spec returns nil);
//   - otherwise what the first spec naming col prescribes: *Fixed, or
//     Set.At(w mod Set.Len()).
//
// Validate rejects rows where the first two clauses would hide a spec
// (duplicates, pk specs); the rule keeps unvalidated in-memory summaries
// deterministic all the same.
func (r *Row) Spec(col, pkIdx int) *ColSpec {
	if col == pkIdx {
		return nil
	}
	for i := range r.Specs {
		if r.Specs[i].Col == col {
			return &r.Specs[i]
		}
	}
	return nil
}

// AtomPK is one entry of a relation's alignment index: a partition atom's
// representative point (one code per axis of the relation's constraint
// space) and the primary-key range its tuples occupy. Referencing relations
// use the index to materialize foreign keys: a fact atom's dimension cell
// selects exactly the dimension atoms whose representatives fall inside it.
type AtomPK struct {
	Rep []int64           `json:"rep"`
	PK  value.IntervalSet `json:"pk"`
}

// Relation is the summary of one table.
type Relation struct {
	Table string `json:"table"`
	// Total is the number of tuples the summary regenerates; tuple i gets
	// primary key i (auto-numbering).
	Total int64 `json:"total"`
	Rows  []Row `json:"rows"`
	// Axes names the relation's constraint-space axes: own columns by
	// name, attributes reached through a foreign key as "fkcol.axis".
	Axes []string `json:"axes,omitempty"`
	// Atoms is the deterministic-alignment index over those axes.
	Atoms []AtomPK `json:"atoms,omitempty"`
	// ClampedRows counts tuples whose foreign-key set had to be clamped
	// by referential post-processing (the paper's "minor additive
	// errors").
	ClampedRows int64 `json:"clamped_rows,omitempty"`
}

// AxisIndex returns the position of an axis key, or -1.
func (r *Relation) AxisIndex(key string) int {
	for i, a := range r.Axes {
		if a == key {
			return i
		}
	}
	return -1
}

// Validate checks internal consistency: counts non-negative and summing to
// Total without overflowing, every spec either fixed or a non-empty set,
// and at most one spec per column with none on the auto-numbered primary
// key — so every spec a summary file carries is one Row.Spec honours.
func (r *Relation) Validate(t *schema.Table) error {
	var sum int64
	pk := t.PKIndex()
	seen := make([]bool, len(t.Columns))
	for i, row := range r.Rows {
		if row.Count < 0 {
			return fmt.Errorf("summary: %s row %d: negative count", r.Table, i)
		}
		if row.Count > math.MaxInt64-sum {
			return fmt.Errorf("summary: %s row %d: cumulative count overflows", r.Table, i)
		}
		sum += row.Count
		clear(seen)
		for _, sp := range row.Specs {
			if sp.Col < 0 || sp.Col >= len(t.Columns) {
				return fmt.Errorf("summary: %s row %d: bad column %d", r.Table, i, sp.Col)
			}
			if sp.Col == pk {
				return fmt.Errorf("summary: %s row %d: spec on auto-numbered primary key column %d", r.Table, i, sp.Col)
			}
			if seen[sp.Col] {
				return fmt.Errorf("summary: %s row %d: duplicate spec for column %d", r.Table, i, sp.Col)
			}
			seen[sp.Col] = true
			if sp.Fixed == nil && sp.Set.Empty() {
				return fmt.Errorf("summary: %s row %d col %d: empty spec", r.Table, i, sp.Col)
			}
		}
	}
	if sum != r.Total {
		return fmt.Errorf("summary: %s: rows sum to %d, total is %d", r.Table, sum, r.Total)
	}
	return nil
}

// Database is the complete vendor-side summary: one relation summary per
// table plus the schema needed to decode values.
type Database struct {
	Schema    *schema.Schema       `json:"schema"`
	Relations map[string]*Relation `json:"relations"`
}

// Relation returns the summary for a table, or nil.
func (d *Database) Relation(name string) *Relation { return d.Relations[name] }

// Validate checks every relation summary against the schema.
func (d *Database) Validate() error {
	for name, r := range d.Relations {
		t := d.Schema.Table(name)
		if t == nil {
			return fmt.Errorf("summary: relation %s not in schema", name)
		}
		if err := r.Validate(t); err != nil {
			return err
		}
	}
	return nil
}

// EncodeJSON writes the summary as indented JSON.
func (d *Database) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DecodeJSON reads a summary written by EncodeJSON.
func DecodeJSON(r io.Reader) (*Database, error) {
	var d Database
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("summary: decoding: %w", err)
	}
	return &d, nil
}

// EncodeGob writes the summary in the compact binary form used for the
// size accounting the paper reports ("a few KB"). It is write-only: gob
// omits zero values, so a Fixed spec of 0 would not survive a decode —
// summaries travel as JSON.
func (d *Database) EncodeGob(w io.Writer) error {
	return gob.NewEncoder(w).Encode(d)
}

// Size returns the gob-encoded size in bytes. The alignment index
// (RegionPK) is part of the summary and included.
func (d *Database) Size() (int, error) {
	var buf bytes.Buffer
	if err := d.EncodeGob(&buf); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}
