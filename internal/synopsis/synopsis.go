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
	"compress/gzip"
	"encoding/json"
	"errors"
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

// Relation is the summary of one table: Total tuples, laid out by Rows in
// primary-key order.
type Relation struct {
	Table string `json:"table"`
	// Total is the number of tuples the summary regenerates; tuple i gets
	// primary key i (auto-numbering).
	Total int64 `json:"total"`
	Rows  []Row `json:"rows"`
}

// Validate checks internal consistency: counts non-negative and summing to
// Total without overflowing, every spec either fixed or a non-empty
// canonical set spanning at most MaxInt64 codes (what IntervalSet.At and
// the cycle verdicts assume), and at most one spec per column with none on
// the auto-numbered primary key — so every spec a summary file carries is
// one Row.Spec honours.
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
			switch {
			case sp.Fixed != nil && sp.Set != nil:
				return fmt.Errorf("summary: %s row %d col %d: both fixed and set", r.Table, i, sp.Col)
			case sp.Fixed == nil && sp.Set.Empty():
				return fmt.Errorf("summary: %s row %d col %d: empty spec", r.Table, i, sp.Col)
			case sp.Fixed == nil && !sp.Set.Equal(sp.Set.Normalize()):
				return fmt.Errorf("summary: %s row %d col %d: set %s not in canonical form", r.Table, i, sp.Col, sp.Set)
			case sp.Fixed == nil && sp.Set[len(sp.Set)-1].Hi-sp.Set[0].Lo <= 0: // wrapped
				return fmt.Errorf("summary: %s row %d col %d: set span overflows", r.Table, i, sp.Col)
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

// Validate checks the schema and every relation summary against it.
func (d *Database) Validate() error {
	if d.Schema == nil {
		return fmt.Errorf("summary: no schema")
	}
	if err := d.Schema.Validate(); err != nil {
		return err
	}
	for name, r := range d.Relations {
		t := d.Schema.Table(name)
		if t == nil || r == nil {
			return fmt.Errorf("summary: relation %s null or not in schema", name)
		}
		if err := r.Validate(t); err != nil {
			return err
		}
	}
	return nil
}

// EncodeJSON writes the summary in the one format it ships in: compact
// JSON, gzip'd at the default level with no name or modification time in
// the header, so equal summaries are equal bytes. The error includes the
// gzip close's, which writes most of them.
func (d *Database) EncodeJSON(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if err := json.NewEncoder(zw).Encode(d); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// DecodeJSON reads a summary written by EncodeJSON: gzip'd JSON holding
// one document. The whole input is read, so a corrupt checksum or trailing
// data fails the decode.
func DecodeJSON(r io.Reader) (*Database, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("summary: decoding: %w", err)
	}
	dec := json.NewDecoder(zr)
	var d Database
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("summary: decoding: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err == nil {
			err = errors.New("trailing data")
		}
		return nil, fmt.Errorf("summary: decoding: %w", err)
	}
	return &d, nil
}

// Size returns the length in bytes of the summary's EncodeJSON encoding:
// the size of the file that ships.
func (d *Database) Size() (int, error) {
	var n countingWriter
	err := d.EncodeJSON(&n)
	return int(n), err
}

// countingWriter counts the bytes written to it and drops them.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
