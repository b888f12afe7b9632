// Package summary implements Hydra's database summary: the minuscule,
// memory-resident artifact from which databases of arbitrary size are
// regenerated on the fly. A relation summary is a list of rows
// (#TUPLES, value-spec vector) — exactly the presentation of Figure 4 of
// the paper, where the primary-key column is replaced by a tuple count and
// generated later as auto-numbers.
//
// Construction uses Hydra's deterministic alignment: relations are
// processed in foreign-key topological order; each relation's partition
// atoms are laid out contiguously along the primary-key axis, so every
// constraint region maps to an exact union of primary-key intervals. Those
// interval sets are what downstream (fact) relations' foreign-key terms
// resolve to — no sampling anywhere, which is why the volumetric error is
// deterministic and constant in magnitude.
//
// The data model itself lives in the leaf package synopsis (so the engine's
// summary-direct fast path can consume it without importing this package's
// build pipeline); the aliases below re-export it, and code above the
// engine keeps importing summary.
package summary

import (
	"io"

	"repro/internal/synopsis"
	"repro/internal/value"
)

// ColSpec prescribes the value of one column within a summary row: either a
// fixed code or a set of codes the generator cycles through.
type ColSpec = synopsis.ColSpec

// Row is one summary row: Count tuples sharing the value specs.
type Row = synopsis.Row

// Relation is the summary of one table.
type Relation = synopsis.Relation

// Database is the complete vendor-side summary: one relation summary per
// table plus the schema needed to decode values.
type Database = synopsis.Database

// FixedSpec returns a fixed-value spec.
func FixedSpec(col int, v int64) ColSpec { return synopsis.FixedSpec(col, v) }

// SetSpec returns a cycling-set spec.
func SetSpec(col int, s value.IntervalSet) ColSpec { return synopsis.SetSpec(col, s) }

// DecodeJSON reads a summary written by Database.EncodeJSON.
func DecodeJSON(r io.Reader) (*Database, error) { return synopsis.DecodeJSON(r) }
