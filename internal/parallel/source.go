package parallel

import "repro/internal/batch"

// Source is the contract a scan source must satisfy for morsel-driven
// execution: its output is a deterministic sequence of Total rows, and any
// contiguous range [lo, hi) of that sequence can be opened as an
// independent scan source. Section must be safe for concurrent use (each
// returned sub-source carries its own cursor state) and the concatenation
// of Section(0,a), Section(a,b), …, Section(z,Total) must be byte-identical
// to draining the source itself — the property the partition parity tests
// in internal/generator pin down.
//
// generator.Stream implements Source by binary-searching the summary's
// cumulative tuple counts and phase-aligning each cycling-interval cursor;
// the engine's stored-relation cursor implements it by slicing.
type Source interface {
	batch.ColProjector
	// Total returns the number of rows the source produces in full.
	Total() int64
	// Section opens an independent sub-source over rows [lo, hi).
	Section(lo, hi int64) batch.ColProjector
}
