package generator

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/schema"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// lawRows is the Tuple-Generator law written down, not a generator: tuple
// g of the relation, at offset w of its summary row, holds g in the primary
// key, Fixed or Set.At(w mod |Set|) where the row's first spec for the
// column says so, and 0 elsewhere. Every access style is pinned to it.
func lawRows(tbl *schema.Table, rel *synopsis.Relation) [][]int64 {
	var out [][]int64
	for _, row := range rel.Rows {
		for w := int64(0); w < row.Count; w++ {
			tup := make([]int64, len(tbl.Columns))
			for i := len(row.Specs) - 1; i >= 0; i-- { // descending, so the first spec wins
				if sp := row.Specs[i]; sp.Fixed != nil {
					tup[sp.Col] = *sp.Fixed
				} else {
					tup[sp.Col] = sp.Set.At(w % sp.Set.Len())
				}
			}
			if pk := tbl.PKIndex(); pk >= 0 {
				tup[pk] = int64(len(out))
			}
			out = append(out, tup)
		}
	}
	return out
}

// omitSummary's second row leaves column a unspecced: it must generate 0
// there. With 4+4 rows, any batch capacity up to 4 makes the second row's
// tuples land in slots the first row's a=7 tuples just occupied.
func omitSummary() *synopsis.Relation {
	return &synopsis.Relation{
		Table: "t",
		Total: 8,
		Rows: []synopsis.Row{
			{Count: 4, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(1, 7),
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(1, 4))),
			}},
			{Count: 4, Specs: []synopsis.ColSpec{
				synopsis.SetSpec(2, value.NewIntervalSet(value.Ival(5, 7))),
			}},
		},
	}
}

// unvalidatedSummary carries what Validate rejects — a duplicate spec and a
// spec on the primary key — which the law still resolves one way: first
// spec wins, the key auto-numbers.
func unvalidatedSummary() *synopsis.Relation {
	return &synopsis.Relation{
		Table: "t",
		Total: 5,
		Rows: []synopsis.Row{
			{Count: 5, Specs: []synopsis.ColSpec{
				synopsis.FixedSpec(0, 42),
				synopsis.SetSpec(1, value.NewIntervalSet(value.Ival(1, 3))),
				synopsis.FixedSpec(1, 9),
			}},
		},
	}
}

// TestUnspeccedColumnIsZero is the regression for the row-major path
// leaking the previous batch's values into a column the summary row omits.
func TestUnspeccedColumnIsZero(t *testing.T) {
	tbl := genTable()
	for _, capRows := range []int{1, 2, 4} {
		rows := collectBatches(NewStream(tbl, omitSummary()), capRows)
		if len(rows) != 8 {
			t.Fatalf("cap %d: %d rows, want 8", capRows, len(rows))
		}
		for g, row := range rows[4:] {
			if row[1] != 0 {
				t.Errorf("cap %d: tuple %d has a=%d in an unspecced column, want 0", capRows, 4+g, row[1])
			}
		}
	}
}

// TestEveryAccessStyleObeysTheLaw pins each tuple of Next, NextBatch,
// NextColBatch and SectionSet (both layouts) to lawRows, across capacities
// that split summary rows, tiles and cycles.
func TestEveryAccessStyleObeysTheLaw(t *testing.T) {
	tbl := genTable()
	all := []int{0, 1, 2}
	summaries := partitionSummaries()
	summaries["omit"] = omitSummary()
	summaries["unvalidated"] = unvalidatedSummary()
	for name, rel := range summaries {
		want := lawRows(tbl, rel)
		sameRows(t, name+" Next", collectRows(NewStream(tbl, rel)), want)
		for _, capRows := range []int{1, 3, 4, tileRows, tileRows + 1, 1000} {
			sameRows(t, name+" NextBatch", collectBatches(NewStream(tbl, rel), capRows), want)
			sameRows(t, name+" NextColBatch", collectColBatches(NewStream(tbl, rel), capRows, all), want)

			// Every other run of three positions, so hops land mid-row and mid-cycle.
			var ivs value.IntervalSet
			var kept [][]int64
			for lo := int64(1); lo < rel.Total; lo += 6 {
				hi := min(lo+3, rel.Total)
				ivs = append(ivs, value.Ival(lo, hi))
				kept = append(kept, want[lo:hi]...)
			}
			ss := NewStream(tbl, rel).sectionSet(ivs)
			sameRows(t, name+" SectionSet.NextBatch", drainSource(ss, len(all), capRows), kept)
			ss.SeekRow(0)
			var got [][]int64
			cb := batch.NewCol(len(all), capRows, all)
			for ss.NextColBatch(cb, all) {
				for i := 0; i < cb.Len(); i++ {
					row := make([]int64, len(all))
					cb.LiveRow(i, row)
					got = append(got, row)
				}
			}
			sameRows(t, name+" SectionSet.NextColBatch", got, kept)
		}
	}
}
