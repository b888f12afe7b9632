package hydra

// Positional joins: a key–foreign-key join into a summary-backed table
// looks each probe key up in the table's summary instead of draining and
// hashing the table. Every entry point, batch size and worker count must
// return what the materialized database returns, and the leaves that must
// stay hash builds — a residual filter — must stay them.

import (
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// positionalTables lists the tables of the tree's positional build leaves.
func positionalTables(n *engine.ExecNode) []string {
	var out []string
	if n.Positional {
		out = append(out, n.Table)
	}
	for _, c := range n.Children {
		out = append(out, positionalTables(c)...)
	}
	return out
}

// positionalProbe is one build-leaf shape: the filter on the build table
// (empty for a bare scan), the positional leaves the plan must hold, and
// whether the answer must come from pruned scans.
type positionalProbe struct {
	filter     string
	positional []string
	pruned     bool
}

// positionalFronts runs the join from ... where under the probe's filter
// through every entry point at batch sizes 0 and 3, in two shapes — whole
// rows, and the aggregates agg per group — and holds each answer to the
// materialized database's, each tree's positional leaves to the probe's,
// and the path to the reading's pruning.
func positionalFronts(t *testing.T, db, mat *Database, from, where, agg, group string, p positionalProbe) {
	t.Helper()
	where = " FROM " + from + " WHERE " + where + p.filter
	for _, sql := range []string{"SELECT *" + where, "SELECT " + agg + where + " GROUP BY " + group} {
		want := oracle(t, mat, sql, 40)
		for _, size := range []int{0, 3} {
			eachFront(t, db, sql, ExecOptions{SampleLimit: 40, BatchSize: size}, func(label string, res *ExecResult) {
				sameValues(t, label, res, want)
				if got := positionalTables(res.Root); !slices.Equal(got, p.positional) {
					t.Fatalf("%s: positional leaves %v, want %v", label, got, p.positional)
				}
				if p.positional == nil && !hasOp(res.Root, "FILTER") {
					t.Fatalf("%s: the residual build leaf lost its filter", label)
				}
				if (res.Path == engine.PathPruned) != p.pruned {
					t.Fatalf("%s: path %q, want pruned=%v", label, res.Path, p.pruned)
				}
			})
		}
	}
}

// TestPositionalJoinParityToy covers the build-leaf shapes on the toy
// summary's r ⋈ s: a bare dimension, an absorbed filter, and a filter that
// rejects every tuple (an empty row-space).
func TestPositionalJoinParityToy(t *testing.T) {
	sum := toySummary(t)
	db, mat := Regen(sum, 0), mustMaterialize(t, sum)
	for _, p := range []positionalProbe{
		{"", []string{"s"}, false},
		{" AND s.a >= 20 AND s.a < 60", []string{"s"}, true},
		{" AND s.a >= 1000", []string{"s"}, true},
	} {
		positionalFronts(t, db, mat, "r, s", "r.s_fk = s.s_pk", "s.b, COUNT(*), SUM(s.a), SUM(r.r_pk)", "s.b", p)
	}
}

// edgeStarSummary is a two-table summary with what the toy lacks: foreign
// keys below 0 and past the dimension's last key, a zero-count dimension
// row, a Fixed 0 and an unspecced column, cycling sets whose cycles are cut
// at row boundaries, and a dimension row with two cycling columns, which a
// filter on both leaves residual.
func edgeStarSummary() *Summary {
	s := &schema.Schema{Tables: []*schema.Table{
		{Name: "d", RowCount: 14, Columns: []*schema.Column{
			{Name: "d_pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: 14},
			{Name: "x", Type: schema.Int, DomainLo: 0, DomainHi: 10},
			{Name: "y", Type: schema.Int, DomainLo: 0, DomainHi: 10},
		}},
		{Name: "f", RowCount: 33, Columns: []*schema.Column{
			{Name: "f_pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: 33},
			{Name: "d_fk", Type: schema.Int, Ref: &schema.ForeignKey{Table: "d", Column: "d_pk"}, DomainLo: -3, DomainHi: 16},
			{Name: "v", Type: schema.Int, DomainLo: 0, DomainHi: 5},
		}},
	}}
	set := func(ivs ...value.Interval) value.IntervalSet { return value.NewIntervalSet(ivs...) }
	return &Summary{Schema: s, Relations: map[string]*synopsis.Relation{
		"d": {Table: "d", Total: 14, Rows: []synopsis.Row{
			{Count: 3, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 0), synopsis.SetSpec(2, set(value.Ival(0, 4)))}},
			{Count: 0, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 9)}},
			{Count: 5, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 1), synopsis.SetSpec(2, set(value.Ival(2, 3), value.Ival(7, 9)))}},
			{Count: 4, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, set(value.Ival(0, 5))), synopsis.SetSpec(2, set(value.Ival(0, 10)))}},
			{Count: 2, Specs: []synopsis.ColSpec{synopsis.SetSpec(2, set(value.Ival(4, 6)))}},
		}},
		"f": {Table: "f", Total: 33, Rows: []synopsis.Row{
			{Count: 20, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, set(value.Ival(-3, 16))), synopsis.SetSpec(2, set(value.Ival(0, 5)))}},
			{Count: 7, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 5), synopsis.FixedSpec(2, 2)}},
			{Count: 6, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, set(value.Ival(10, 14)))}},
		}},
	}}
}

// TestPositionalJoinParityEdges holds joins to the materialized database
// where foreign keys fall outside the dimension, on the edge summary:
// positional ones bare, under an absorbed filter and under one no tuple
// passes, and a residual filter's, which must take the hash path.
func TestPositionalJoinParityEdges(t *testing.T) {
	sum := edgeStarSummary()
	db, mat := Regen(sum, 0), mustMaterialize(t, sum)
	for _, p := range []positionalProbe{
		{"", []string{"d"}, false},
		{" AND d.x >= 1 AND d.x < 2", []string{"d"}, true},
		{" AND d.x >= 5", []string{"d"}, true},
		{" AND d.x >= 2 AND d.y >= 3", nil, true},
	} {
		positionalFronts(t, db, mat, "f, d", "f.d_fk = d.d_pk", "d.y, COUNT(*), SUM(d.x), SUM(d.d_pk), SUM(f.v)", "d.y", p)
	}
}
