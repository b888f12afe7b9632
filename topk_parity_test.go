package hydra

// Late top-K: ORDER BY … LIMIT k over a summary-backed table whose primary
// key the sort collects sorts on the keys and the columns up to the
// primary key alone, and reads the winners' other columns from the summary
// at emit. Every entry point, batch size and worker count must return what
// the materialized database returns, and the shapes that must keep
// collecting every column — no key collected, nothing past the key, an
// unbounded sort, a join below, a stored table — must keep doing so.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// lateSortScan returns the column names the scan under the tree's late
// sort materializes, and whether the tree holds a late sort.
func lateSortScan(n *engine.ExecNode) ([]string, bool) {
	if n.Late {
		for n = n.Children[0]; len(n.Children) > 0; n = n.Children[0] {
		}
		return n.Cols, true
	}
	for _, c := range n.Children {
		if cols, ok := lateSortScan(c); ok {
			return cols, true
		}
	}
	return nil, false
}

// topKSummary is a one-table summary whose primary key sits in the middle
// of the row (column 2), so a late sort collects a prefix of the columns
// besides its keys: Fixed sort keys shared by whole summary rows (ties
// broken only by the key), a zero-count row, an unspecced column, and
// cycling sets cut at row boundaries and straddling them.
func topKSummary() *Summary {
	col := func(name string) *schema.Column {
		return &schema.Column{Name: name, Type: schema.Int, DomainLo: 0, DomainHi: 50}
	}
	pk := &schema.Column{Name: "k_pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: 40}
	s := &schema.Schema{Tables: []*schema.Table{
		{Name: "k", RowCount: 40, Columns: []*schema.Column{col("a"), col("b"), pk, col("c"), col("d"), col("e")}},
	}}
	set := func(ivs ...value.Interval) value.IntervalSet { return value.NewIntervalSet(ivs...) }
	return &Summary{Schema: s, Relations: map[string]*synopsis.Relation{
		"k": {Table: "k", Total: 40, Rows: []synopsis.Row{
			{Count: 7, Specs: []synopsis.ColSpec{synopsis.FixedSpec(0, 3), synopsis.SetSpec(1, set(value.Ival(0, 4))), synopsis.SetSpec(3, set(value.Ival(10, 13), value.Ival(20, 22))), synopsis.FixedSpec(4, 1)}},
			{Count: 0, Specs: []synopsis.ColSpec{synopsis.FixedSpec(0, 9)}},
			{Count: 11, Specs: []synopsis.ColSpec{synopsis.SetSpec(0, set(value.Ival(0, 5))), synopsis.FixedSpec(1, 2), synopsis.SetSpec(3, set(value.Ival(5, 8))), synopsis.SetSpec(4, set(value.Ival(0, 3)))}},
			{Count: 5, Specs: []synopsis.ColSpec{synopsis.FixedSpec(0, 3), synopsis.SetSpec(3, set(value.Ival(30, 40))), synopsis.FixedSpec(4, 7)}},
			{Count: 9, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, set(value.Ival(1, 3), value.Ival(6, 7))), synopsis.FixedSpec(4, 1)}},
			{Count: 8, Specs: []synopsis.ColSpec{synopsis.FixedSpec(0, 3), synopsis.FixedSpec(1, 2), synopsis.FixedSpec(3, 12)}},
		}},
	}}
}

// topKProbe is one query and what its late sort must look like: the
// columns its scan materializes (nil: the sort must not run late), and
// whether the answer must come from pruned scans.
type topKProbe struct {
	sql    string
	cols   []string
	pruned bool
}

// topKFronts runs each probe through every entry point at batch sizes 0
// and 3 and holds the answer to the materialized database's, the tree's
// late sort to the probe's, and the path to the probe's pruning; under
// the PathRegen ceiling it also holds every operator's cardinality to the
// oracle's — the late sort's scan still generates every tuple. Unsampled,
// a sort collects its keys alone, never the primary key unless it is one,
// and so never runs late.
func topKFronts(t *testing.T, db, mat *Database, probes []topKProbe) {
	t.Helper()
	for _, p := range probes {
		unsampled := oracle(t, mat, p.sql, 0)
		eachFront(t, db, p.sql, ExecOptions{BatchSize: 3}, func(label string, res *ExecResult) {
			sameValues(t, label, res, unsampled)
			if _, late := lateSortScan(res.Root); late {
				t.Fatalf("%s: an unsampled sort ran late", label)
			}
		})
		want := oracle(t, mat, p.sql, 50)
		for _, size := range []int{0, 3} {
			eachFront(t, db, p.sql, ExecOptions{SampleLimit: 50, BatchSize: size}, func(label string, res *ExecResult) {
				sameValues(t, label, res, want)
				cols, late := lateSortScan(res.Root)
				if late != (p.cols != nil) || !slices.Equal(cols, p.cols) {
					t.Fatalf("%s: late sort %v over scan columns %v, want %v", label, late, cols, p.cols)
				}
				if (res.Path == engine.PathPruned) != p.pruned {
					t.Fatalf("%s: path %q, want pruned=%v", label, res.Path, p.pruned)
				}
			})
			eachFront(t, db, p.sql, ExecOptions{SampleLimit: 50, BatchSize: size, Regime: engine.PathRegen}, func(label string, res *ExecResult) {
				sameResult(t, label, res, want)
			})
		}
		// The oracle's own stored table never runs late.
		if _, late := lateSortScan(want.Root); late {
			t.Fatalf("%s: a stored table's sort ran late", p.sql)
		}
	}
}

// TestLateTopKParity covers the late sort's shapes on topKSummary: ties
// on Fixed keys, ascending, descending and multi-key orders, keys before
// and after the primary key, OFFSET, a LIMIT above the row count, a pruned
// primary-key window, a residual filter, an empty row-space — and the
// bounded sorts that must not run late.
func TestLateTopKParity(t *testing.T) {
	sum := topKSummary()
	db, mat := Regen(sum, 0), mustMaterialize(t, sum)
	topKFronts(t, db, mat, []topKProbe{
		// Ties: a is 3 on 20 of the 40 tuples, in four summary rows.
		{"SELECT * FROM k ORDER BY k.a LIMIT 12", []string{"a", "b", "k_pk"}, false},
		{"SELECT * FROM k ORDER BY k.a DESC LIMIT 25", []string{"a", "b", "k_pk"}, false},
		{"SELECT * FROM k ORDER BY k.a DESC, k.c LIMIT 9 OFFSET 4", []string{"a", "b", "k_pk", "c"}, false},
		{"SELECT * FROM k ORDER BY k.d, k.b DESC, k.e LIMIT 13 OFFSET 1", []string{"a", "b", "k_pk", "d", "e"}, false},
		// Every tuple ties on the unspecced e: the key alone orders them.
		{"SELECT k.c, k.k_pk FROM k ORDER BY k.e LIMIT 5", []string{"a", "b", "k_pk", "e"}, false},
		{"SELECT * FROM k ORDER BY k.k_pk DESC LIMIT 3", []string{"a", "b", "k_pk"}, false},
		{"SELECT * FROM k ORDER BY k.c DESC LIMIT 100", []string{"a", "b", "k_pk", "c"}, false},
		{"SELECT * FROM k ORDER BY k.b LIMIT 100 OFFSET 38", []string{"a", "b", "k_pk"}, false},
		{"SELECT * FROM k ORDER BY k.b LIMIT 5 OFFSET 40", []string{"a", "b", "k_pk"}, false},
		// A pruned window, a residual filter, an empty row-space.
		{"SELECT * FROM k WHERE k.k_pk >= 5 AND k.k_pk < 30 ORDER BY k.c DESC LIMIT 6", []string{"a", "b", "k_pk", "c"}, true},
		{"SELECT * FROM k WHERE k.a >= 1 AND k.c >= 6 ORDER BY k.d DESC, k.e LIMIT 8 OFFSET 2", []string{"a", "b", "k_pk", "c", "d", "e"}, true},
		{"SELECT * FROM k WHERE k.a >= 100 ORDER BY k.b LIMIT 4", []string{"a", "b", "k_pk"}, true},
		// Every column past the key a sort key, no bound: each sort
		// collects every column as before.
		{"SELECT * FROM k ORDER BY k.e, k.d DESC, k.c LIMIT 7", nil, false},
		{"SELECT * FROM k ORDER BY k.a DESC", nil, false},
	})
}

// TestLateTopKJoinStaysCollected holds a bounded sort over a join to the
// materialized database: its child is no scan, so it collects every
// column, whatever the join's build side is.
func TestLateTopKJoinStaysCollected(t *testing.T) {
	sum := edgeStarSummary()
	db, mat := Regen(sum, 0), mustMaterialize(t, sum)
	topKFronts(t, db, mat, []topKProbe{
		{"SELECT * FROM f, d WHERE f.d_fk = d.d_pk ORDER BY f.v DESC, d.y LIMIT 6 OFFSET 1", nil, false},
	})
}

// fuzzBytes hands out a fuzz input one byte at a time, reduced modulo the
// caller's range, and zeros once the input is spent.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// fuzzTopKSummary draws a one-table summary, z, from in: two to five
// columns with the primary key at any of them, one to five summary rows of
// zero to eight tuples each, and per other column an unspecced, a Fixed or
// a two-interval cycling spec whose cycle rarely fits its row's count.
func fuzzTopKSummary(in *fuzzBytes) *Summary {
	width := 2 + in.next(4)
	pk := in.next(width)
	cols := make([]*schema.Column, width)
	for c := range cols {
		cols[c] = &schema.Column{Name: fmt.Sprintf("c%d", c), Type: schema.Int, DomainLo: 0, DomainHi: 64}
	}
	rel := &synopsis.Relation{Table: "z"}
	for r := 1 + in.next(5); r > 0; r-- {
		row := synopsis.Row{Count: int64(in.next(9))}
		for c := range width {
			switch kind := in.next(3); {
			case c == pk || kind == 0:
			case kind == 1:
				row.Specs = append(row.Specs, synopsis.FixedSpec(c, int64(in.next(6))))
			default:
				lo := int64(in.next(8))
				hi := lo + 1 + int64(in.next(4))
				lo2 := hi + 1 + int64(in.next(3))
				hi2 := lo2 + int64(in.next(4))
				row.Specs = append(row.Specs, synopsis.SetSpec(c, value.NewIntervalSet(value.Ival(lo, hi), value.Ival(lo2, hi2))))
			}
		}
		rel.Rows = append(rel.Rows, row)
		rel.Total += row.Count
	}
	cols[pk].PrimaryKey, cols[pk].DomainHi = true, max(rel.Total, 1)
	s := &schema.Schema{Tables: []*schema.Table{{Name: "z", RowCount: rel.Total, Columns: cols}}}
	return &Summary{Schema: s, Relations: map[string]*synopsis.Relation{"z": rel}}
}

// fuzzTopKQuery draws a top-K over z from in: no filter, a primary-key
// window or a value filter; one to three sort keys in either direction;
// and a LIMIT up to a few rows past the table with an OFFSET.
func fuzzTopKQuery(in *fuzzBytes, sum *Summary) string {
	t := sum.Schema.Tables[0]
	width, total, pk := len(t.Columns), int(sum.Relations["z"].Total), t.PKIndex()
	where := ""
	switch in.next(3) {
	case 1:
		lo := in.next(total + 1)
		where = fmt.Sprintf(" WHERE z.c%d >= %d AND z.c%d < %d", pk, lo, pk, lo+1+in.next(total+1))
	case 2:
		where = fmt.Sprintf(" WHERE z.c%d >= %d", in.next(width), in.next(12))
	}
	var keys []string
	for k := 1 + in.next(3); k > 0; k-- {
		keys = append(keys, fmt.Sprintf("z.c%d", in.next(width))+[]string{"", " DESC"}[in.next(2)])
	}
	return fmt.Sprintf("SELECT * FROM z%s ORDER BY %s LIMIT %d OFFSET %d", where, strings.Join(keys, ", "), 1+in.next(total+4), in.next(4))
}

// FuzzTopK holds a random top-K over a random small summary to the
// materialized database on every entry point and worker count at a
// three-row batch: the late sort where the query qualifies, the collecting
// one where it does not.
func FuzzTopK(f *testing.F) {
	// Seeds: sixty-four pseudo-random bytes each, enough to draw every
	// part of a summary and a query.
	for seed := range int64(8) {
		data := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		sum := fuzzTopKSummary(&in)
		if err := sum.Validate(); err != nil {
			t.Fatalf("drawn summary invalid: %v", err)
		}
		sql := fuzzTopKQuery(&in, sum)
		db, mat := Regen(sum, 0), mustMaterialize(t, sum)
		want := oracle(t, mat, sql, 64)
		eachFront(t, db, sql, ExecOptions{SampleLimit: 64, BatchSize: 3}, func(label string, res *ExecResult) {
			sameValues(t, label, res, want)
		})
	})
}
