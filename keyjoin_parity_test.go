package hydra

// In-place key joins: a join whose build side has at most one match per
// probe key — a positional build, or a hash build whose keys turned out
// unique — runs in its probe's batch, narrowing the selection to the rows
// whose key matches and reading the build columns into them. Every entry
// point, batch size and worker count must return what the materialized
// database returns, over every kind of table the build and the probe can
// be (summary-backed, stored, datagen, paced) and under the regen ceiling,
// where every build is a hash build; joins whose build keys repeat stay
// pair joins and must agree as well.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/synopsis"
	"repro/internal/toy"
	"repro/internal/value"
)

// tableRows reads every tuple of the summary's table, in generation order.
func tableRows(sum *Summary, table string) [][]int64 {
	w := len(sum.Schema.Table(table).Columns)
	rd := Rows(Stream(sum, table), NewColBatch(w, 0))
	var out [][]int64
	for row, ok := rd.Next(); ok; row, ok = rd.Next() {
		out = append(out, append([]int64(nil), row...))
	}
	return out
}

// sliceRows is a caller's row producer over fixed tuples.
type sliceRows struct {
	rows [][]int64
	i    int
}

func (s *sliceRows) Next() ([]int64, bool) {
	if s.i >= len(s.rows) {
		return nil, false
	}
	s.i++
	return s.rows[s.i-1], true
}

// keyJoinDBs is every way a table of sum can be served, each with the
// regime ceiling it runs under: summary-backed (positional builds, pruned
// scans), the same under the regen ceiling (unique hash builds), stored,
// caller-supplied datagen (batch.FromRows, which checks each row against
// its table's width) and paced.
func keyJoinDBs(t *testing.T, sum *Summary) map[string]struct {
	db     *Database
	regime string
} {
	t.Helper()
	datagen := Regen(sum, 0)
	for _, tab := range sum.Schema.Tables {
		rows := tableRows(sum, tab.Name)
		datagen.SetDatagen(tab.Name, func() (ColProjector, error) { return FromRows(&sliceRows{rows: rows}), nil })
	}
	regen := Regen(sum, 0)
	return map[string]struct {
		db     *Database
		regime string
	}{
		"summary": {regen, ""},
		"regen":   {regen, engine.PathRegen},
		"stored":  {mustMaterialize(t, sum), ""},
		"datagen": {datagen, ""},
		"paced":   {Regen(sum, 1e9), ""},
	}
}

// keyJoinFronts runs each query through every entry point at batch sizes
// 1, 3 and the default, sampled, on every keyJoinDBs database, and holds
// each answer to the materialized database's.
func keyJoinFronts(t *testing.T, sum *Summary, sqls []string) {
	t.Helper()
	mat := mustMaterialize(t, sum)
	for name, d := range keyJoinDBs(t, sum) {
		for _, sql := range sqls {
			want := oracle(t, mat, sql, 60)
			for _, size := range []int{1, 3, 0} {
				eachFront(t, d.db, sql, ExecOptions{SampleLimit: 60, BatchSize: size, Regime: d.regime}, func(label string, res *ExecResult) {
					sameValues(t, name+" "+label, res, want)
				})
			}
		}
	}
}

// TestKeyJoinParityEdges covers the in-place join's shapes on the edge
// summary's f ⋈ d, whose foreign keys fall below 0 and past d's last key:
// a bare dimension; absorbed and residual dimension filters; one no
// dimension tuple passes and one no probe key passes, so every probe batch
// misses; a residual filter under the probe; the grouped (R1) and counted
// (R5) shapes; and the reverse join, whose build keys repeat, which stays
// a pair join.
func TestKeyJoinParityEdges(t *testing.T) {
	join := " FROM f, d WHERE f.d_fk = d.d_pk"
	keyJoinFronts(t, edgeStarSummary(), []string{
		"SELECT *" + join,
		"SELECT *" + join + " AND d.x >= 1 AND d.x < 2",
		"SELECT *" + join + " AND d.x >= 2 AND d.y >= 3",
		"SELECT *" + join + " AND d.x >= 5",
		"SELECT *" + join + " AND f.d_fk < 0",
		"SELECT *" + join + " AND f.d_fk >= 2 AND f.v >= 1",
		"SELECT d.y, COUNT(*), SUM(d.x), SUM(f.v)" + join + " GROUP BY d.y",
		"SELECT COUNT(*)" + join + " AND d.x >= 1",
		"SELECT * FROM d, f WHERE d.d_pk = f.d_fk",
		"SELECT COUNT(*) FROM d, f WHERE d.d_pk = f.d_fk AND d.x >= 1",
	})
}

// TestKeyJoinParityTwoJoins covers spines of two joins on the toy summary:
// the R4 shape, two key joins sharing the scan's batch, counted and
// sampled; an in-place join over a pair join (s ⋈ r repeats keys, r ⋈ t
// does not); and the grouped R1 shape.
func TestKeyJoinParityTwoJoins(t *testing.T) {
	keyJoinFronts(t, toySummary(t), []string{
		toy.Query,
		"SELECT COUNT(*) FROM r, s, t WHERE r.s_fk = s.s_pk AND r.t_fk = t.t_pk AND s.a >= 20 AND t.c >= 2",
		"SELECT * FROM s, r, t WHERE s.s_pk = r.s_fk AND r.t_fk = t.t_pk AND s.a < 22",
		"SELECT COUNT(*) FROM s, r, t WHERE s.s_pk = r.s_fk AND r.t_fk = t.t_pk AND s.a < 40",
		"SELECT s.b, COUNT(*), SUM(r.r_pk) FROM r, s WHERE r.s_fk = s.s_pk GROUP BY s.b",
	})
}

// fuzzKeyJoinSummary draws a star of two tables from in: a dimension d
// (d_pk, x, y) and a fact f (f_pk, d_fk, v) referencing it, one to four
// summary rows each of zero to six (d) or ten (f) tuples, x, y and v
// unspecced, Fixed or cycling over two intervals, and d_fk unspecced,
// Fixed or cycling over two intervals reaching below 0 and past d's last
// key — cycles that rarely fit their row's count, so they straddle rows.
func fuzzKeyJoinSummary(in *fuzzBytes) *Summary {
	spec := func(c int, lo int64) (synopsis.ColSpec, bool) {
		switch in.next(3) {
		case 1:
			return synopsis.FixedSpec(c, lo+int64(in.next(8))), true
		case 2:
			a := lo + int64(in.next(8))
			b := a + 1 + int64(in.next(4))
			c2 := b + 1 + int64(in.next(3))
			return synopsis.SetSpec(c, value.NewIntervalSet(value.Ival(a, b), value.Ival(c2, c2+1+int64(in.next(4))))), true
		}
		return synopsis.ColSpec{}, false
	}
	draw := func(name string, maxCount int, lo [3]int64) *synopsis.Relation {
		rel := &synopsis.Relation{Table: name}
		for r := 1 + in.next(4); r > 0; r-- {
			row := synopsis.Row{Count: int64(in.next(maxCount + 1))}
			for c := 1; c < 3; c++ {
				if sp, ok := spec(c, lo[c]); ok {
					row.Specs = append(row.Specs, sp)
				}
			}
			rel.Rows = append(rel.Rows, row)
			rel.Total += row.Count
		}
		return rel
	}
	d := draw("d", 6, [3]int64{0, 0, 0})
	f := draw("f", 10, [3]int64{0, -3, 0})
	col := func(name string, pk bool) *schema.Column {
		return &schema.Column{Name: name, Type: schema.Int, PrimaryKey: pk, DomainLo: -8, DomainHi: 64}
	}
	fk := col("d_fk", false)
	fk.Ref = &schema.ForeignKey{Table: "d", Column: "d_pk"}
	s := &schema.Schema{Tables: []*schema.Table{
		{Name: "d", RowCount: d.Total, Columns: []*schema.Column{col("d_pk", true), col("x", false), col("y", false)}},
		{Name: "f", RowCount: f.Total, Columns: []*schema.Column{col("f_pk", true), fk, col("v", false)}},
	}}
	return &Summary{Schema: s, Relations: map[string]*synopsis.Relation{"d": d, "f": f}}
}

// fuzzKeyJoinQuery draws f ⋈ d from in: whole rows or a count; no
// dimension filter, a one-column one (which pruning absorbs) or a
// two-column one (residual); and maybe a filter on the probe. keep is the
// same predicate over a joined row (f's columns, then d's).
func fuzzKeyJoinQuery(in *fuzzBytes) (sql string, count bool, keep func([]int64) bool) {
	var where string
	var preds []func([]int64) bool
	switch lo, hi, y := int64(in.next(8)), int64(in.next(10)), int64(in.next(8)); in.next(3) {
	case 1:
		where += fmt.Sprintf(" AND d.x >= %d AND d.x < %d", lo, hi)
		preds = append(preds, func(r []int64) bool { return r[4] >= lo && r[4] < hi })
	case 2:
		where += fmt.Sprintf(" AND d.x >= %d AND d.y >= %d", lo, y)
		preds = append(preds, func(r []int64) bool { return r[4] >= lo && r[5] >= y })
	}
	if v := int64(in.next(6)); in.next(2) == 1 {
		where += fmt.Sprintf(" AND f.v >= %d", v)
		preds = append(preds, func(r []int64) bool { return r[2] >= v })
	}
	count = in.next(2) == 1
	items := "*"
	if count {
		items = "COUNT(*)"
	}
	return "SELECT " + items + " FROM f, d WHERE f.d_fk = d.d_pk" + where, count, func(r []int64) bool {
		for _, p := range preds {
			if !p(r) {
				return false
			}
		}
		return true
	}
}

// FuzzKeyJoin holds a random key join over a random small star to the
// definitional nested loop over the materialized tuples, and every entry
// point and worker count — positional on the summary, a unique-key hash
// build under the regen ceiling — at a drawn batch size to the
// materialized database's answer.
func FuzzKeyJoin(f *testing.F) {
	for seed := range int64(8) {
		data := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		sum := fuzzKeyJoinSummary(&in)
		if err := sum.Validate(); err != nil {
			t.Fatalf("drawn summary invalid: %v", err)
		}
		sql, count, keep := fuzzKeyJoinQuery(&in)
		size := in.next(5)
		var joined [][]int64
		dims := tableRows(sum, "d")
		for _, fr := range tableRows(sum, "f") {
			for _, dr := range dims {
				if row := append(append([]int64(nil), fr...), dr...); fr[1] == dr[0] && keep(row) {
					joined = append(joined, row)
				}
			}
		}
		want := oracle(t, mustMaterialize(t, sum), sql, 100)
		if count && want.Count != int64(len(joined)) || !count && !reflect.DeepEqual(want.Sample, joined) {
			t.Fatalf("%s: materialized answer %d/%v, nested loop %v", sql, want.Count, want.Sample, joined)
		}
		db := Regen(sum, 0)
		for _, regime := range []string{"", engine.PathRegen} {
			eachFront(t, db, sql, ExecOptions{SampleLimit: 100, BatchSize: size, Regime: regime}, func(label string, res *ExecResult) {
				sameValues(t, label, res, want)
			})
		}
	})
}
