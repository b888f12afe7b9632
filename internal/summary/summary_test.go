package summary

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/aqp"
	"repro/internal/engine"
	"repro/internal/preprocess"
	"repro/internal/sqlkit"
	"repro/internal/toy"
	"repro/internal/value"
)

func buildToy(t *testing.T) (*engine.Database, *Database, *BuildReport) {
	t.Helper()
	db, err := toy.Database(11)
	if err != nil {
		t.Fatal(err)
	}
	sum, rep, err := Build(db.Schema, toyWorkload(t, db, toy.Workload()), DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db, sum, rep
}

// toyWorkload captures the queries' AQPs on db and extracts their workload.
func toyWorkload(t *testing.T, db *engine.Database, sqls []string) *preprocess.Workload {
	t.Helper()
	var aqps []*aqp.AQP
	for _, sql := range sqls {
		q, err := sqlkit.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.BuildPlan(db.Schema, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.ExecuteContext(context.Background(), db, plan, engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		aqps = append(aqps, &aqp.AQP{SQL: sql, Plan: aqp.FromExec(res.Root)})
	}
	w, err := preprocess.Extract(db.Schema, aqps)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPreferIsReferencedUnion: two joins reference the overlapping s
// regions a < 50 and 20 <= a < 60. s is referenced, so it is one group,
// whose axis a is cut at 20, 50 and 60 into four atoms; Prefer lists the
// three inside either region — the sorted union, the overlap once — and
// leaves out the one above 60.
func TestPreferIsReferencedUnion(t *testing.T) {
	db, err := toy.Database(11)
	if err != nil {
		t.Fatal(err)
	}
	w := toyWorkload(t, db, []string{
		"SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a < 50",
		"SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 60",
	})
	if n := len(w.Referenced["s"]); n != 2 {
		t.Fatalf("%d referenced s regions, want 2", n)
	}
	rb, err := prepareRelation(db.Schema.Table("s"), db.Schema, w, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.groups) != 1 || len(rb.groups[0].atoms) != 4 {
		t.Fatalf("s: %d groups, want 1 of 4 atoms", len(rb.groups))
	}
	g := rb.groups[0]
	var want []int
	for ai, atom := range g.atoms {
		if atom.Rep[0].Hi <= 60 {
			want = append(want, ai)
		}
	}
	if len(want) != 3 || !reflect.DeepEqual(g.sys.Prefer, want) {
		t.Errorf("Prefer = %v, want the atoms below a = 60, ascending: %v (atoms %+v)", g.sys.Prefer, want, g.atoms)
	}
}

func TestBuildToyExact(t *testing.T) {
	db, sum, rep := buildToy(t)
	if err := sum.Validate(); err != nil {
		t.Fatalf("summary invalid: %v", err)
	}
	for _, rr := range rep.Relations {
		if rr.SumAbsResidual != 0 {
			t.Errorf("%s residuals: %v", rr.Table, rr.Residuals)
		}
	}
	if n := rep.TotalClampedRows(); n != 0 {
		t.Errorf("clamped %d rows", n)
	}
	for name, rel := range sum.Relations {
		tbl := db.Schema.Table(name)
		if rel.Total != tbl.RowCount {
			t.Errorf("%s total = %d, want %d", name, rel.Total, tbl.RowCount)
		}
	}
}

func TestSummaryRowsSumToTotal(t *testing.T) {
	db, err := toy.Database(11)
	if err != nil {
		t.Fatal(err)
	}
	sum, _, builds, err := build(db.Schema, toyWorkload(t, db, toy.Workload()), DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, rel := range sum.Relations {
		var n int64
		for _, row := range rel.Rows {
			n += row.Count
		}
		if n != rel.Total {
			t.Errorf("%s rows sum %d != total %d", name, n, rel.Total)
		}
		// The builder's alignment index covers [0, Total) exactly once,
		// one entry per summary row.
		rb := builds[name]
		if len(rb.pks) != len(rel.Rows) {
			t.Errorf("%s alignment index has %d entries for %d rows", name, len(rb.pks), len(rel.Rows))
		}
		var pk int64
		for _, set := range rb.pks {
			for _, iv := range set {
				if iv.Lo != pk {
					t.Errorf("%s alignment gap at %d", name, pk)
				}
				pk = iv.Hi
			}
		}
		if pk != rel.Total {
			t.Errorf("%s alignment covers %d of %d", name, pk, rel.Total)
		}
	}
}

func TestFKSpecsWithinReferencedRange(t *testing.T) {
	_, sum, _ := buildToy(t)
	rel := sum.Relations["r"]
	tbl := sum.Schema.Table("r")
	for _, row := range rel.Rows {
		for _, sp := range row.Specs {
			col := tbl.Columns[sp.Col]
			if col.Ref == nil {
				continue
			}
			refTotal := sum.Relations[col.Ref.Table].Total
			set := sp.Set
			if sp.Fixed != nil {
				set = value.NewIntervalSet(value.Point(*sp.Fixed))
			}
			for _, iv := range set {
				if iv.Lo < 0 || iv.Hi > refTotal {
					t.Errorf("fk spec %v exceeds [0,%d)", set, refTotal)
				}
			}
		}
	}
}

// TestCodecRoundTrip: EncodeJSON is lossless and deterministic, and Size
// is its length — on the toy summary, on TPC-DS sf 1 (full mode), and on a
// hand-made relation whose column is fixed at code 0, the value a codec
// that omits zero values would lose.
func TestCodecRoundTrip(t *testing.T) {
	_, toySum, _ := buildToy(t)
	fixed0 := &Database{Schema: toySum.Schema, Relations: map[string]*Relation{
		"s": {Table: "s", Total: 3, Rows: []Row{
			{Count: 2, Specs: []ColSpec{FixedSpec(1, 0)}},
			{Count: 1, Specs: []ColSpec{SetSpec(1, value.NewIntervalSet(value.Ival(0, 4)))}},
		}},
	}}
	if err := fixed0.Validate(); err != nil {
		t.Fatalf("hand-made summary invalid: %v", err)
	}
	cases := []struct {
		name string
		sum  func(*testing.T) *Database
	}{
		{"toy", func(*testing.T) *Database { return toySum }},
		{"fixed0", func(*testing.T) *Database { return fixed0 }},
		{"tpcds-sf1", func(t *testing.T) *Database {
			if testing.Short() {
				t.Skip("sf 1 capture")
			}
			sum, _ := buildTPCDS(t, 1)
			return sum
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := tc.sum(t)
			var a, b bytes.Buffer
			if err := sum.EncodeJSON(&a); err != nil {
				t.Fatal(err)
			}
			if err := sum.EncodeJSON(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Error("two encodings differ")
			}
			n, err := sum.Size()
			if err != nil || n != a.Len() {
				t.Errorf("Size = %d, %v; the encoding is %d bytes", n, err, a.Len())
			}
			back, err := DecodeJSON(&a)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, sum) {
				t.Error("decoded summary differs from the encoded one")
			}
		})
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	_, sum, _ := buildToy(t)
	sum.Relations["r"].Rows[0].Count = -1
	if err := sum.Validate(); err == nil {
		t.Error("negative count accepted")
	}
	_, sum, _ = buildToy(t)
	sum.Relations["r"].Total++
	if err := sum.Validate(); err == nil {
		t.Error("total mismatch accepted")
	}
	_, sum, _ = buildToy(t)
	sum.Relations["ghost"] = &Relation{Table: "ghost"}
	if err := sum.Validate(); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestForceTotal(t *testing.T) {
	counts := []int64{5, 10, 2}
	forceTotal(counts, 20)
	if counts[0]+counts[1]+counts[2] != 20 {
		t.Errorf("forceTotal add: %v", counts)
	}
	forceTotal(counts, 4)
	if counts[0]+counts[1]+counts[2] != 4 {
		t.Errorf("forceTotal remove: %v", counts)
	}
	zero := []int64{0, 0}
	forceTotal(zero, 0)
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("forceTotal zero: %v", zero)
	}
}

func TestPKPredicateRejected(t *testing.T) {
	db, err := toy.Database(11)
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT COUNT(*) FROM s WHERE s_pk < 10"
	q, _ := sqlkit.Parse(sql)
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ExecuteContext(context.Background(), db, plan, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := preprocess.Extract(db.Schema, []*aqp.AQP{{SQL: sql, Plan: aqp.FromExec(res.Root)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Build(db.Schema, w, DefaultBuildOptions()); err == nil {
		t.Error("primary-key predicate accepted")
	}
}
