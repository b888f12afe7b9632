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
	for name, rel := range sum.Relations {
		tbl := db.Schema.Table(name)
		if rel.Total != tbl.RowCount {
			t.Errorf("%s total = %d, want %d", name, rel.Total, tbl.RowCount)
		}
		if rel.ClampedRows != 0 {
			t.Errorf("%s clamped %d rows", name, rel.ClampedRows)
		}
	}
}

func TestSummaryRowsSumToTotal(t *testing.T) {
	_, sum, _ := buildToy(t)
	for name, rel := range sum.Relations {
		var n int64
		for _, row := range rel.Rows {
			n += row.Count
		}
		if n != rel.Total {
			t.Errorf("%s rows sum %d != total %d", name, n, rel.Total)
		}
		// The alignment index covers [0, Total) exactly once.
		var pk int64
		for _, atom := range rel.Atoms {
			for _, iv := range atom.PK {
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

func TestJSONRoundTripAndSize(t *testing.T) {
	_, sum, _ := buildToy(t)
	var jbuf bytes.Buffer
	if err := sum.EncodeJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&jbuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("JSON round trip invalid: %v", err)
	}
	if back.Relations["r"].Total != sum.Relations["r"].Total {
		t.Error("JSON round trip lost totals")
	}

	n, err := sum.Size()
	if err != nil || n <= 0 {
		t.Errorf("Size = %d, %v", n, err)
	}
	if n > 1<<20 {
		t.Errorf("toy summary is %d bytes — not minuscule", n)
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
