package hydra

// Cross-front parity for the summary-direct aggregate fast path: every
// entry point at every worker count (eachFront) must return results
// byte-identical to the materialized database's answer on the same query,
// whether the summary or the pipeline answered. The suite runs the
// toy and TPC-DS-like workloads plus targeted probes for the arithmetic
// edge cases (boundary-straddling predicates, empty matches, GROUP BY keys
// drawn from cycling sets), and asserts that the fast path actually claims
// a healthy share of eligible queries — guarding against a regression that
// silently falls back everywhere while parity keeps passing.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/toy"
	"repro/internal/tpcds"
)

// saggProbes stresses the evaluator's interval arithmetic on the toy
// schema: summary rows built from real captures have boundary values near
// 20/40/60, so the off-by-one windows below straddle set boundaries.
var saggProbes = []string{
	"SELECT COUNT(*) FROM s",
	"SELECT COUNT(*) FROM s WHERE s.a >= 19 AND s.a < 61",
	"SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60",
	"SELECT COUNT(*) FROM s WHERE s.a >= 21 AND s.a < 59",
	"SELECT COUNT(*) FROM s WHERE s.a >= 1000",
	"SELECT COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s",
	"SELECT COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.b >= 35 AND s.b < 65",
	"SELECT s.a, COUNT(*) FROM s GROUP BY s.a",
	"SELECT s.a, COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.a < 60 GROUP BY s.a",
	"SELECT s.b, COUNT(*), SUM(s.a) FROM s WHERE s.b >= 30 GROUP BY s.b",
	"SELECT DISTINCT s.a FROM s",
	"SELECT DISTINCT s.a FROM s WHERE s.a >= 19 AND s.a < 41",
	"SELECT r.s_fk, COUNT(*) FROM r WHERE r.s_fk < 40 GROUP BY r.s_fk",
	"SELECT COUNT(*), SUM(t.c) FROM t WHERE t.c < 5",
}

// summaryAggFronts runs sql on every entry point of the dataless db under
// the default regime and compares each against the materialized database
// mat (oracle). Returns whether the summary answered (it must answer
// uniformly: every entry point or none).
func summaryAggFronts(t *testing.T, db, mat *Database, sql string) bool {
	t.Helper()
	want := oracle(t, mat, sql, 8)
	path := ""
	eachFront(t, db, sql, ExecOptions{SampleLimit: 8}, func(label string, res *ExecResult) {
		sameValues(t, label, res, want)
		if path == "" {
			path = res.Path
		}
		if res.Path != path {
			t.Errorf("%s: path %q disagrees with the first entry point's %q", label, res.Path, path)
		}
	})
	return path == engine.PathSummary
}

func TestSummaryAggParityToy(t *testing.T) {
	sum := toySummary(t)
	db := core.RegenDatabase(sum, 0)
	mat := mustMaterialize(t, sum)
	queries := append(append(toy.Workload(), toy.GroupWorkload()...), toy.SortWorkload()...)
	fast := 0
	for _, sql := range append(queries, saggProbes...) {
		if summaryAggFronts(t, db, mat, sql) {
			fast++
		}
	}
	// Eligibility is a property of the workload, so pin a floor rather than
	// an exact count: the probes alone contribute 14 eligible queries.
	if fast < 14 {
		t.Fatalf("summary-direct path answered only %d queries; the fast path has regressed", fast)
	}
}

func TestSummaryAggParityTPCDS(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload parity")
	}
	s := tpcds.Schema(0.25)
	db, err := tpcds.GenerateDatabase(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries := tpcds.Workload(40, 11)
	pkg, err := core.CaptureClient(db, queries, core.CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := Build(pkg, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	regen := core.RegenDatabase(sum, 0)
	mat := mustMaterialize(t, sum)
	fast := 0
	all := append(append(queries, tpcds.GroupWorkload()...), tpcds.SortWorkload()...)
	for _, sql := range all {
		if summaryAggFronts(t, regen, mat, sql) {
			fast++
		}
	}
	if fast == 0 {
		t.Fatal("summary-direct path answered no TPC-DS queries; the fast path has regressed")
	}
}

// fuzzSummaryAggSummary draws z as fuzzTopKSummary does, then may move one
// column's Fixed values next to MaxInt64, so that a SUM or AVG over two of
// its tuples overflows while MIN, MAX and COUNT still answer.
func fuzzSummaryAggSummary(in *fuzzBytes) *Summary {
	sum := fuzzTopKSummary(in)
	t := sum.Schema.Tables[0]
	if c := in.next(len(t.Columns) + 1); c < len(t.Columns) {
		for _, row := range sum.Relations["z"].Rows {
			if sp := row.Spec(c, t.PKIndex()); sp != nil && sp.Fixed != nil {
				*sp.Fixed = math.MaxInt64 - int64(in.next(3))
			}
		}
	}
	return sum
}

// fuzzSummaryAggQuery draws an aggregate over z from in: global, grouped by
// one column or DISTINCT over it; one to three of COUNT(*), COUNT, SUM,
// MIN, MAX and AVG over any column, the primary key included; and no
// filter, an interval on one column or a primary-key window.
func fuzzSummaryAggQuery(in *fuzzBytes, sum *Summary) string {
	t := sum.Schema.Tables[0]
	width, total, pk := len(t.Columns), int(sum.Relations["z"].Total), t.PKIndex()
	mode, key := in.next(3), in.next(width)
	var aggs []string
	for k := 1 + in.next(3); k > 0; k-- {
		fn, arg := []string{"COUNT", "SUM", "MIN", "MAX", "AVG"}[in.next(5)], fmt.Sprintf("z.c%d", in.next(width))
		if fn == "COUNT" && in.next(2) == 0 {
			arg = "*"
		}
		aggs = append(aggs, fn+"("+arg+")")
	}
	where := ""
	switch in.next(3) {
	case 1:
		lo := in.next(total + 1)
		where = fmt.Sprintf(" WHERE z.c%d >= %d AND z.c%d < %d", pk, lo, pk, lo+1+in.next(total+1))
	case 2:
		c, lo := in.next(width), in.next(12)
		where = fmt.Sprintf(" WHERE z.c%d >= %d AND z.c%d < %d", c, lo, c, lo+1+in.next(8))
	}
	switch mode {
	case 1:
		return fmt.Sprintf("SELECT z.c%d, %s FROM z%s GROUP BY z.c%d", key, strings.Join(aggs, ", "), where, key)
	case 2:
		return fmt.Sprintf("SELECT DISTINCT z.c%d FROM z%s", key, where)
	}
	return fmt.Sprintf("SELECT %s FROM z%s", strings.Join(aggs, ", "), where)
}

// summaryAggZ draws, through fuzzTopKSummary, z(c0 pk, c1, c2) over five
// rows: 7 tuples with c1 cycling {1,2,3,6,7} and c2 = 5; 8 tuples with c1
// cycling {3,4,6,7,8} and c2 = 2; 0 tuples; 3 tuples with c1 = 4 and c2
// cycling {5}; 2 tuples with c1 cycling {2,3,4,5} (no full cycle) and
// c2 = 3. The long cycles end part-way through their row. Then
// fuzzSummaryAggSummary reads zPlain (no column moves) or zNearMax (c2's
// Fixed values become MaxInt64, MaxInt64-1 and MaxInt64-2).
var (
	summaryAggZ = []byte{
		1, 0, 4,
		7, 0, 2, 1, 2, 1, 2, 1, 5,
		8, 0, 2, 3, 1, 0, 3, 1, 2,
		0, 0, 1, 4, 0,
		3, 0, 1, 4, 2, 5, 0, 0, 0,
		2, 0, 2, 2, 3, 0, 0, 1, 3,
	}
	zPlain   = []byte{3}
	zNearMax = []byte{2, 0, 1, 2}
)

// summaryAggSeeds are FuzzSummaryAgg's hand-drawn seeds, one per way an
// aggregate input contributes to a summary-direct answer; each must reach
// the summary path, or (overflow) fail with ErrAggOverflow.
var summaryAggSeeds = []struct {
	name     string
	data     []byte
	overflow bool
}{
	// SELECT SUM(z.c2), MIN(z.c2) FROM z
	{"fixed input", slices.Concat(summaryAggZ, zPlain, []byte{0, 0, 1, 1, 2, 2, 2, 0}), false},
	// SELECT COUNT(*), SUM(z.c1), MAX(z.c1) FROM z WHERE z.c1 >= 2 AND z.c1 < 7
	{"driver input", slices.Concat(summaryAggZ, zPlain, []byte{0, 0, 2, 0, 0, 0, 1, 1, 3, 1, 2, 1, 2, 4}), false},
	// SELECT MIN(z.c1), SUM(z.c1), AVG(z.c1) FROM z
	{"no-driver cycling input", slices.Concat(summaryAggZ, zPlain, []byte{0, 0, 2, 2, 1, 1, 1, 4, 1, 0}), false},
	// SELECT COUNT(*), SUM(z.c0), MIN(z.c0) FROM z WHERE z.c0 >= 3 AND z.c0 < 16
	{"pk input", slices.Concat(summaryAggZ, zPlain, []byte{0, 0, 2, 0, 0, 0, 1, 0, 2, 0, 1, 3, 12}), false},
	// SELECT z.c1, COUNT(*), SUM(z.c1), MAX(z.c2) FROM z GROUP BY z.c1
	{"enumerated key", slices.Concat(summaryAggZ, zPlain, []byte{1, 1, 2, 0, 0, 0, 1, 1, 3, 2, 0}), false},
	// SELECT DISTINCT z.c1 FROM z WHERE z.c1 >= 2 AND z.c1 < 7
	{"enumerated key under a filter", slices.Concat(summaryAggZ, zPlain, []byte{2, 1, 0, 1, 1, 2, 1, 2, 4}), false},
	// SELECT MIN(z.c2), MAX(z.c2), COUNT(z.c2) FROM z
	{"fixed input near MaxInt64", slices.Concat(summaryAggZ, zNearMax, []byte{0, 0, 2, 2, 2, 3, 2, 0, 2, 1, 0}), false},
	// SELECT z.c2, COUNT(*), MAX(z.c2), AVG(z.c2) FROM z GROUP BY z.c2
	{"overflow", slices.Concat(summaryAggZ, zNearMax, []byte{1, 2, 2, 0, 0, 0, 3, 2, 4, 2, 0}), true},
}

// FuzzSummaryAgg holds a random aggregate over a random small summary,
// answered under the default regime (summary-direct wherever provable),
// to the materialized database, ErrAggOverflow included: ad hoc, and twice
// on one reused state.
func FuzzSummaryAgg(f *testing.F) {
	for _, seed := range summaryAggSeeds {
		in := fuzzBytes(seed.data)
		sum := fuzzSummaryAggSummary(&in)
		sql := fuzzSummaryAggQuery(&in, sum)
		res, err := Query(Regen(sum, 0), sql, ExecOptions{})
		if seed.overflow && !errors.Is(err, engine.ErrAggOverflow) || !seed.overflow && (err != nil || res.Path != PathSummary) {
			f.Fatalf("seed %q: %s answered (%v, %v), want the summary path (overflow %v)", seed.name, sql, res, err, seed.overflow)
		}
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		sum := fuzzSummaryAggSummary(&in)
		if err := sum.Validate(); err != nil {
			t.Fatalf("drawn summary invalid: %v", err)
		}
		sql := fuzzSummaryAggQuery(&in, sum)
		opts := ExecOptions{SampleLimit: 64}
		want, wantErr := Query(mustMaterialize(t, sum), sql, ExecOptions{Regime: engine.PathRegen, SampleLimit: 64})
		db := Regen(sum, 0)
		prep, err := Prepare(db, sql, opts)
		if err != nil {
			t.Fatalf("%s [Prepare]: %v", sql, err)
		}
		var st ExecState
		for i := range 3 {
			var got *ExecResult
			if i == 0 {
				got, err = Query(db, sql, opts)
			} else {
				got, err = prep.ExecuteIn(&st, opts)
			}
			label := fmt.Sprintf("%s [run %d]", sql, i)
			switch {
			case wantErr != nil || err != nil:
				if !errors.Is(wantErr, engine.ErrAggOverflow) || !errors.Is(err, engine.ErrAggOverflow) {
					t.Fatalf("%s: error %v, want %v", label, err, wantErr)
				}
			default:
				sameValues(t, label+" path "+got.Path, got, want)
			}
		}
	})
}
