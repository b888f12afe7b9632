package engine

// Tests for the summary-direct aggregate fast path against a hand-built
// summary whose rows exercise every classification: full-cycle rows,
// boundary-straddling predicates on cycling sets, empty-match rows, group
// keys drawn from cycling sets, the synthesized primary-key range, and
// non-provable rows (two independently restricted cycling columns) that
// force exact fallback. Each query runs
// fast-path and regenerating, byte-identical (reflect.DeepEqual on rows,
// count, and sample).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/batch"
	"repro/internal/generator"
	"repro/internal/schema"
	"repro/internal/sqlkit"
	"repro/internal/synopsis"
	"repro/internal/value"
)

// saggSchema is one table m(pk, a, b) with pk auto-numbered.
func saggSchema() *schema.Schema {
	return &schema.Schema{Tables: []*schema.Table{{
		Name:     "m",
		RowCount: 22,
		Columns: []*schema.Column{
			{Name: "pk", Type: schema.Int, PrimaryKey: true, DomainLo: 0, DomainHi: 1000},
			{Name: "a", Type: schema.Int, DomainLo: 0, DomainHi: 1000},
			{Name: "b", Type: schema.Int, DomainLo: 0, DomainHi: 1000},
		},
	}}}
}

func set(ivs ...value.Interval) value.IntervalSet {
	return value.IntervalSet(ivs).Normalize()
}

// saggDB builds a dataless database over a crafted summary:
//
//	row 0: 10 tuples, a cycles [0,5) (2 full cycles), b fixed 7
//	row 1:  7 tuples, a cycles [10,13) (2 cycles + prefix 10), b fixed 9
//	row 2:  5 tuples, a fixed 2, b cycles [100,105) (1 full cycle)
//	row 3:  0 tuples (must contribute nothing)
func saggDB(t *testing.T) *Database {
	t.Helper()
	return saggDBRows(t, []synopsis.Row{
		{Count: 10, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, set(value.Ival(0, 5))), synopsis.FixedSpec(2, 7)}},
		{Count: 7, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, set(value.Ival(10, 13))), synopsis.FixedSpec(2, 9)}},
		{Count: 5, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 2), synopsis.SetSpec(2, set(value.Ival(100, 105)))}},
		{Count: 0, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 999)}},
	})
}

func saggDBRows(t *testing.T, rows []synopsis.Row) *Database {
	t.Helper()
	s := saggSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rows {
		total += r.Count
	}
	rel := &synopsis.Relation{Table: "m", Total: total, Rows: rows}
	if err := rel.Validate(s.Table("m")); err != nil {
		t.Fatal(err)
	}
	return saggRegister(s, rel)
}

// saggRegister opens a dataless database over rel as given, unvalidated.
func saggRegister(s *schema.Schema, rel *synopsis.Relation) *Database {
	db := NewDatabase(s)
	db.SetSummary("m", rel)
	return db
}

func saggExec(t *testing.T, db *Database, sql string, opts ExecOptions) *ExecResult {
	t.Helper()
	q, err := sqlkit.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := BuildPlan(db.Schema, q)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	res, err := execute(db, plan, opts)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// TestSummaryAggParityHandBuilt holds the fast path to byte-identical
// results with the regenerating pipeline over crafted summary rows, and
// pins which queries the fast path actually claims.
func TestSummaryAggParityHandBuilt(t *testing.T) {
	db := saggDB(t)
	cases := []struct {
		sql  string
		fast bool // must be answered summary-directly
	}{
		{"SELECT COUNT(*) FROM m", true},
		// Boundary-straddling: [2,11) clips row 0's cycle to {2,3,4}, row
		// 1's to {10}, and contains row 2's fixed a=2.
		{"SELECT COUNT(*) FROM m WHERE a >= 2 AND a < 11", true},
		// Empty match: no row's a reaches 50.
		{"SELECT COUNT(*) FROM m WHERE a >= 50", true},
		// The phase prefix matters: row 1 has 2 full cycles plus one extra
		// tuple at a=10, so a=10 counts 3 and a=11, a=12 count 2.
		{"SELECT a, COUNT(*) FROM m WHERE a >= 10 GROUP BY a", true},
		// Group keys from a cycling set, aggregates over the other column.
		{"SELECT a, COUNT(*), SUM(b), MIN(b), MAX(b), AVG(b) FROM m GROUP BY a", true},
		// Aggregate input is the driving predicate column (case B).
		{"SELECT COUNT(*), SUM(a), MIN(a), MAX(a), AVG(a) FROM m WHERE a >= 3", true},
		// Aggregate over an unconstrained cycling column (full-cycle math)
		// while the group key is fixed-or-cycling per row.
		{"SELECT COUNT(*), SUM(b) FROM m", true},
		// Predicate on the synthesized primary-key range.
		{"SELECT COUNT(*) FROM m WHERE pk >= 3 AND pk < 12", true},
		// A partial pk restriction selects an offset window, so cycling
		// aggregate inputs in the straddled row are position-coupled to it:
		// the proof declines and the query regenerates. Still exact.
		{"SELECT SUM(a), COUNT(*) FROM m WHERE pk < 11", false},
		// DISTINCT over a cycling column.
		{"SELECT DISTINCT a FROM m", true},
		{"SELECT DISTINCT b FROM m WHERE a < 3", true},
		// Two independently restricted cycling columns in one summary row
		// (row 2 under b; rows 0-1 under a): row 2 has a fixed, rows 0-1
		// have b fixed, so every row still resolves — this one stays fast.
		{"SELECT COUNT(*) FROM m WHERE a < 3 AND b < 102", true},
		// GROUP BY pk would enumerate one group per tuple: falls back.
		{"SELECT pk, COUNT(*) FROM m GROUP BY pk", false},
		// ORDER BY / LIMIT shapes never get a candidate.
		{"SELECT a, COUNT(*) FROM m GROUP BY a ORDER BY a DESC", false},
		{"SELECT COUNT(*) FROM m LIMIT 1", false},
	}
	for _, tc := range cases {
		want := saggExec(t, db, tc.sql, ExecOptions{SampleLimit: 30, Regime: PathPruned})
		got := saggExec(t, db, tc.sql, ExecOptions{SampleLimit: 30})
		if got.Rows != want.Rows || got.Count != want.Count || !reflect.DeepEqual(got.Sample, want.Sample) {
			t.Errorf("%s: fast path diverged:\n got %d/%d %v\nwant %d/%d %v",
				tc.sql, got.Rows, got.Count, got.Sample, want.Rows, want.Count, want.Sample)
			continue
		}
		if fast := got.Path == PathSummary; fast != tc.fast {
			t.Errorf("%s: Path = %q, want fast=%v", tc.sql, got.Path, tc.fast)
		}
		if want.Path == PathSummary {
			t.Errorf("%s: execution under the %q ceiling reported Path %q", tc.sql, PathPruned, want.Path)
		}
	}
}

// TestSummaryAggFallbackNonProvable pins that a summary row with two
// independently restricted cycling columns defeats the proof — the query
// falls back to the pruned pipeline and still answers exactly — while a
// single restricted cycling column over the same row stays summary-direct.
func TestSummaryAggFallbackNonProvable(t *testing.T) {
	// a cycles mod 4, b cycles mod 3 within one row: restricting both
	// couples the columns through tuple offsets, which per-column interval
	// arithmetic cannot express.
	db := saggDBRows(t, []synopsis.Row{
		{Count: 12, Specs: []synopsis.ColSpec{
			synopsis.SetSpec(1, set(value.Ival(0, 4))),
			synopsis.SetSpec(2, set(value.Ival(100, 103))),
		}},
	})
	saggCheckPaths(t, db)
}

// TestSummaryAggApprox pins that the shape approximate answering used to
// estimate — a coupled row beside a provable one — is answered exactly:
// one coupled row sends the global COUNT to the pruned pipeline, the
// single-column restriction stays summary-direct, and the grouped query
// over the coupled columns falls back as well. Every answer equals
// regeneration.
func TestSummaryAggApprox(t *testing.T) {
	db := saggDBRows(t, []synopsis.Row{
		{Count: 1200, Specs: []synopsis.ColSpec{
			synopsis.SetSpec(1, set(value.Ival(0, 4))),
			synopsis.SetSpec(2, set(value.Ival(100, 103))),
		}},
		{Count: 10, Specs: []synopsis.ColSpec{
			synopsis.SetSpec(1, set(value.Ival(0, 5))),
			synopsis.FixedSpec(2, 101),
		}},
	})
	saggCheckPaths(t, db)
	sql := "SELECT a, COUNT(*) FROM m WHERE b < 102 GROUP BY a"
	want := saggExec(t, db, sql, ExecOptions{SampleLimit: 30, Regime: PathRegen})
	got := saggExec(t, db, sql, ExecOptions{SampleLimit: 30})
	if got.Path == PathSummary {
		t.Errorf("grouped non-provable query was answered summary-directly")
	}
	if !reflect.DeepEqual(got.Sample, want.Sample) || got.Count != want.Count || got.Rows != want.Rows {
		t.Errorf("grouped query diverged from regeneration: %d/%d %v, want %d/%d %v",
			got.Rows, got.Count, got.Sample, want.Rows, want.Count, want.Sample)
	}
}

// saggCheckPaths runs the coupled two-column COUNT (a drives the scan, b
// stays residual: pruned) and the single-column COUNT (summary-direct) over
// db, holding each to its path and to regeneration's answer.
func saggCheckPaths(t *testing.T, db *Database) {
	t.Helper()
	for sql, path := range map[string]string{
		"SELECT COUNT(*) FROM m WHERE a < 2 AND b < 102": PathPruned,
		"SELECT COUNT(*) FROM m WHERE a < 2":             PathSummary,
	} {
		want := saggExec(t, db, sql, ExecOptions{Regime: PathRegen})
		got := saggExec(t, db, sql, ExecOptions{})
		if got.Path != path {
			t.Errorf("%s took path %q, want %q", sql, got.Path, path)
		}
		if got.Count != want.Count || got.Rows != want.Rows {
			t.Errorf("%s diverged from regeneration: %d/%d, want %d/%d", sql, got.Rows, got.Count, want.Rows, want.Count)
		}
	}
}

// TestSummaryAggHardSpecs pins both halves of the pathological-spec story.
// A spec on the auto-numbered primary key and duplicate specs for one
// column are rejected by Validate, so no summary file carries them. And an
// in-memory summary registered without validation is sound all the same:
// synopsis.Row.Spec resolves such rows one way (the key auto-numbers, the
// first spec wins), so the summary-direct, pruned and regenerating regimes
// all answer exactly what a database materialized from that summary does —
// there is nothing left to decline.
func TestSummaryAggHardSpecs(t *testing.T) {
	s := saggSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	tab := s.Table("m")
	for name, row := range map[string]synopsis.Row{
		// pk would be 42 five times over if the spec were honoured.
		"pk spec": {Count: 5, Specs: []synopsis.ColSpec{
			synopsis.FixedSpec(0, 42), synopsis.FixedSpec(1, 1),
		}},
		// a cycles 1,2,1,2,1 by the first spec; the second would make it 9.
		"duplicate spec": {Count: 5, Specs: []synopsis.ColSpec{
			synopsis.SetSpec(1, set(value.Ival(1, 3))), synopsis.FixedSpec(1, 9),
		}},
	} {
		rel := &synopsis.Relation{Table: "m", Total: row.Count, Rows: []synopsis.Row{row}}
		if err := rel.Validate(tab); err == nil {
			t.Errorf("%s: Validate accepted the summary", name)
		}

		db := saggRegister(s, rel)
		stored := &Relation{Table: tab}
		w := len(tab.Columns)
		src := batch.NewRowReader(generator.NewStream(tab, rel), batch.NewCol(w, 0, batch.AllCols(w)))
		for tup, ok := src.Next(); ok; tup, ok = src.Next() {
			if err := stored.Append(tup); err != nil {
				t.Fatal(err)
			}
		}
		mat := NewDatabase(s)
		if err := mat.AddRelation(stored); err != nil {
			t.Fatal(err)
		}

		for sql, direct := range map[string]bool{
			"SELECT COUNT(*), SUM(a) FROM m WHERE a >= 2":            true,
			"SELECT COUNT(*) FROM m WHERE pk >= 1 AND pk < 4":        true,
			"SELECT a, COUNT(*) FROM m WHERE pk < 42 GROUP BY a":     true,
			"SELECT * FROM m WHERE a >= 2 ORDER BY pk":               false,
			"SELECT * FROM m WHERE pk >= 1 AND pk < 4 ORDER BY pk":   false,
			"SELECT DISTINCT pk FROM m WHERE a < 2 ORDER BY pk DESC": false,
		} {
			want := saggExec(t, mat, sql, ExecOptions{SampleLimit: 30})
			for _, opts := range []ExecOptions{
				{}, {Regime: PathPruned}, {Regime: PathRegen}, {Parallelism: 2},
			} {
				opts.SampleLimit = 30
				got := saggExec(t, db, sql, opts)
				if got.Rows != want.Rows || got.Count != want.Count || !reflect.DeepEqual(got.Sample, want.Sample) {
					t.Errorf("%s: %s under %+v diverged from the materialized database:\n got %d/%d %v\nwant %d/%d %v",
						name, sql, opts, got.Rows, got.Count, got.Sample, want.Rows, want.Count, want.Sample)
				}
				// Summary-direct answers exactly the candidates, and only
				// under no ceiling; the regen ceiling prunes nothing.
				if (got.Path == PathSummary) != (direct && opts.Regime == "") ||
					opts.Regime == PathRegen && got.Path != PathRegen {
					t.Errorf("%s: %s under %+v: Path = %q (summary-direct candidate: %v)", name, sql, opts, got.Path, direct)
				}
			}
		}
	}
}

// TestSummaryAggCandidateShapes pins the reading's structural gate: only a
// COUNT(*), GROUP BY or DISTINCT root sink directly over one table's scan
// is answerable, and on saggDB, whose rows are all provably exact for these
// shapes, the reading answers exactly those plans and open drains their
// root with the summary-row evaluator.
func TestSummaryAggCandidateShapes(t *testing.T) {
	db := saggDB(t)
	for sql, want := range map[string]bool{
		"SELECT COUNT(*) FROM m":                          true,
		"SELECT COUNT(*) FROM m WHERE a < 3":              true,
		"SELECT a, COUNT(*) FROM m GROUP BY a":            true,
		"SELECT DISTINCT a FROM m":                        true,
		"SELECT a, COUNT(*) FROM m GROUP BY a ORDER BY a": false,
		"SELECT COUNT(*) FROM m LIMIT 1":                  false,
		"SELECT * FROM m":                                 false,
		"SELECT * FROM m WHERE a < 3":                     false,
	} {
		plan := mustPlan(t, db, sql)
		if got := answerable(plan.Root) != nil; got != want {
			t.Errorf("%s: answerable = %v, want %v", sql, got, want)
		}
		if got := buildPruneCache(db, plan).answer; (got == plan.Root) != want || !want && got != nil {
			t.Errorf("%s: reading answers %v, want the root: %v", sql, got, want)
		}
		res, err := execute(db, plan, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := res.Path == PathSummary && res.Root.Op == OpSummaryAgg.String(); got != want {
			t.Errorf("%s: path %q, root op %q; want the summary answer: %v", sql, res.Path, res.Root.Op, want)
		}
	}
}

// TestSummaryAggGateConditions pins the dispatch gate: a reading that
// answers is taken with no ceiling, on a fresh and on a prepared
// execution; an execution without a reading (the PathRegen ceiling), the
// PathPruned ceiling, and a reading taken with no registered summary do not
// answer from the summary.
func TestSummaryAggGateConditions(t *testing.T) {
	db := saggDB(t)
	plan := mustPlan(t, db, "SELECT COUNT(*) FROM m")
	if rd := buildPruneCache(db, plan); rd.answer != plan.Root {
		t.Fatal("the reading did not answer an eligible query")
	}
	prep, err := Prepare(db, plan, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts ExecOptions
		want string
	}{
		{ExecOptions{}, PathSummary},
		{ExecOptions{Regime: PathRegen}, PathRegen},
		{ExecOptions{Regime: PathPruned}, PathRegen},
	} {
		fresh, err := execute(db, plan, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := prep.Execute(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*ExecResult{fresh, prepared} {
			if res.Path != c.want || (res.Root.Op == OpSummaryAgg.String()) != (c.want == PathSummary) {
				t.Fatalf("%+v: path %q, root op %q; want path %q", c.opts, res.Path, res.Root.Op, c.want)
			}
		}
	}
	db.SetSummary("m", nil)
	if rd := buildPruneCache(db, plan); rd.answer != nil || rd.drives != nil {
		t.Fatal("the reading answered after summary unregistration")
	}
}

// TestSummaryAggCancel: a context canceled before the call stops a
// summary-direct answer with context.Canceled on every front — the
// evaluator drains the plan's own sink, so it honors the drive loop's
// cancellation contract — and a reused ExecState canceled mid-life answers
// the next call exactly as before.
func TestSummaryAggCancel(t *testing.T) {
	db := saggDB(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sql := range []string{
		"SELECT COUNT(*) FROM m WHERE a < 3",
		"SELECT a, COUNT(*), SUM(b) FROM m GROUP BY a",
	} {
		plan := mustPlan(t, db, sql)
		opts := ExecOptions{SampleLimit: 100}
		want, err := execute(db, plan, opts)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if want.Path != PathSummary {
			t.Fatalf("%q: path %q, want the summary-direct answer", sql, want.Path)
		}
		for _, f := range contextFronts(t) {
			if res, err := f.run(canceled, db, plan, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s on %q: pre-canceled ctx returned (%v, %v), want context.Canceled", f.name, sql, res, err)
			}
		}

		prep, err := Prepare(db, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		var st ExecState
		for i, ctx := range []context.Context{canceled, context.Background(), canceled, context.Background()} {
			res, err := prep.ExecuteInContext(ctx, &st, opts)
			if ctx == canceled {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%q call %d: reused state under a canceled ctx returned (%v, %v), want context.Canceled", sql, i, res, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%q call %d: %v", sql, i, err)
			}
			requireIdentical(t, fmt.Sprintf("%q reused call %d", sql, i), res, want)
		}
	}
}

// TestSummaryAggOverflow: a summary whose fixed measure times its count
// overflows int64 fails SUM and AVG with ErrAggOverflow on the summary
// path — fresh and reused state alike, never a wrapped total: 5·2^62 is
// 2^64 + 2^62, whose low word alone would pass for a sum. The relation is
// 2^62 tuples, so only the summary can answer it at all.
func TestSummaryAggOverflow(t *testing.T) {
	db := saggDBRows(t, []synopsis.Row{
		{Count: 1 << 62, Specs: []synopsis.ColSpec{synopsis.FixedSpec(1, 4), synopsis.FixedSpec(2, 5)}},
	})
	for _, sql := range []string{
		"SELECT SUM(b) FROM m",
		"SELECT AVG(b) FROM m WHERE a < 10",
		"SELECT a, SUM(b) FROM m GROUP BY a",
	} {
		plan := mustPlan(t, db, sql)
		if buildPruneCache(db, plan).answer == nil {
			t.Fatalf("%q: the summary does not answer", sql)
		}
		if res, err := execute(db, plan, ExecOptions{}); !errors.Is(err, ErrAggOverflow) {
			t.Fatalf("%q fresh: (%v, %v), want ErrAggOverflow", sql, res, err)
		}
		prep, err := Prepare(db, plan, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var st ExecState
		for i := 0; i < 2; i++ {
			if res, err := prep.ExecuteIn(&st, ExecOptions{}); !errors.Is(err, ErrAggOverflow) {
				t.Fatalf("%q reused call %d: (%v, %v), want ErrAggOverflow", sql, i, res, err)
			}
		}
	}
	// The same summary's COUNT fits: the state a failed SUM left behind
	// does not leak into the next answer.
	res, err := execute(db, mustPlan(t, db, "SELECT COUNT(*) FROM m"), ExecOptions{})
	if err != nil || res.Count != 1<<62 || res.Path != PathSummary {
		t.Fatalf("COUNT(*): (%+v, %v), want 2^62 on the summary path", res, err)
	}
}
