package engine

import (
	"reflect"
	"testing"

	"repro/internal/batch"
	"repro/internal/sqlkit"
)

// execSQL plans and executes sql on db. The plan is rebuilt per call so
// each execution observes a fresh ExecNode tree.
func execSQL(t *testing.T, db *Database, sql string, opts ExecOptions) *ExecResult {
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

// execBoth runs the same SQL at opts.BatchSize and, as the reference, in
// single batches (BatchSize 0: every star table fits in one default-size
// batch, so no operator ever sees a batch boundary).
func execBoth(t *testing.T, db *Database, sql string, opts ExecOptions) (*ExecResult, *ExecResult) {
	t.Helper()
	ref := opts
	ref.BatchSize = 0
	return execSQL(t, db, sql, opts), execSQL(t, db, sql, ref)
}

// requireEqualResults compares every observable of two ExecResults: row and
// aggregate counts, retained samples, and the full annotated operator tree.
func requireEqualResults(t *testing.T, label string, got, want *ExecResult) {
	t.Helper()
	if got.Rows != want.Rows || got.Count != want.Count {
		t.Fatalf("%s: rows/count = %d/%d, want %d/%d", label, got.Rows, got.Count, want.Rows, want.Count)
	}
	if len(got.Sample) != len(want.Sample) {
		t.Fatalf("%s: sample size = %d, want %d", label, len(got.Sample), len(want.Sample))
	}
	for i := range want.Sample {
		if !reflect.DeepEqual(got.Sample[i], want.Sample[i]) {
			t.Fatalf("%s: sample row %d = %v, want %v", label, i, got.Sample[i], want.Sample[i])
		}
	}
	requireEqualNodes(t, label, got.Root, want.Root)
}

func requireEqualNodes(t *testing.T, label string, got, want *ExecNode) {
	t.Helper()
	if got.Op != want.Op || got.Table != want.Table || got.PredSQL != want.PredSQL ||
		got.JoinSQL != want.JoinSQL || got.OutRows != want.OutRows {
		t.Fatalf("%s: node %+v, want %+v", label, got, want)
	}
	if len(got.Children) != len(want.Children) {
		t.Fatalf("%s: node %s has %d children, want %d", label, got.Op, len(got.Children), len(want.Children))
	}
	for i := range want.Children {
		requireEqualNodes(t, label, got.Children[i], want.Children[i])
	}
}

var parityQueries = []string{
	"SELECT * FROM fact",
	"SELECT * FROM fact WHERE q >= 3",
	"SELECT * FROM fact WHERE q >= 100", // empty result
	"SELECT COUNT(*) FROM dim WHERE a BETWEEN 20 AND 30",
	"SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk AND dim.a >= 30",
	"SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk AND dim.a = 40",
	"SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk",
	"SELECT COUNT(*) FROM fact, dim WHERE d_fk = d_pk AND a < 25 AND q > 1",
	// Grouped aggregation: single/multi key, interleaved select order,
	// every aggregate function, global (no GROUP BY), grouped-empty input.
	"SELECT d_fk, COUNT(*) FROM fact GROUP BY d_fk",
	"SELECT a, COUNT(*), SUM(q), MIN(q), MAX(q), AVG(q) FROM fact, dim WHERE fact.d_fk = dim.d_pk GROUP BY a",
	"SELECT AVG(q), d_fk FROM fact GROUP BY d_fk",
	"SELECT d_fk, q, COUNT(*) FROM fact GROUP BY d_fk, q",
	"SELECT COUNT(q), SUM(q) FROM fact",
	"SELECT d_fk, SUM(q) FROM fact WHERE q >= 100 GROUP BY d_fk", // empty input
	"SELECT MIN(q), MAX(q) FROM fact WHERE q >= 100",             // empty global group
	// ORDER BY / LIMIT / DISTINCT: full sort, top-K, limits landing
	// mid-batch, OFFSET past the end, LIMIT 0, and sink composition.
	"SELECT * FROM fact ORDER BY q DESC",
	"SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk ORDER BY a DESC, q",
	"SELECT * FROM fact ORDER BY q DESC LIMIT 3 OFFSET 1",
	"SELECT * FROM fact LIMIT 4",
	"SELECT * FROM fact LIMIT 4 OFFSET 3",
	"SELECT * FROM fact LIMIT 5 OFFSET 100", // offset past end
	"SELECT * FROM fact LIMIT 0",
	"SELECT COUNT(*) FROM fact LIMIT 1",
	"SELECT DISTINCT d_fk FROM fact",
	"SELECT DISTINCT d_fk, q FROM fact WHERE q >= 3",
	"SELECT DISTINCT * FROM dim",
	"SELECT DISTINCT d_fk FROM fact ORDER BY d_fk DESC LIMIT 2",
	"SELECT d_fk, COUNT(*) FROM fact GROUP BY d_fk ORDER BY d_fk DESC LIMIT 2 OFFSET 1",
}

// parityCounts pins each parity query's {Rows, Count}, computed by hand
// from starDatabase's four dim and six fact tuples: a reference that does
// not run the engine.
var parityCounts = map[string][2]int64{
	"SELECT * FROM fact":                                                                                      {6, 0},
	"SELECT * FROM fact WHERE q >= 3":                                                                         {4, 0},
	"SELECT * FROM fact WHERE q >= 100":                                                                       {0, 0},
	"SELECT COUNT(*) FROM dim WHERE a BETWEEN 20 AND 30":                                                      {1, 2},
	"SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk AND dim.a >= 30":                               {1, 3},
	"SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk AND dim.a = 40":                                       {2, 0},
	"SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk":                                                      {6, 0},
	"SELECT COUNT(*) FROM fact, dim WHERE d_fk = d_pk AND a < 25 AND q > 1":                                   {1, 2},
	"SELECT d_fk, COUNT(*) FROM fact GROUP BY d_fk":                                                           {4, 0},
	"SELECT a, COUNT(*), SUM(q), MIN(q), MAX(q), AVG(q) FROM fact, dim WHERE fact.d_fk = dim.d_pk GROUP BY a": {4, 0},
	"SELECT AVG(q), d_fk FROM fact GROUP BY d_fk":                                                             {4, 0},
	"SELECT d_fk, q, COUNT(*) FROM fact GROUP BY d_fk, q":                                                     {6, 0},
	"SELECT COUNT(q), SUM(q) FROM fact":                                                                       {1, 0},
	"SELECT d_fk, SUM(q) FROM fact WHERE q >= 100 GROUP BY d_fk":                                              {0, 0},
	"SELECT MIN(q), MAX(q) FROM fact WHERE q >= 100":                                                          {1, 0},
	"SELECT * FROM fact ORDER BY q DESC":                                                                      {6, 0},
	"SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk ORDER BY a DESC, q":                                   {6, 0},
	"SELECT * FROM fact ORDER BY q DESC LIMIT 3 OFFSET 1":                                                     {3, 0},
	"SELECT * FROM fact LIMIT 4":                                                                              {4, 0},
	"SELECT * FROM fact LIMIT 4 OFFSET 3":                                                                     {3, 0},
	"SELECT * FROM fact LIMIT 5 OFFSET 100":                                                                   {0, 0},
	"SELECT * FROM fact LIMIT 0":                                                                              {0, 0},
	"SELECT COUNT(*) FROM fact LIMIT 1":                                                                       {1, 6},
	"SELECT DISTINCT d_fk FROM fact":                                                                          {4, 0},
	"SELECT DISTINCT d_fk, q FROM fact WHERE q >= 3":                                                          {4, 0},
	"SELECT DISTINCT * FROM dim":                                                                              {4, 0},
	"SELECT DISTINCT d_fk FROM fact ORDER BY d_fk DESC LIMIT 2":                                               {2, 0},
	"SELECT d_fk, COUNT(*) FROM fact GROUP BY d_fk ORDER BY d_fk DESC LIMIT 2 OFFSET 1":                       {2, 0},
}

// TestBatchRowParityStored holds batched execution on stored relations to
// the hand-computed counts and to single-batch execution, across batch
// sizes that force mid-operator batch boundaries (size 1 and 2 split every
// multi-row result).
func TestBatchRowParityStored(t *testing.T) {
	db := starDatabase(t)
	for _, size := range []int{1, 2, 3, 5} {
		for _, sql := range parityQueries {
			got, want := execBoth(t, db, sql, ExecOptions{SampleLimit: 100, BatchSize: size})
			if c, ok := parityCounts[sql]; !ok || got.Rows != c[0] || got.Count != c[1] {
				t.Fatalf("%s [batch=%d]: rows/count = %d/%d, want %v (pinned: %v)", sql, size, got.Rows, got.Count, c, ok)
			}
			requireEqualResults(t, sql, got, want)
		}
	}
}

// TestBatchRowParityDatagen re-runs the parity suite with both tables
// served by row-reusing datagen streams, the dataless configuration, and
// also holds each answer to the stored database the streams copy.
func TestBatchRowParityDatagen(t *testing.T) {
	db, mat := starDatabase(t), starDatabase(t)
	stored := map[string][][]int64{
		"dim":  rowsOf(mat.Relation("dim")),
		"fact": rowsOf(mat.Relation("fact")),
	}
	for name, rows := range stored {
		rows := rows
		db.SetDatagen(name, func() (batch.ColProjector, error) {
			i := 0
			buf := make([]int64, len(rows[0]))
			return batch.FromRows(rowFunc(func() ([]int64, bool) {
				if i >= len(rows) {
					return nil, false
				}
				copy(buf, rows[i]) // a producer may reuse its row buffer
				i++
				return buf, true
			})), nil
		})
	}
	for _, size := range []int{1, 3, 0} {
		for _, sql := range parityQueries {
			opts := ExecOptions{SampleLimit: 100, BatchSize: size}
			got, want := execBoth(t, db, sql, opts)
			requireEqualResults(t, sql, got, want)
			requireEqualResults(t, sql+" [stored]", got, execSQL(t, mat, sql, opts))
		}
	}
}

// TestBatchEmptyRelations checks batched and single-batch execution agree
// when inputs are empty on either side of a join.
func TestBatchEmptyRelations(t *testing.T) {
	s := starSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(s)
	if err := db.AddRelation(&Relation{Table: s.Table("dim")}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(&Relation{Table: s.Table("fact")}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT * FROM fact",
		"SELECT COUNT(*) FROM fact",
		"SELECT COUNT(*) FROM fact, dim WHERE fact.d_fk = dim.d_pk",
		"SELECT * FROM fact, dim WHERE fact.d_fk = dim.d_pk",
	} {
		got, want := execBoth(t, db, sql, ExecOptions{SampleLimit: 10, BatchSize: 2})
		requireEqualResults(t, sql, got, want)
		if sql == "SELECT * FROM fact" && got.Rows != 0 {
			t.Fatalf("empty relation produced %d rows", got.Rows)
		}
	}
}
