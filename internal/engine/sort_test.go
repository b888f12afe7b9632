package engine

import (
	"reflect"
	"testing"
)

// execSampled runs sql through the default (columnar) executor with a
// sample large enough to materialize every output row.
func execSampled(t *testing.T, db *Database, sql string) *ExecResult {
	t.Helper()
	res, err := execute(db, mustPlan(t, db, sql), ExecOptions{SampleLimit: 100})
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// TestOrderByHandComputed pins ORDER BY results against hand-computed
// answers on the fully understood star database (fact rows, scan order:
// {0,0,1} {1,0,2} {2,1,3} {3,2,4} {4,3,5} {5,3,6}).
func TestOrderByHandComputed(t *testing.T) {
	db := starDatabase(t)

	res := execSampled(t, db, "SELECT * FROM fact ORDER BY q DESC")
	want := [][]int64{{5, 3, 6}, {4, 3, 5}, {3, 2, 4}, {2, 1, 3}, {1, 0, 2}, {0, 0, 1}}
	if res.Rows != 6 || !reflect.DeepEqual(res.Sample, want) {
		t.Fatalf("ORDER BY q DESC = %d %v, want %v", res.Rows, res.Sample, want)
	}
	if res.Root.Op != "SORT" || res.Root.OutRows != 6 {
		t.Fatalf("root node = %+v", res.Root)
	}

	// Multi-key: first key ascending, second descending.
	res = execSampled(t, db, "SELECT * FROM fact ORDER BY d_fk ASC, q DESC")
	want = [][]int64{{1, 0, 2}, {0, 0, 1}, {2, 1, 3}, {3, 2, 4}, {5, 3, 6}, {4, 3, 5}}
	if !reflect.DeepEqual(res.Sample, want) {
		t.Fatalf("ORDER BY d_fk, q DESC = %v, want %v", res.Sample, want)
	}

	// ORDER BY over grouped output re-sorts the group rows.
	res = execSampled(t, db, "SELECT d_fk, COUNT(*) FROM fact GROUP BY d_fk ORDER BY d_fk DESC")
	want = [][]int64{{3, 2}, {2, 1}, {1, 1}, {0, 2}}
	if !reflect.DeepEqual(res.Sample, want) {
		t.Fatalf("grouped ORDER BY DESC = %v, want %v", res.Sample, want)
	}
}

// TestLimitHandComputed pins LIMIT/OFFSET truncation, including limits
// landing mid-batch, offsets past the end, and LIMIT 0.
func TestLimitHandComputed(t *testing.T) {
	db := starDatabase(t)

	// Top-K: LIMIT bounding an ORDER BY (the sort runs bounded).
	res := execSampled(t, db, "SELECT * FROM fact ORDER BY q DESC LIMIT 2 OFFSET 1")
	want := [][]int64{{4, 3, 5}, {3, 2, 4}}
	if res.Rows != 2 || !reflect.DeepEqual(res.Sample, want) {
		t.Fatalf("ORDER BY ... LIMIT 2 OFFSET 1 = %d %v, want %v", res.Rows, res.Sample, want)
	}
	if res.Root.Op != "LIMIT" || res.Root.OutRows != 2 {
		t.Fatalf("root node = %+v", res.Root)
	}

	// Plain LIMIT preserves scan order.
	res = execSampled(t, db, "SELECT * FROM fact LIMIT 3")
	want = [][]int64{{0, 0, 1}, {1, 0, 2}, {2, 1, 3}}
	if res.Rows != 3 || !reflect.DeepEqual(res.Sample, want) {
		t.Fatalf("LIMIT 3 = %d %v, want %v", res.Rows, res.Sample, want)
	}

	// OFFSET consumes into the stream; a short tail is fine.
	res = execSampled(t, db, "SELECT * FROM fact LIMIT 10 OFFSET 4")
	want = [][]int64{{4, 3, 5}, {5, 3, 6}}
	if res.Rows != 2 || !reflect.DeepEqual(res.Sample, want) {
		t.Fatalf("LIMIT 10 OFFSET 4 = %d %v, want %v", res.Rows, res.Sample, want)
	}

	// OFFSET past the end and LIMIT 0 both produce nothing.
	for _, sql := range []string{
		"SELECT * FROM fact LIMIT 5 OFFSET 100",
		"SELECT * FROM fact LIMIT 0",
		"SELECT * FROM fact ORDER BY q LIMIT 0",
	} {
		res = execSampled(t, db, sql)
		if res.Rows != 0 || len(res.Sample) != 0 {
			t.Fatalf("%s = %d %v, want empty", sql, res.Rows, res.Sample)
		}
	}

	// LIMIT over COUNT(*): the aggregate row still carries the count.
	res = execSampled(t, db, "SELECT COUNT(*) FROM fact LIMIT 1")
	if res.Rows != 1 || res.Count != 6 {
		t.Fatalf("COUNT(*) LIMIT 1 = rows %d count %d", res.Rows, res.Count)
	}
	res = execSampled(t, db, "SELECT COUNT(*) FROM fact LIMIT 0")
	if res.Rows != 0 || res.Count != 0 {
		t.Fatalf("COUNT(*) LIMIT 0 = rows %d count %d", res.Rows, res.Count)
	}

	// The child is drained even after the limit is reached: upstream
	// cardinalities must be execution-mode-invariant, never truncated.
	res = execSampled(t, db, "SELECT * FROM fact LIMIT 1")
	if scan := res.Root.Children[0]; scan.OutRows != 6 {
		t.Fatalf("scan under LIMIT reported %d rows, want 6", scan.OutRows)
	}
}

// TestDistinctHandComputed pins DISTINCT: dedup over the selected columns,
// output sorted ascending by the key tuple, in select-list order.
func TestDistinctHandComputed(t *testing.T) {
	db := starDatabase(t)

	res := execSampled(t, db, "SELECT DISTINCT d_fk FROM fact")
	want := [][]int64{{0}, {1}, {2}, {3}}
	if res.Rows != 4 || !reflect.DeepEqual(res.Sample, want) {
		t.Fatalf("DISTINCT d_fk = %d %v, want %v", res.Rows, res.Sample, want)
	}
	if res.Root.Op != "DISTINCT" || res.Root.OutRows != 4 {
		t.Fatalf("root node = %+v", res.Root)
	}

	res = execSampled(t, db, "SELECT DISTINCT d_fk, q FROM fact WHERE q >= 3")
	want = [][]int64{{1, 3}, {2, 4}, {3, 5}, {3, 6}}
	if !reflect.DeepEqual(res.Sample, want) {
		t.Fatalf("DISTINCT d_fk, q = %v, want %v", res.Sample, want)
	}

	// SELECT DISTINCT * dedups whole rows (all unique here).
	res = execSampled(t, db, "SELECT DISTINCT * FROM dim")
	if res.Rows != 4 || len(res.Sample[0]) != 2 {
		t.Fatalf("DISTINCT * = %d %v", res.Rows, res.Sample)
	}

	// DISTINCT + ORDER BY + LIMIT compose.
	res = execSampled(t, db, "SELECT DISTINCT d_fk FROM fact ORDER BY d_fk DESC LIMIT 2")
	want = [][]int64{{3}, {2}}
	if !reflect.DeepEqual(res.Sample, want) {
		t.Fatalf("DISTINCT ORDER BY LIMIT = %v, want %v", res.Sample, want)
	}
}

// TestSortLimitDistinctPlanErrors: unresolvable ORDER BY references are
// planning errors; DISTINCT with aggregates is a parse error.
func TestSortLimitDistinctPlanErrors(t *testing.T) {
	db := starDatabase(t)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM fact ORDER BY q",                     // aggregate output has no columns
		"SELECT * FROM fact ORDER BY nope",                         // unknown column
		"SELECT d_fk, COUNT(*) FROM fact GROUP BY d_fk ORDER BY q", // not a select item
		"SELECT DISTINCT d_fk FROM fact ORDER BY q",                // not in the distinct output
	} {
		if _, err := buildPlanErr(db, sql); err == nil {
			t.Errorf("plan %q succeeded, want error", sql)
		}
	}
}

// TestSortStateRecycling: a recycled ExecuteIn state (including the bounded
// top-K path) reproduces the first execution's rows exactly after reset.
func TestSortStateRecycling(t *testing.T) {
	db := starDatabase(t)
	for _, sql := range []string{
		"SELECT * FROM fact ORDER BY q DESC",
		"SELECT * FROM fact ORDER BY q DESC LIMIT 3 OFFSET 1",
		"SELECT DISTINCT d_fk, q FROM fact ORDER BY q DESC LIMIT 2",
	} {
		prep, err := Prepare(db, mustPlan(t, db, sql), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := execSampled(t, db, sql)
		var st ExecState
		for round := 0; round < 4; round++ {
			got, err := prep.ExecuteIn(&st, ExecOptions{SampleLimit: 100})
			if err != nil {
				t.Fatalf("%s round %d: %v", sql, round, err)
			}
			if got.Rows != want.Rows || !reflect.DeepEqual(got.Sample, want.Sample) {
				t.Fatalf("%s round %d: %d %v, want %d %v", sql, round, got.Rows, got.Sample, want.Rows, want.Sample)
			}
		}
	}
}
