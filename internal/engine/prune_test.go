package engine

import (
	"reflect"
	"testing"

	"repro/internal/synopsis"
	"repro/internal/value"
)

// TestPruneShortRowMatchesNothing pins a driven row whose cycle never
// reaches the predicate: with Count 2 the row only generates a=0,1 of its
// ten-value cycle, so a >= 5 matches no position. The empty position set
// must skip the row — not be mistaken for "no positions computed" and keep
// the whole row while the filter is dropped as absorbed.
func TestPruneShortRowMatchesNothing(t *testing.T) {
	db := saggDBRows(t, []synopsis.Row{
		{Count: 2, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, set(value.Ival(0, 10))), synopsis.FixedSpec(2, 7)}},
		{Count: 12, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, set(value.Ival(0, 10))), synopsis.FixedSpec(2, 8)}},
	})
	const sql = "SELECT * FROM m WHERE a >= 5 ORDER BY pk"
	want := saggExec(t, db, sql, ExecOptions{SampleLimit: 30, Regime: PathRegen})
	got := saggExec(t, db, sql, ExecOptions{SampleLimit: 30})
	if got.Rows != want.Rows || !reflect.DeepEqual(got.Sample, want.Sample) {
		t.Fatalf("pruned scan diverged: got %d %v, want %d %v", got.Rows, got.Sample, want.Rows, want.Sample)
	}
}
