package synopsis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func TestRelationValidate(t *testing.T) {
	tbl := &schema.Table{Name: "t", Columns: []*schema.Column{
		{Name: "pk", PrimaryKey: true}, {Name: "a"}, {Name: "b"},
	}}
	cyc := value.NewIntervalSet(value.Ival(0, 3))
	for _, tc := range []struct {
		name  string
		total int64
		rows  []Row
		want  string // substring of the error; "" means valid
	}{
		{"valid", 7, []Row{
			{Count: 4, Specs: []ColSpec{FixedSpec(1, 0), SetSpec(2, cyc)}},
			{Count: 0},
			{Count: 3, Specs: []ColSpec{SetSpec(2, cyc)}},
		}, ""},
		{"duplicate spec", 1, []Row{{Count: 1, Specs: []ColSpec{FixedSpec(1, 1), SetSpec(1, cyc)}}}, "duplicate spec"},
		{"pk spec", 1, []Row{{Count: 1, Specs: []ColSpec{FixedSpec(0, 9)}}}, "primary key"},
		{"bad column", 1, []Row{{Count: 1, Specs: []ColSpec{FixedSpec(3, 1)}}}, "bad column"},
		{"negative column", 1, []Row{{Count: 1, Specs: []ColSpec{FixedSpec(-1, 1)}}}, "bad column"},
		{"empty spec", 1, []Row{{Count: 1, Specs: []ColSpec{{Col: 1}}}}, "empty spec"},
		{"negative count", -1, []Row{{Count: -1}}, "negative count"},
		{"sum mismatch", 5, []Row{{Count: 2}, {Count: 2}}, "total is 5"},
		// Two rows that wrap int64 back to exactly Total.
		{"overflow", 2, []Row{{Count: math.MaxInt64}, {Count: math.MaxInt64}, {Count: 4}}, "overflows"},
		// Cycling sets must be canonical, as At and the cycle verdicts
		// assume, and count their points in an int64.
		{"empty interval", 6, []Row{{Count: 6, Specs: []ColSpec{SetSpec(1, Hostile[0])}}}, "canonical"},
		{"unsorted set", 4, []Row{{Count: 4, Specs: []ColSpec{SetSpec(1, Hostile[1])}}}, "canonical"},
		{"overlapping set", 4, []Row{{Count: 4, Specs: []ColSpec{SetSpec(1, Hostile[2])}}}, "canonical"},
		{"set size overflow", 4, []Row{{Count: 4, Specs: []ColSpec{SetSpec(1, Hostile[3])}}}, "overflows"},
		{"fixed and set", 1, []Row{{Count: 1, Specs: []ColSpec{{Col: 1, Fixed: new(int64), Set: cyc}}}}, "both"},
	} {
		err := (&Relation{Table: "t", Total: tc.total, Rows: tc.rows}).Validate(tbl)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// Hostile holds cycling sets Validate rejects: {[0,3),[5,5)} regenerates
// values outside the set, {[4,6),[0,2)} and {[0,3),[1,4)} cycle out of
// order and with duplicates, and [MinInt64, MaxInt64) overflows Len.
// FuzzDecodeJSON seeds with them too.
var Hostile = []value.IntervalSet{
	{value.Ival(0, 3), value.Ival(5, 5)},
	{value.Ival(4, 6), value.Ival(0, 2)},
	{value.Ival(0, 3), value.Ival(1, 4)},
	{value.Ival(math.MinInt64, math.MaxInt64)},
}
