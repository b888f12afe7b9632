package batch

import (
	"errors"
	"reflect"
	"testing"
)

// sliceRows is a RowSource over fixed rows.
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

func readAll(r *RowReader) [][]int64 {
	var out [][]int64
	for row, ok := r.Next(); ok; row, ok = r.Next() {
		out = append(out, append([]int64(nil), row...))
	}
	return out
}

// TestRowsRoundTrip pivots rows into column batches and back — FromRows
// under RowReader — at capacities that split the input every way, whole
// and projected: projected columns come back, the others read 0, and an
// exhausted reader stays exhausted.
func TestRowsRoundTrip(t *testing.T) {
	rows := [][]int64{{0, 10, 100}, {1, 11, 101}, {2, 12, 102}, {3, 13, 103}, {4, 14, 104}}
	for _, cols := range [][]int{{0, 1, 2}, {1}, {0, 2}, nil} {
		want := make([][]int64, len(rows))
		for i, row := range rows {
			want[i] = make([]int64, len(row))
			for _, c := range cols {
				want[i][c] = row[c]
			}
		}
		for _, capRows := range []int{1, 2, 5, 8} {
			src := FromRows(&sliceRows{rows: rows})
			r := NewRowReader(src, NewCol(3, capRows, cols))
			if got := readAll(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("cols %v cap %d: %v, want %v", cols, capRows, got, want)
			}
			if row, ok := r.Next(); ok {
				t.Fatalf("cols %v cap %d: exhausted reader produced %v", cols, capRows, row)
			}
			if err := src.Err(); err != nil {
				t.Fatalf("cols %v cap %d: well-formed rows reported %v", cols, capRows, err)
			}
		}
	}
}

// TestFromRowsRejectsWrongArity: rows are input from outside the program. A
// row shorter or longer than the batch's width stops the scan — nothing of
// the offending batch is delivered, no later call resumes — and Err wraps
// ErrRowArity. Before the check existed a short row inherited whatever the
// previous batch left in its missing columns, so answers depended on the
// batch size.
func TestFromRowsRejectsWrongArity(t *testing.T) {
	for name, rows := range map[string][][]int64{
		"short": {{0, 50}, {1, 60}, {2}, {3, 70}},
		"long":  {{0, 50}, {1, 60}, {2, 65, 9}, {3, 70}},
	} {
		for _, capRows := range []int{1, 2, 3, 8} {
			src := FromRows(&sliceRows{rows: rows})
			all := AllCols(2)
			b := NewCol(2, capRows, all)
			delivered := 0
			for src.NextColBatch(b, all) {
				delivered += b.Len()
			}
			if delivered > 2 {
				t.Fatalf("%s cap %d: %d rows delivered past the bad row", name, capRows, delivered)
			}
			if err := src.Err(); !errors.Is(err, ErrRowArity) {
				t.Fatalf("%s cap %d: Err = %v, want ErrRowArity", name, capRows, err)
			}
			if src.NextColBatch(b, all) || b.Len() != 0 {
				t.Fatalf("%s cap %d: a failed scan resumed with %d rows", name, capRows, b.Len())
			}
		}
	}
}
