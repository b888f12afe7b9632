package generator

import (
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/batch"
	"repro/internal/schema"
	"repro/internal/synopsis"
)

// Materialize writes the relation's regenerated tuples as CSV (header plus
// decoded values) — the demo's optional "materialize" runtime mode. It
// returns the number of rows written.
func Materialize(w io.Writer, t *schema.Table, rel *synopsis.Relation) (int64, error) {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return 0, err
	}
	rows := batch.NewRowReader(NewStream(t, rel), batch.NewCol(len(t.Columns), 0, batch.AllCols(len(t.Columns))))
	record := make([]string, len(t.Columns))
	var n int64
	for {
		row, ok := rows.Next()
		if !ok {
			break
		}
		for i, c := range t.Columns {
			record[i] = c.Decode(row[i]).String()
		}
		if err := cw.Write(record); err != nil {
			return n, err
		}
		n++
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return n, fmt.Errorf("generator: materializing %s: %w", t.Name, err)
	}
	return n, nil
}
