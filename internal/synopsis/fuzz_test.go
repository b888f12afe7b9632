package synopsis_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/summary"
	"repro/internal/synopsis"
	"repro/internal/toy"
)

// FuzzDecodeJSON feeds DecodeJSON both the input and the input wrapped in
// gzip, so mutations reach the JSON layer rather than failing the gzip
// checksum. Nothing may panic; whatever validates must regenerate the
// first batch of every relation and re-encode to a deep-equal summary.
// Seeds: the toy summary, encoded and as plain JSON, and the toy schema
// with a relation cycling through each Hostile set.
func FuzzDecodeJSON(f *testing.F) {
	db, err := toy.Database(42)
	if err != nil {
		f.Fatal(err)
	}
	pkg, err := core.CaptureClient(db, toy.Workload(), core.CaptureOptions{SkipStats: true})
	if err != nil {
		f.Fatal(err)
	}
	sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		f.Fatal(err)
	}
	var enc bytes.Buffer
	if err := sum.EncodeJSON(&enc); err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Bytes())
	plain, err := json.Marshal(sum)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	for _, set := range synopsis.Hostile {
		doc, err := json.Marshal(&synopsis.Database{Schema: sum.Schema, Relations: map[string]*synopsis.Relation{
			"s": {Table: "s", Total: 6, Rows: []synopsis.Row{{Count: 6, Specs: []synopsis.ColSpec{synopsis.SetSpec(1, set)}}}},
		}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(data)
		zw.Close()
		for _, in := range [][]byte{data, gz.Bytes()} {
			d, err := synopsis.DecodeJSON(bytes.NewReader(in))
			if err != nil || d.Validate() != nil {
				continue
			}
			for name, rel := range d.Relations {
				tbl := d.Schema.Table(name)
				cols := batch.AllCols(len(tbl.Columns))
				generator.NewStream(tbl, rel).NextColBatch(batch.NewCol(len(cols), 0, cols), cols)
			}
			var re bytes.Buffer
			if err := d.EncodeJSON(&re); err != nil {
				t.Fatalf("re-encoding a valid summary: %v", err)
			}
			back, err := synopsis.DecodeJSON(&re)
			if err != nil {
				t.Fatalf("decoding a re-encoded summary: %v", err)
			}
			if !reflect.DeepEqual(back, d) {
				t.Fatal("re-encoded summary decodes differently")
			}
		}
	})
}
