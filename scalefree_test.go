package hydra

import (
	"cmp"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/tpcds"
)

// scaleShape is one query shape of the bench's traffic, instantiated for a
// fact table of a given size, with the regime it must answer in and the
// fact tuples it must generate.
type scaleShape struct {
	label     string
	sql       string
	path      string // the path it must answer on; "" for any regenerating one
	generated int64
}

// scaleShapes returns the bench's S1/S2 (summary-direct), R1–R5 (whole
// fact table) and C (a join over a 0.5% fact pk window) shapes, with the
// windows drawn from a fixed seed over factRows.
func scaleShapes(factRows int64) []scaleShape {
	shapes := []scaleShape{
		{"S1", "SELECT COUNT(*), SUM(ss_quantity), MIN(ss_sales_price), MAX(ss_sales_price) FROM store_sales", engine.PathSummary, 0},
	}
	for _, cut := range []int{20, 40, 60, 80} {
		shapes = append(shapes, scaleShape{"S2", fmt.Sprintf("SELECT COUNT(*) FROM store_sales WHERE ss_quantity >= %d", cut), engine.PathSummary, 0})
	}
	// The R shapes' dimension joins are positional, so each generates the
	// fact table and nothing else.
	for _, r := range [][2]string{
		{"R1", "SELECT i_category, COUNT(*), SUM(ss_quantity), AVG(ss_sales_price) FROM store_sales, item WHERE ss_item_sk = i_item_sk GROUP BY i_category"},
		{"R2", "SELECT d_year, d_moy, MIN(ss_quantity), MAX(ss_quantity) FROM store_sales, date_dim WHERE ss_sold_date_sk = d_date_sk AND d_year < 2001 GROUP BY d_year, d_moy"},
		{"R3", "SELECT * FROM store_sales ORDER BY ss_sales_price DESC LIMIT 100"},
		{"R4", "SELECT COUNT(*) FROM store_sales, item, customer WHERE ss_item_sk = i_item_sk AND ss_customer_sk = c_customer_sk AND i_manager_id BETWEEN 20 AND 60 AND c_birth_year >= 1955"},
		{"R5", "SELECT COUNT(*) FROM store_sales, customer WHERE ss_customer_sk = c_customer_sk AND c_birth_year BETWEEN 1940 AND 1985"},
	} {
		shapes = append(shapes, scaleShape{r[0], r[1], "", factRows})
	}
	rng := rand.New(rand.NewSource(1))
	width := factRows / 200
	for range 2 {
		lo := rng.Int63n(factRows - width)
		shapes = append(shapes, scaleShape{"C", fmt.Sprintf("SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_category = 'Books' AND ss_sk >= %d AND ss_sk < %d", lo, lo+width), engine.PathPruned, width})
	}
	return shapes
}

// generatedRows sums the tuples the scans of an executed tree generated.
func generatedRows(n *engine.ExecNode) int64 {
	var total int64
	if n.Op == engine.OpScan.String() {
		total = n.OutRows
	}
	for _, c := range n.Children {
		total += generatedRows(c)
	}
	return total
}

// TestScaleFreeRegeneration takes the sf-1 TPC-DS package (warehouse seed
// 7, 131 queries) through scenario.Apply at ×1 and ×10 — and, without
// -short, ×100 — and builds each. At every factor the summary validates and
// its rows and bytes stay within 10% of the ×1 summary's; S1/S2 answer
// summary-direct generating no tuple; each R shape regenerates exactly the
// fact table and each C shape exactly its pk window. At ×1 and ×10 each
// R1–R5 and C shape answers the same in the default regime as under the
// "regen" ceiling, and at ×1 as on the materialized database. ×100 checks
// counts only, never timings.
func TestScaleFreeRegeneration(t *testing.T) {
	client, err := tpcds.GenerateDatabase(tpcds.Schema(1.0), 7)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := Capture(client, tpcds.Workload(131, 11), CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	factors := []float64{1, 10}
	if !testing.Short() {
		factors = append(factors, 100)
	}
	var baseRows, baseBytes int
	for _, f := range factors {
		t.Run(fmt.Sprintf("x%g", f), func(t *testing.T) {
			scaled, err := (&scenario.Scenario{Factor: f}).Apply(pkg)
			if err != nil {
				t.Fatal(err)
			}
			sum, _, err := Build(scaled, DefaultBuildOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := sum.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			bytes, err := sum.Size()
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for _, rel := range sum.Relations {
				rows += len(rel.Rows)
			}
			factRows := scaled.Schema.Table("store_sales").RowCount
			t.Logf("×%g: %d fact tuples, summary %d rows, %d bytes", f, factRows, rows, bytes)
			if f == 1 {
				baseRows, baseBytes = rows, bytes
			}
			within10 := func(v, base int) bool { d := v - base; return base > 0 && 10*max(d, -d) <= base }
			if !within10(rows, baseRows) || !within10(bytes, baseBytes) {
				t.Errorf("summary %d rows, %d bytes; want within 10%% of ×1's %d rows, %d bytes", rows, bytes, baseRows, baseBytes)
			}

			db := Regen(sum, 0)
			var mat *Database
			if f == 1 {
				mat = mustMaterialize(t, sum)
			}
			opts := ExecOptions{SampleLimit: 8}
			for _, s := range scaleShapes(factRows) {
				label := fmt.Sprintf("×%g %s: %s", f, s.label, s.sql)
				got, err := Query(db, s.sql, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				gen := generatedRows(got.Root)
				wantPath := s.path
				if wantPath == "" && got.Path != engine.PathSummary {
					wantPath = got.Path
				}
				if got.Path != wantPath || gen != s.generated {
					t.Errorf("%s: path %q with %d tuples generated, want %q with %d", label, got.Path, gen, cmp.Or(s.path, "regen or pruned"), s.generated)
				}
				if f == 100 || s.path == engine.PathSummary {
					continue
				}
				regen, err := Query(db, s.sql, ExecOptions{SampleLimit: 8, Regime: engine.PathRegen})
				if err != nil {
					t.Fatalf("%s [regen]: %v", label, err)
				}
				sameValues(t, label+" [default vs regen]", got, regen)
				if mat != nil {
					sameValues(t, label+" [default vs materialized]", got, oracle(t, mat, s.sql, 8))
				}
			}
		})
	}
}
