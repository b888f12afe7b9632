package tpcds

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"repro/internal/sqlkit"
)

func TestSchemaValidates(t *testing.T) {
	for _, sf := range []float64{0.1, 1, 4} {
		s := Schema(sf)
		if err := s.Validate(); err != nil {
			t.Fatalf("sf=%v: %v", sf, err)
		}
	}
}

func TestSchemaScales(t *testing.T) {
	small, big := Schema(1), Schema(2)
	if big.Table("store_sales").RowCount != 2*small.Table("store_sales").RowCount {
		t.Error("fact table did not scale")
	}
	if big.Table("date_dim").RowCount != small.Table("date_dim").RowCount {
		t.Error("the calendar should not scale")
	}
	// Key domains follow the row counts.
	if big.Table("item").Column("i_item_sk").DomainHi != big.Table("item").RowCount {
		t.Error("pk domain out of sync")
	}
	if big.Table("store_sales").Column("ss_item_sk").DomainHi != big.Table("item").RowCount {
		t.Error("fk domain out of sync")
	}
}

func TestGenerateDatabase(t *testing.T) {
	s := Schema(0.1)
	db, err := GenerateDatabase(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range s.Tables {
		rel := db.Relation(tbl.Name)
		if rel == nil || int64(rel.Len()) != tbl.RowCount {
			t.Fatalf("%s has %d rows, want %d", tbl.Name, rel.Len(), tbl.RowCount)
		}
		for ci, col := range tbl.Columns {
			for _, v := range rel.Col(ci) {
				if v < col.DomainLo || v >= col.DomainHi {
					t.Fatalf("%s.%s code %d outside [%d,%d)", tbl.Name, col.Name, v, col.DomainLo, col.DomainHi)
				}
			}
		}
	}
	// Foreign keys reference existing primary keys (sequential 0..n-1).
	fact := db.Relation("store_sales")
	nItem := s.Table("item").RowCount
	for _, v := range fact.Col(2) {
		if v < 0 || v >= nItem {
			t.Fatalf("dangling ss_item_sk %d", v)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := Schema(0.1)
	a, err := GenerateDatabase(s, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDatabase(Schema(0.1), 9)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Relation("item"), b.Relation("item")
	for i := 0; i < ra.Len(); i++ {
		if !slices.Equal(ra.Row(i), rb.Row(i)) {
			t.Fatalf("row %d differs across equal seeds", i)
		}
	}
}

// TestGenerateDatabaseFingerprint pins the warehouse bit for bit: the
// FNV-1a of every value in schema, row, column order, recorded when
// relations still held rows. The benchmark's counts (summary_bytes,
// lp.pivots, exact_share) are functions of this data, so loading it any
// other way must draw from the rng in exactly this order.
func TestGenerateDatabaseFingerprint(t *testing.T) {
	s := Schema(0.1)
	db, err := GenerateDatabase(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, tbl := range s.Tables {
		rel := db.Relation(tbl.Name)
		for i := 0; i < rel.Len(); i++ {
			for _, v := range rel.Row(i) {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x5acbe15b9b7f4718); got != want {
		t.Fatalf("warehouse fingerprint %#x, want %#x", got, want)
	}
}

func TestWorkloadDistinctAndParseable(t *testing.T) {
	s := Schema(1)
	queries := Workload(131, 11)
	if len(queries) != 131 {
		t.Fatalf("queries = %d", len(queries))
	}
	seen := map[string]bool{}
	for _, sql := range queries {
		if seen[sql] {
			t.Fatalf("duplicate query: %s", sql)
		}
		seen[sql] = true
		q, err := sqlkit.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if !q.CountStar {
			t.Errorf("workload query is not COUNT(*): %s", sql)
		}
		for _, name := range q.Tables {
			if s.Table(name) == nil {
				t.Errorf("query references unknown table %s", name)
			}
		}
	}
	// The workload must exercise joins and single-table scans.
	joins, singles := 0, 0
	for _, sql := range queries {
		if strings.Contains(sql, ",") && strings.Contains(sql, "_sk = ") {
			joins++
		} else {
			singles++
		}
	}
	if joins == 0 || singles == 0 {
		t.Errorf("workload mix: joins=%d singles=%d", joins, singles)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a := Workload(50, 3)
	b := Workload(50, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("workload not deterministic")
		}
	}
}
