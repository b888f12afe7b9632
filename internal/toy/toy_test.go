package toy

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlkit"
)

func TestSchemaAndDatabase(t *testing.T) {
	s := Schema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db, err := Database(1)
	if err != nil {
		t.Fatal(err)
	}
	r := db.Relation("r")
	if got := r.Len(); got != RRows {
		t.Errorf("r rows = %d", got)
	}
	// Referential integrity of the generated foreign keys.
	for i := 0; i < r.Len(); i++ {
		if row := r.Row(i); row[1] < 0 || row[1] >= SRows || row[2] < 0 || row[2] >= TRows {
			t.Fatalf("dangling fk in %v", row)
		}
	}
}

func TestWorkloadExecutes(t *testing.T) {
	db, err := Database(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range Workload() {
		q, err := sqlkit.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		plan, err := engine.BuildPlan(db.Schema, q)
		if err != nil {
			t.Fatalf("plan %q: %v", sql, err)
		}
		if _, err := engine.ExecuteContext(context.Background(), db, plan, engine.ExecOptions{}); err != nil {
			t.Fatalf("exec %q: %v", sql, err)
		}
	}
}

// TestDatabaseFingerprint pins the toy database bit for bit (FNV-1a of
// every value of s, t, r in row, column order, recorded when relations
// still held rows): loading it through Relation.Append must draw from the
// rng in exactly the same order.
func TestDatabaseFingerprint(t *testing.T) {
	db, err := Database(42)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range []string{"s", "t", "r"} {
		rel := db.Relation(name)
		for i := 0; i < rel.Len(); i++ {
			for _, v := range rel.Row(i) {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x3bfe417f38296529); got != want {
		t.Fatalf("toy fingerprint %#x, want %#x", got, want)
	}
}
