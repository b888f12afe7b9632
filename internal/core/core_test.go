package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/summary"
	"repro/internal/toy"
)

func TestCaptureClient(t *testing.T) {
	db, err := toy.Database(2)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CaptureClient(db, toy.Workload(), CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Workload) != len(toy.Workload()) {
		t.Fatalf("workload = %d", len(pkg.Workload))
	}
	if pkg.Schema.Table("r").RowCount != toy.RRows {
		t.Errorf("row count not refreshed: %d", pkg.Schema.Table("r").RowCount)
	}
	// Stats cover every non-key column of every stored table.
	if len(pkg.Stats) != 3 {
		t.Fatalf("stats tables = %d", len(pkg.Stats))
	}
	for _, ts := range pkg.Stats {
		for _, cs := range ts.Columns {
			if cs.Histogram == nil {
				t.Errorf("%s.%s has no histogram", ts.Table, cs.Column)
			}
		}
	}
	// The AQP for the Figure 1 query carries real cardinalities.
	if pkg.Workload[0].Plan.Card == 0 {
		t.Error("root cardinality is 0")
	}
	if err := pkg.Workload[0].Plan.Validate(); err != nil {
		t.Errorf("captured plan invalid: %v", err)
	}
}

func TestCaptureSkipStatsAndErrors(t *testing.T) {
	db, err := toy.Database(2)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CaptureClient(db, toy.Workload()[:1], CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Stats != nil {
		t.Error("stats not skipped")
	}
	if _, err := CaptureClient(db, []string{"BAD SQL"}, CaptureOptions{}); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, err := CaptureClient(db, []string{"SELECT * FROM missing"}, CaptureOptions{}); err == nil {
		t.Error("missing table accepted")
	}
}

func TestPackageCodec(t *testing.T) {
	db, err := toy.Database(2)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CaptureClient(db, toy.Workload(), CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pkg.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePackage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Workload) != len(pkg.Workload) || back.Schema.Table("s") == nil {
		t.Error("package round trip lost content")
	}
	if _, err := DecodePackage(bytes.NewBufferString("{}")); err == nil {
		t.Error("schema-less package accepted")
	}
	if _, err := DecodePackage(bytes.NewBufferString("not json")); err == nil {
		t.Error("malformed package accepted")
	}
}

func TestRegenVsMaterializedAgree(t *testing.T) {
	db, err := toy.Database(2)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CaptureClient(db, toy.Workload(), CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	regen := RegenDatabase(sum, 0)
	mat, err := MaterializedDatabase(sum)
	if err != nil {
		t.Fatal(err)
	}
	// Every stored relation must be fully materialized...
	for name, rel := range sum.Relations {
		if got := int64(mat.Relation(name).Len()); got != rel.Total {
			t.Errorf("%s materialized %d of %d", name, got, rel.Total)
		}
		// ...while the dataless database stores nothing.
		if regen.Relation(name) != nil {
			t.Errorf("%s has stored rows in the dataless database", name)
		}
		if !regen.DatagenEnabled(name) {
			t.Errorf("%s datagen disabled", name)
		}
	}
	// Both answer a query identically.
	for _, sql := range toy.Workload()[1:3] {
		q, err := sqlkit.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		planR, err := engine.BuildPlan(regen.Schema, q)
		if err != nil {
			t.Fatal(err)
		}
		resR, err := engine.ExecuteContext(context.Background(), regen, planR, engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		planM, err := engine.BuildPlan(mat.Schema, q)
		if err != nil {
			t.Fatal(err)
		}
		resM, err := engine.ExecuteContext(context.Background(), mat, planM, engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if resR.Count != resM.Count {
			t.Errorf("%s: dataless %d != materialized %d", sql, resR.Count, resM.Count)
		}
	}
}
