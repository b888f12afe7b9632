package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRoundTrip drives the client → vendor → verify → scenario → stats
// flow through the command implementations, exercising the JSON artifact
// I/O end to end.
func TestCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pkgPath := filepath.Join(dir, "pkg.json")
	sumPath := filepath.Join(dir, "summary.json.gz")
	csvPath := filepath.Join(dir, "item.csv")

	if err := cmdClient([]string{"-scenario", "toy", "-out", pkgPath}); err != nil {
		t.Fatalf("client: %v", err)
	}
	if _, err := os.Stat(pkgPath); err != nil {
		t.Fatalf("package not written: %v", err)
	}
	if err := cmdVendor([]string{"-in", pkgPath, "-out", sumPath}); err != nil {
		t.Fatalf("vendor: %v", err)
	}
	if err := cmdVerify([]string{"-in", pkgPath, "-summary", sumPath}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := cmdGenerate([]string{"-summary", sumPath, "-table", "s", "-limit", "5"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := cmdGenerate([]string{"-summary", sumPath, "-table", "t", "-csv", csvPath}); err != nil {
		t.Fatalf("generate csv: %v", err)
	}
	if fi, err := os.Stat(csvPath); err != nil || fi.Size() == 0 {
		t.Fatalf("csv not materialized: %v", err)
	}
	if err := cmdScenario([]string{"-in", pkgPath, "-factor", "10"}); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if err := cmdStats([]string{"-in", pkgPath, "-table", "s", "-column", "a"}); err != nil {
		t.Fatalf("stats: %v", err)
	}
}

func TestCLIAnonymizedClient(t *testing.T) {
	dir := t.TempDir()
	pkgPath := filepath.Join(dir, "pkg.json")
	mapPath := filepath.Join(dir, "mapping.json")
	err := cmdClient([]string{"-scenario", "tpcds", "-sf", "0.1", "-queries", "15",
		"-out", pkgPath, "-anonymize", "-mapping", mapPath})
	if err != nil {
		t.Fatalf("anonymized client: %v", err)
	}
	if _, err := os.Stat(mapPath); err != nil {
		t.Fatalf("mapping not written: %v", err)
	}
	sumPath := filepath.Join(dir, "summary.json.gz")
	if err := cmdVendor([]string{"-in", pkgPath, "-out", sumPath}); err != nil {
		t.Fatalf("vendor on anonymized package: %v", err)
	}
}

// TestCLIWriteErrors: an output file that cannot take the bytes fails the
// command. On /dev/full every write fails; the summary's bytes reach the
// file only at the buffer flush, after the gzip stream is closed.
func TestCLIWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	pkgPath := filepath.Join(t.TempDir(), "pkg.json")
	if err := cmdClient([]string{"-scenario", "toy", "-out", pkgPath}); err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := cmdVendor([]string{"-in", pkgPath, "-out", "/dev/full"}); err == nil {
		t.Error("vendor -out /dev/full succeeded")
	}
	if err := cmdClient([]string{"-scenario", "toy", "-out", "/dev/full"}); err == nil {
		t.Error("client -out /dev/full succeeded")
	}
}

func TestCLIErrors(t *testing.T) {
	if err := cmdClient([]string{"-scenario", "nope", "-out", filepath.Join(t.TempDir(), "x.json")}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := cmdVendor([]string{"-in", "/nonexistent.json"}); err == nil {
		t.Error("missing package accepted")
	}
	if err := cmdGenerate([]string{"-summary", "/nonexistent.json", "-table", "x"}); err == nil {
		t.Error("missing summary accepted")
	}
	if err := cmdGenerate([]string{}); err == nil {
		t.Error("missing -table accepted")
	}
	if err := cmdStats([]string{"-in", "/nonexistent.json", "-table", "a", "-column", "b"}); err == nil {
		t.Error("missing package accepted by stats")
	}
	// Unknown experiment ids — a retired one, the loadtest-only E15, a
	// typo — fail up front and name the valid ids.
	for _, id := range []string{"E11", "E15", "E18", "E1O", ""} {
		err := cmdBench([]string{"-exp", id})
		if err == nil || !strings.Contains(err.Error(), "E1..E10 or all") {
			t.Errorf("bench -exp %q: err = %v, want the valid ids named", id, err)
		}
	}
}
