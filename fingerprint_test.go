package hydra

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/toy"
	"repro/internal/tpcds"
)

// TestBuildFingerprint pins the summary the vendor build produces — the
// sha256 of its JSON encoding and the total simplex pivots — on the toy
// workload and on TPC-DS sf 1 with the 131-query workload. Build speed-ups
// must leave both untouched: fidelity depends on which optimal LP vertex
// the solver lands on, so any change that moves a vertex (a different
// pricing order, a different summation order) fails here loudly instead of
// drifting exact_share. The values are amd64's: Go fuses x*y+z into FMA on
// other architectures (arm64, ppc64, s390x), which changes the bits.
func TestBuildFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cases := []struct {
		name    string
		full    bool // needs the sf 1 database; skipped under -short
		db      func() (*Database, error)
		queries []string
		sha     string
		pivots  int
	}{
		{
			name:    "toy",
			db:      func() (*Database, error) { return toy.Database(42) },
			queries: toy.Workload(),
			sha:     "20b26d931460b492ef1b390c97127cf7c1f4077b598f5ff3b88ccc37d39f40f2",
			pivots:  29,
		},
		{
			name:    "tpcds-sf1-131",
			full:    true,
			db:      func() (*Database, error) { return tpcds.GenerateDatabase(tpcds.Schema(1.0), 7) },
			queries: tpcds.Workload(131, 11),
			sha:     "a9c651c2f1123c920fe357e20b2e77cf7159eb85cf1ae465e65bb403e3db7f51",
			pivots:  1196,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.full && testing.Short() {
				t.Skip("sf 1 capture")
			}
			db, err := tc.db()
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := Capture(db, tc.queries, CaptureOptions{SkipStats: true})
			if err != nil {
				t.Fatal(err)
			}
			sum, rep, err := Build(pkg, DefaultBuildOptions())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sum.EncodeJSON(&buf); err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256(buf.Bytes())
			sha := hex.EncodeToString(h[:])
			pivots := 0
			for _, rr := range rep.Relations {
				pivots += rr.Pivots
			}
			if sha != tc.sha || pivots != tc.pivots {
				t.Errorf("summary sha256 %s, %d pivots; want %s, %d pivots", sha, pivots, tc.sha, tc.pivots)
			}
		})
	}
}
