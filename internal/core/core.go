// Package core orchestrates Hydra's end-to-end flow, mirroring the
// architecture of Figure 2 in the paper:
//
//	client site:  CaptureClient  — schema + metadata + workload AQPs
//	   transfer:  TransferPackage (JSON; optionally anonymized)
//	vendor site:  BuildFromPackage — preprocess → region-partition LPs →
//	              solve → deterministic alignment → database summary
//	    runtime:  RegenDatabase / MaterializedDatabase — dataless or
//	              materialized execution over the summary
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/aqp"
	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/preprocess"
	"repro/internal/schema"
	"repro/internal/sqlkit"
	"repro/internal/stats"
	"repro/internal/summary"
)

// TransferPackage is the information synopsis shipped from client to
// vendor: no data rows, only schema, statistics, and annotated plans.
type TransferPackage struct {
	Schema   *schema.Schema      `json:"schema"`
	Stats    []*stats.TableStats `json:"stats,omitempty"`
	Workload []*aqp.AQP          `json:"workload"`
}

// Encode writes the package as JSON.
func (p *TransferPackage) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// DecodePackage reads a JSON transfer package.
func DecodePackage(r io.Reader) (*TransferPackage, error) {
	var p TransferPackage
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: decoding transfer package: %w", err)
	}
	if p.Schema == nil {
		return nil, fmt.Errorf("core: transfer package has no schema")
	}
	if err := p.Schema.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// The shape of the shipped column statistics: equi-depth histogram buckets
// and most-common values per column.
const (
	histogramBuckets = 20
	mcvSize          = 10
)

// CaptureOptions tune client-site capture.
type CaptureOptions struct {
	// SkipStats omits column statistics (they are informational; summary
	// construction uses only the AQPs).
	SkipStats bool
}

// CaptureClient executes the query workload on the client database,
// annotates each plan with observed cardinalities, gathers column
// statistics, and assembles the transfer package.
func CaptureClient(db *engine.Database, queries []string, opts CaptureOptions) (*TransferPackage, error) {
	pkg := &TransferPackage{Schema: db.Schema.Clone()}

	// Refresh row counts from the stored relations so the shipped schema
	// reflects the actual client data.
	for _, t := range pkg.Schema.Tables {
		if rel := db.Relation(t.Name); rel != nil {
			t.RowCount = int64(rel.Len())
		}
	}

	for qi, sql := range queries {
		q, err := sqlkit.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("core: query %d: %w", qi, err)
		}
		plan, err := engine.BuildPlan(db.Schema, q)
		if err != nil {
			return nil, fmt.Errorf("core: query %d: %w", qi, err)
		}
		res, err := engine.ExecuteContext(context.TODO(), db, plan, engine.ExecOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: query %d: %w", qi, err)
		}
		pkg.Workload = append(pkg.Workload, &aqp.AQP{SQL: sql, Plan: aqp.FromExec(res.Root)})
	}

	if !opts.SkipStats {
		for _, t := range pkg.Schema.Tables {
			rel := db.Relation(t.Name)
			if rel == nil {
				continue
			}
			ts := &stats.TableStats{Table: t.Name, RowCount: int64(rel.Len())}
			for ci, col := range t.Columns {
				if col.PrimaryKey {
					continue
				}
				ts.Columns = append(ts.Columns, stats.BuildColumnStats(col.Name, rel.Col(ci), histogramBuckets, mcvSize))
			}
			pkg.Stats = append(pkg.Stats, ts)
		}
	}
	return pkg, nil
}

// BuildFromPackage runs the vendor-side pipeline: preprocessing, region
// partitioning, LP solving, and deterministic alignment.
func BuildFromPackage(pkg *TransferPackage, opts summary.BuildOptions) (*summary.Database, *summary.BuildReport, error) {
	w, err := preprocess.Extract(pkg.Schema, pkg.Workload)
	if err != nil {
		return nil, nil, err
	}
	return summary.Build(pkg.Schema, w, opts)
}

// RegenDatabase returns a dataless database: every table's scan is served
// by the tuple generator straight from the summary (the paper's datagen
// relation property). rowsPerSec throttles generation per scan; zero means
// unlimited.
//
// At full speed each table registers its summary (engine SetSummary): the
// engine regenerates every scan from it, prunes filters against it, and
// answers provably exact aggregates from it without generating a tuple.
// Paced, each table registers only a datagen source — a Stream behind a
// Paced limiter, which forwards the query's projection and credits each
// batch against the rate — and no summary: a paced database models a
// generation-rate budget, and a query answered or pruned from the summary
// would bypass the pacing being measured.
func RegenDatabase(sum *summary.Database, rowsPerSec float64) *engine.Database {
	db := engine.NewDatabase(sum.Schema)
	for name, rel := range sum.Relations {
		if rowsPerSec <= 0 {
			db.SetSummary(name, rel)
			continue
		}
		t := sum.Schema.Table(name)
		db.SetDatagen(name, func() (batch.ColProjector, error) {
			return generator.NewPaced(generator.NewStream(t, rel), rowsPerSec), nil
		})
	}
	return db
}

// MaterializedDatabase expands the summary into stored relations — the
// demo's optional materialize mode, and the reference point dynamic
// regeneration is compared against. The generator's column batches are read
// back as rows and appended, which is where the stored columns are laid out
// (engine.Relation.Append is the only way in).
func MaterializedDatabase(sum *summary.Database) (*engine.Database, error) {
	db := engine.NewDatabase(sum.Schema)
	for name, relSum := range sum.Relations {
		t := sum.Schema.Table(name)
		rel := &engine.Relation{Table: t}
		w := len(t.Columns)
		rows := batch.NewRowReader(generator.NewStream(t, relSum), batch.NewCol(w, 0, batch.AllCols(w)))
		for row, ok := rows.Next(); ok; row, ok = rows.Next() {
			if err := rel.Append(row); err != nil {
				return nil, err
			}
		}
		if err := db.AddRelation(rel); err != nil {
			return nil, err
		}
	}
	return db, nil
}
