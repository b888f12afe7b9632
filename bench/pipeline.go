package main

import (
	"time"

	"repro/internal/engine"
	"repro/internal/tpcds"
)

// pipelineRunner drives build_pipeline: the paper's whole pipeline at
// scale factor 1, from the client's stored rows to a verified regenerated
// database. Scale factor 1 keeps capture and verify (the only stages that
// read rows) small beside the build, whose cost does not depend on the
// data's scale.
type pipelineRunner struct {
	client  *engine.Database
	queries []string
	passes  []*pipelineOut // the traced slice's products
	edges   int            // AQP edges the last traced op verified
}

func prepBuildPipeline(e *env, _ int) (runner, error) {
	client, err := tpcds.GenerateDatabase(tpcds.Schema(quickScale), warehouseSeed)
	if err != nil {
		return nil, err
	}
	e.oracle = nil // nothing here is answered by the oracle
	return &pipelineRunner{client: client, queries: e.queries}, nil
}

func (r *pipelineRunner) slice(rec *recorder, lat []time.Duration) (int, error) {
	failed := 0
	if rec != nil {
		r.passes = nil
	}
	for i := range lat {
		t0 := time.Now()
		op := rec.begin("op", i, -1)
		out, err := runPipeline(rec, i, op, r.client, r.queries)
		if err == nil {
			// An op whose regenerated database misses the quality floor
			// has failed, however fast it was.
			sp := rec.begin("verify.verify", i, op)
			rep, verr := checkQuality(out)
			rec.end(sp)
			if err = verr; err == nil {
				r.edges = len(rep.Edges)
			}
		}
		rec.end(op)
		lat[i] = time.Since(t0)
		if err != nil {
			failed++
		} else if rec != nil {
			r.passes = append(r.passes, out)
		}
	}
	return failed, nil
}

func (r *pipelineRunner) layers(l ledger, rec *recorder, _ *phase) error {
	if err := rec.checkCoverage("op"); err != nil {
		return err
	}
	// These rows replace the set-up's: on this workload the pipeline is the
	// op, and the ledger describes the op.
	if len(r.passes) > 0 {
		pipelineLedger(l, rec, r.passes, r.edges)
	}
	return nil
}

func (r *pipelineRunner) close() {}
