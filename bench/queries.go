package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	hydra "repro"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/trace"
)

// regime is the execution regime a query must be answered in. A silent
// fall-back to a slower regime would read as a 100× regression in the
// wrong layer, so a query answered in another regime ends the run.
type regime int

const (
	regimeRegen   regime = iota // the operator pipeline regenerates the fact table
	regimeSummary               // answered from summary rows alone, no tuple generated
	regimePruned                // regenerates only the tuples the predicate can match
)

// template is one query template of the traffic. R1–R5 regenerate the
// whole fact table; S1–S4 are summary-direct; S5, S6 and C prune to a
// 0.5% primary-key window (C joins, and exists for the cache-miss path).
type template struct {
	label  string
	regime regime
	sql    string // fmt verbs take the template's parameters
}

var (
	tR1 = template{"R1", regimeRegen, "SELECT i_category, COUNT(*), SUM(ss_quantity), AVG(ss_sales_price) FROM store_sales, item WHERE ss_item_sk = i_item_sk GROUP BY i_category"}
	tR2 = template{"R2", regimeRegen, "SELECT d_year, d_moy, MIN(ss_quantity), MAX(ss_quantity) FROM store_sales, date_dim WHERE ss_sold_date_sk = d_date_sk AND d_year < 2001 GROUP BY d_year, d_moy"}
	tR3 = template{"R3", regimeRegen, "SELECT * FROM store_sales ORDER BY ss_sales_price DESC LIMIT 100"}
	tR4 = template{"R4", regimeRegen, "SELECT COUNT(*) FROM store_sales, item, customer WHERE ss_item_sk = i_item_sk AND ss_customer_sk = c_customer_sk AND i_manager_id BETWEEN 20 AND 60 AND c_birth_year >= 1955"}
	tR5 = template{"R5", regimeRegen, "SELECT COUNT(*) FROM store_sales, customer WHERE ss_customer_sk = c_customer_sk AND c_birth_year BETWEEN 1940 AND 1985"}

	tS1 = template{"S1", regimeSummary, "SELECT COUNT(*), SUM(ss_quantity), MIN(ss_sales_price), MAX(ss_sales_price) FROM store_sales"}
	tS2 = template{"S2", regimeSummary, "SELECT COUNT(*) FROM store_sales WHERE ss_quantity >= %d"}
	tS3 = template{"S3", regimeSummary, "SELECT ss_store_sk, COUNT(*) FROM store_sales GROUP BY ss_store_sk"}
	tS4 = template{"S4", regimeSummary, "SELECT DISTINCT ss_item_sk FROM store_sales"}
	tS5 = template{"S5", regimePruned, "SELECT * FROM store_sales WHERE ss_sk >= %d AND ss_sk < %d ORDER BY ss_sales_price DESC LIMIT 100"}
	tS6 = template{"S6", regimePruned, "SELECT ss_store_sk, COUNT(*), SUM(ss_quantity) FROM store_sales WHERE ss_sk >= %d AND ss_sk < %d GROUP BY ss_store_sk"}
	tC  = template{"C", regimePruned, "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_category = 'Books' AND ss_sk >= %d AND ss_sk < %d"}

	regenRound = []template{tR1, tR2, tR3, tR4, tR5}
	// s2Cuts are the capture workload's own quantity cut points, so every
	// S2 instance is decidable from summary rows.
	s2Cuts = []int{20, 40, 60, 80}
)

// window draws a primary-key window holding 0.5% of the fact table.
func window(r *rand.Rand, factRows int64) (lo, hi int64) {
	width := factRows / 200
	lo = r.Int63n(factRows - width)
	return lo, lo + width
}

// selectiveInstances lists, per template S1–S6, the query instances the
// selective traffic draws from: the parameterless templates once, S2 at
// each cut, S5 and S6 at windowsEach seeded windows.
func selectiveInstances(r *rand.Rand, factRows int64, windowsEach int) [][]shape {
	one := func(t template) []shape { return []shape{{template: t, sql: t.sql}} }
	var s2, s5, s6 []shape
	for _, c := range s2Cuts {
		s2 = append(s2, shape{template: tS2, sql: fmt.Sprintf(tS2.sql, c)})
	}
	for i := 0; i < windowsEach; i++ {
		lo, hi := window(r, factRows)
		s5 = append(s5, shape{template: tS5, sql: fmt.Sprintf(tS5.sql, lo, hi)})
		lo, hi = window(r, factRows)
		s6 = append(s6, shape{template: tS6, sql: fmt.Sprintf(tS6.sql, lo, hi)})
	}
	return [][]shape{one(tS1), s2, one(tS3), one(tS4), s5, s6}
}

// shape is one concrete query with the oracle's answer to it.
type shape struct {
	template
	sql  string
	want *answer // nil: not compared with the oracle
}

// answer is the part of a result the oracle and the program must agree on.
type answer struct {
	rows, count int64
	sample      [][]int64
}

func (a *answer) equal(rows, count int64, sample [][]int64) bool {
	if a == nil {
		return true
	}
	return a.rows == rows && a.count == count &&
		slices.EqualFunc(a.sample, sample, func(x, y []int64) bool { return slices.Equal(x, y) })
}

// askOracle answers sql on the materialized database.
func askOracle(oracle *engine.Database, sql string) (*answer, error) {
	res, err := hydra.Query(oracle, sql, engine.ExecOptions{SampleLimit: sampleLimit})
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", sql, err)
	}
	return &answer{rows: res.Rows, count: res.Count, sample: res.Sample}, nil
}

// scanTotals sums the scans' accounting over an executed plan: tuples
// proven non-matching and never generated, summary rows skipped outright,
// and tuples actually generated.
func scanTotals(n *engine.ExecNode) (pruned, skipped, generated int64) {
	pruned, skipped = n.RowsPruned, n.SummaryRowsSkipped
	if n.Op == engine.OpScan.String() {
		generated = n.OutRows
	}
	for _, c := range n.Children {
		p, s, g := scanTotals(c)
		pruned, skipped, generated = pruned+p, skipped+s, generated+g
	}
	return pruned, skipped, generated
}

// guard reports whether res was answered in the regime the shape demands.
func (s *shape) guard(res *engine.ExecResult) error {
	pruned, _, _ := scanTotals(res.Root)
	ok := true
	switch s.regime {
	case regimeSummary:
		ok = res.Path == engine.PathSummary
	case regimePruned:
		ok = res.Path != engine.PathSummary && pruned > 0
	case regimeRegen:
		ok = res.Path != engine.PathSummary
	}
	if !ok {
		return fmt.Errorf("regime guard: %s left its regime (path %q, %d rows pruned): %s", s.label, res.Path, pruned, s.sql)
	}
	return nil
}

// stagedQuery is hydra.Query taken apart at its public seams, with a span
// around each: parse → plan → prepare (build-side drain, prune and prove)
// → execute with the engine's own operator trace on.
func stagedQuery(rec *recorder, op, parent int, db *engine.Database, sql string, opts engine.ExecOptions) (*engine.ExecResult, error) {
	sp := rec.begin("sqlkit.parse", op, parent)
	q, err := sqlkit.Parse(sql)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("engine.plan", op, parent)
	plan, err := engine.BuildPlan(db.Schema, q)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("engine.prepare", op, parent)
	prep, err := engine.Prepare(db, plan, opts)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	opts.Trace = true
	sp = rec.begin("engine.execute", op, parent)
	res, err := prep.Execute(opts)
	rec.end(sp)
	return res, err
}

// engineAcc adds up what traced executions report about themselves.
type engineAcc struct {
	queries, summaryPath       int
	pruned, skipped, generated int64
	selfNS                     map[string]int64 // operator self time by family
}

// opFamily folds the engine's operator kinds into the ledger's five.
var opFamily = map[string]string{
	engine.OpScan.String():       "scan",
	engine.OpFilter.String():     "filter",
	engine.OpHashJoin.String():   "join",
	engine.OpAggregate.String():  "agg",
	engine.OpGroupAgg.String():   "agg",
	engine.OpDistinct.String():   "agg",
	engine.OpSummaryAgg.String(): "agg",
	engine.OpSort.String():       "sort",
	engine.OpLimit.String():      "sort",
}

func (a *engineAcc) observe(res *engine.ExecResult) {
	a.queries++
	if res.Path == engine.PathSummary {
		a.summaryPath++
	}
	p, s, g := scanTotals(res.Root)
	a.pruned, a.skipped, a.generated = a.pruned+p, a.skipped+s, a.generated+g
	if res.Trace == nil {
		return
	}
	if a.selfNS == nil {
		a.selfNS = make(map[string]int64)
	}
	var walk func(sp *trace.Span)
	walk = func(sp *trace.Span) {
		if sp.Detached {
			return // a build side drained at prepare time: engine.prepare_us has it
		}
		a.selfNS[opFamily[sp.Op]] += sp.SelfNS()
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(res.Trace)
}

// engineLedger writes the engine's rows for ops traced ops: stage times
// per op from the benchmark's spans, counts per op and operator self-time
// shares from the engine's own reports.
func engineLedger(l ledger, rec *recorder, a *engineAcc, ops int) {
	stages := rec.stageTotals()
	perOp := func(name, spanName string) {
		l.set(name, us(stages[spanName])/float64(ops), ops, 0)
	}
	perOp("sqlkit.parse_us", "sqlkit.parse")
	perOp("engine.plan_us", "engine.plan")
	perOp("engine.prepare_us", "engine.prepare")
	perOp("engine.execute_us", "engine.execute")
	l.set("engine.summary_path_share", float64(a.summaryPath)/float64(a.queries), a.queries, 0)
	l.set("engine.rows_generated", float64(a.generated)/float64(ops), ops, 0)
	l.set("engine.rows_pruned", float64(a.pruned)/float64(ops), ops, 0)
	l.set("engine.summary_rows_skipped", float64(a.skipped)/float64(ops), ops, 0)
	if work := a.pruned + a.generated; work > 0 {
		l.set("engine.prune_ratio", float64(a.pruned)/float64(work), ops, 0)
	}
	// Shares of the operators' summed self time, not of the root span: on
	// the parallel path a span holds every worker's time, the root only its
	// own.
	var total int64
	for _, ns := range a.selfNS {
		total += ns
	}
	if total > 0 {
		for _, fam := range []string{"scan", "filter", "join", "agg", "sort"} {
			l.set("engine."+fam+"_self_share", float64(a.selfNS[fam])/float64(total), a.queries, 0)
		}
	}
}

// shapeSamples bounds the latencies kept per template for the engine.q_*
// rows. Slices replay the same ops, so the first few thousand are as good
// as all of them, and a fixed buffer allocates nothing while timing.
const shapeSamples = 4096

// queryRunner drives the three regen_* workloads: ops of one or more
// hydra.Query calls against the dataless database, one caller.
type queryRunner struct {
	db     *engine.Database
	opts   engine.ExecOptions
	shapes []shape
	ops    [][]int // op i runs shapes[ops[i][0]], shapes[ops[i][1]], …

	shapeLat map[string][]time.Duration // untraced latency samples by template label
	acc      engineAcc
	side     func(l ledger, base *phase) error // the workload's side measurements
}

func newQueryRunner(db *engine.Database, opts engine.ExecOptions, shapes []shape, ops [][]int) *queryRunner {
	r := &queryRunner{db: db, opts: opts, shapes: shapes, ops: ops, shapeLat: make(map[string][]time.Duration)}
	for _, s := range shapes {
		if r.shapeLat[s.label] == nil {
			r.shapeLat[s.label] = make([]time.Duration, 0, shapeSamples)
		}
	}
	return r
}

func (r *queryRunner) slice(rec *recorder, lat []time.Duration) (failed int, err error) {
	if rec != nil {
		r.acc = engineAcc{}
	}
	for i := range lat {
		var opTime time.Duration
		opFailed := false
		opSpan := rec.begin("op", i, -1)
		for _, si := range r.ops[i] {
			s := &r.shapes[si]
			var res *engine.ExecResult
			var qerr error
			t0 := time.Now()
			if rec == nil {
				res, qerr = hydra.Query(r.db, s.sql, r.opts)
			} else {
				res, qerr = stagedQuery(rec, i, opSpan, r.db, s.sql, r.opts)
			}
			d := time.Since(t0)
			opTime += d
			if qerr != nil || !s.want.equal(res.Rows, res.Count, res.Sample) {
				opFailed = true
				continue
			}
			if err := s.guard(res); err != nil {
				return failed, err
			}
			if rec != nil {
				r.acc.observe(res)
			} else if buf := r.shapeLat[s.label]; len(buf) < cap(buf) {
				r.shapeLat[s.label] = append(buf, d)
			}
		}
		rec.end(opSpan)
		lat[i] = opTime
		if opFailed {
			failed++
		}
	}
	return failed, nil
}

func (r *queryRunner) layers(l ledger, rec *recorder, base *phase) error {
	if err := rec.checkCoverage("op"); err != nil {
		return err
	}
	engineLedger(l, rec, &r.acc, len(rec.durations("op")))
	for label, lat := range r.shapeLat {
		if len(lat) == 0 {
			continue
		}
		p50 := percentile(sortedCopy(lat), 0.50)
		if label[0] == 'R' {
			l.set("engine.q_"+label+"_ms", ms(p50), len(lat), 0)
		} else {
			l.set("engine.q_"+label+"_us", us(p50), len(lat), 0)
		}
	}
	if r.side != nil {
		return r.side(l, base)
	}
	return nil
}

func (r *queryRunner) close() {}

// withAnswers fills in the oracle's answer to every shape.
func withAnswers(oracle *engine.Database, shapes []shape) error {
	for i := range shapes {
		want, err := askOracle(oracle, shapes[i].sql)
		if err != nil {
			return err
		}
		shapes[i].want = want
	}
	return nil
}
