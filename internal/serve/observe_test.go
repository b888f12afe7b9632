package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/toy"
	"repro/internal/trace"
)

// postQueryReq posts an arbitrary QueryRequest with optional headers and
// decodes the response.
func postQueryReq(t *testing.T, url string, req QueryRequest, hdr map[string]string) (*http.Response, QueryResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, qr
}

// TestServeExplain pins the explain surface: "explain": true returns the
// span tree as JSON plus rendered text, the tree mirrors the plan's shape
// with per-operator rows, and the same query without explain carries no
// trace. An EXPLAIN ANALYZE SQL prefix is the equivalent spelling.
func TestServeExplain(t *testing.T) {
	sum := buildToySummary(t)
	ts := httptest.NewServer(New(sum, Options{SampleLimit: 2}).Handler())
	defer ts.Close()

	sql := toy.Workload()[1]
	resp, qr := postQueryReq(t, ts.URL, QueryRequest{SQL: sql, Explain: true}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain query status %d", resp.StatusCode)
	}
	if qr.Trace == nil || qr.TraceText == "" {
		t.Fatalf("explain response missing trace: trace=%v text=%q", qr.Trace, qr.TraceText)
	}
	// The span tree mirrors the annotated plan: same ops, same shape, same
	// per-operator cardinalities.
	var spOps, planOps []string
	var spRows, planRows []int64
	trace.Walk(qr.Trace, func(sp *trace.Span) {
		spOps = append(spOps, sp.Op)
		spRows = append(spRows, sp.Rows)
	})
	collectPlan(qr.Plan, &planOps, &planRows)
	if len(spOps) != len(planOps) {
		t.Fatalf("span tree has %d nodes, plan has %d", len(spOps), len(planOps))
	}
	for i := range spOps {
		if spOps[i] != planOps[i] {
			t.Fatalf("span[%d] op %q, plan op %q", i, spOps[i], planOps[i])
		}
		if spRows[i] != planRows[i] {
			t.Fatalf("span[%d] (%s) rows %d, plan out_rows %d", i, spOps[i], spRows[i], planRows[i])
		}
	}
	if qr.Trace.DurNS <= 0 || qr.Trace.Batches <= 0 {
		t.Fatalf("root span not timed: %+v", qr.Trace)
	}
	for _, op := range spOps {
		if !strings.Contains(qr.TraceText, op) {
			t.Fatalf("trace_text missing op %s:\n%s", op, qr.TraceText)
		}
	}

	// EXPLAIN ANALYZE in the SQL itself is the same request.
	resp, qr2 := postQueryReq(t, ts.URL, QueryRequest{SQL: "EXPLAIN ANALYZE " + sql}, nil)
	if resp.StatusCode != http.StatusOK || qr2.Trace == nil {
		t.Fatalf("EXPLAIN ANALYZE prefix: status %d trace %v", resp.StatusCode, qr2.Trace)
	}
	if qr2.Rows != qr.Rows || qr2.Count != qr.Count {
		t.Fatalf("EXPLAIN ANALYZE answer drifted: %d/%d vs %d/%d", qr2.Rows, qr2.Count, qr.Rows, qr.Count)
	}

	// Without explain: same answer, no trace in the body.
	resp, qr3 := postQueryReq(t, ts.URL, QueryRequest{SQL: sql}, nil)
	if resp.StatusCode != http.StatusOK || qr3.Trace != nil || qr3.TraceText != "" {
		t.Fatalf("untraced response carries trace: %v %q", qr3.Trace, qr3.TraceText)
	}
	if qr3.Count != qr.Count {
		t.Fatalf("explain changed the answer: %d vs %d", qr.Count, qr3.Count)
	}
}

// tracePlanNode mirrors the op/out_rows/children fields of the plan JSON.
type tracePlanNode struct {
	Op       string           `json:"op"`
	OutRows  int64            `json:"out_rows"`
	Children []*tracePlanNode `json:"children"`
}

// collectPlan flattens the response plan tree in preorder.
func collectPlan(n any, ops *[]string, rows *[]int64) {
	data, _ := json.Marshal(n)
	var pn tracePlanNode
	if err := json.Unmarshal(data, &pn); err != nil {
		return
	}
	var walk func(p *tracePlanNode)
	walk = func(p *tracePlanNode) {
		*ops = append(*ops, p.Op)
		*rows = append(*rows, p.OutRows)
		for _, ch := range p.Children {
			walk(ch)
		}
	}
	walk(&pn)
}

// TestServeRequestID pins request-ID propagation: a client-supplied
// X-Request-Id is echoed in header and body; absent one, the server assigns
// sequential q-N IDs.
func TestServeRequestID(t *testing.T) {
	sum := buildToySummary(t)
	ts := httptest.NewServer(New(sum, Options{SampleLimit: 2}).Handler())
	defer ts.Close()

	sql := toy.Workload()[0]
	resp, qr := postQueryReq(t, ts.URL, QueryRequest{SQL: sql}, map[string]string{"X-Request-Id": "req-abc"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "req-abc" {
		t.Fatalf("header request id = %q, want req-abc", got)
	}
	if qr.RequestID != "req-abc" {
		t.Fatalf("body request id = %q, want req-abc", qr.RequestID)
	}

	resp, qr = postQueryReq(t, ts.URL, QueryRequest{SQL: sql}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if qr.RequestID != "q-1" || resp.Header.Get("X-Request-Id") != "q-1" {
		t.Fatalf("assigned request id = %q / %q, want q-1", qr.RequestID, resp.Header.Get("X-Request-Id"))
	}
	if _, qr = postQueryReq(t, ts.URL, QueryRequest{SQL: sql}, nil); qr.RequestID != "q-2" {
		t.Fatalf("second assigned request id = %q, want q-2", qr.RequestID)
	}
}

// TestServeSlowQueryLog pins the structured slow-query log: a query over
// the threshold emits one slog record carrying the request ID, SQL, cache
// disposition, and (traced) the top operators by self time; under the
// threshold nothing is logged.
func TestServeSlowQueryLog(t *testing.T) {
	sum := buildToySummary(t)
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	srv := New(sum, Options{
		SampleLimit:        2,
		TraceQueries:       true,
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		Logger:             logger,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sql := toy.Workload()[1]
	if resp, _ := postQueryReq(t, ts.URL, QueryRequest{SQL: sql}, map[string]string{"X-Request-Id": "slow-1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	line := buf.String()
	if line == "" {
		t.Fatal("no slow-query record emitted")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &rec); err != nil {
		t.Fatalf("slow-query record is not JSON: %v\n%s", err, line)
	}
	if rec["msg"] != "slow query" || rec["request_id"] != "slow-1" || rec["sql"] != sql {
		t.Fatalf("slow-query record = %v", rec)
	}
	if rec["cache"] != "miss" {
		t.Fatalf("slow-query cache = %v, want miss", rec["cache"])
	}
	topOps, _ := rec["top_ops"].(string)
	if topOps == "" || !strings.Contains(topOps, "=") {
		t.Fatalf("slow-query top_ops = %q", topOps)
	}

	// Threshold high: silence.
	var quiet bytes.Buffer
	srv2 := New(sum, Options{
		SampleLimit:        2,
		SlowQueryThreshold: time.Hour,
		Logger:             slog.New(slog.NewJSONHandler(&quiet, nil)),
	})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if resp, _ := postQueryReq(t, ts2.URL, QueryRequest{SQL: sql}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if quiet.Len() != 0 {
		t.Fatalf("fast query logged as slow: %s", quiet.String())
	}
}

// TestServeObservabilityMetrics pins the new /metricsz series: per-operator
// self-time histograms (advanced by traced queries), engine counters,
// runtime gauges, and build info.
func TestServeObservabilityMetrics(t *testing.T) {
	sum := buildToySummary(t)
	srv := New(sum, Options{SampleLimit: 2, TraceQueries: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A join query regenerates (the summary-direct fast path only claims
	// single-table aggregates), so SCAN spans and generation counters move.
	sql := toy.Workload()[3]
	if resp, _ := postQueryReq(t, ts.URL, QueryRequest{SQL: sql}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)

	for _, want := range []string{
		`hydra_operator_self_seconds_bucket{op="SCAN"`,
		`hydra_operator_self_seconds_count{op="SCAN"}`,
		"hydra_engine_rows_generated_total",
		"hydra_engine_result_rows_total",
		"hydra_engine_batches_total",
		"hydra_rows_pruned_total",
		"hydra_summary_rows_skipped_total",
		"hydra_plan_cache_build_seconds_total",
		"hydra_cache_bytes",
		"hydra_goroutines",
		"hydra_gc_pause_seconds_total",
		"hydra_heap_inuse_bytes",
		"hydra_build_info{version=",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metricsz missing %q", want)
		}
	}
	// A traced query advanced the SCAN histogram and the engine counters.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `hydra_operator_self_seconds_count{op="SCAN"}`) {
			if strings.HasSuffix(line, " 0") {
				t.Fatalf("SCAN self-time histogram not advanced: %s", line)
			}
		}
		if strings.HasPrefix(line, "hydra_engine_rows_generated_total") {
			if strings.HasSuffix(line, " 0") {
				t.Fatalf("rows-generated counter not advanced: %s", line)
			}
		}
	}
}

// TestServeSummaryAggPath pins the serve surface of the summary-direct
// fast path: the response's "path" field says how each query was answered,
// the /statsz ring records it, hydra_summaryagg_queries_total counts the
// summary-answered population, and a request still carrying the retired
// "approx" field is answered exactly like the plain one.
func TestServeSummaryAggPath(t *testing.T) {
	sum := buildToySummary(t)
	srv := New(sum, Options{SampleLimit: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The three regimes, each reported in the engine's own word: a
	// single-table aggregate is answered summary-directly, a filtered join
	// runs the pipeline over pruned scans, an unfiltered join regenerates
	// every tuple.
	fastSQL := "SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60"
	resp, qr := postQueryReq(t, ts.URL, QueryRequest{SQL: fastSQL}, nil)
	if resp.StatusCode != http.StatusOK || qr.Path != "summary" {
		t.Fatalf("eligible aggregate: status %d path %q, want 200 %q", resp.StatusCode, qr.Path, "summary")
	}
	want := seqCount(t, sum, fastSQL)
	if qr.Count != want.Count {
		t.Fatalf("summary-path count %d, want %d", qr.Count, want.Count)
	}
	for _, q := range []struct{ sql, path string }{
		{toy.Workload()[3], "pruned"},
		{"SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk", "regen"},
	} {
		resp, qr = postQueryReq(t, ts.URL, QueryRequest{SQL: q.sql}, nil)
		if resp.StatusCode != http.StatusOK || qr.Path != q.path {
			t.Fatalf("%s: status %d path %q, want 200 %q", q.sql, resp.StatusCode, qr.Path, q.path)
		}
	}

	// Older clients may still send "approx": true. The decoder ignores the
	// unknown field: the answer is the exact one, from the plain request's
	// cache entry, and the response has no "approx" key.
	sqlJSON, _ := json.Marshal(fastSQL) // a string always marshals
	hr, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"sql":`+string(sqlJSON)+`,"approx":true}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatalf("status %d: %v: %s", hr.StatusCode, err, raw)
	}
	if _, ok := keys["approx"]; ok || hr.StatusCode != http.StatusOK {
		t.Fatalf("request with the retired approx field: status %d, body %s", hr.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Path != "summary" || qr.Cache != "hit" || qr.Count != want.Count {
		t.Fatalf("request with the retired approx field: path %q cache %q count %d, want summary hit %d",
			qr.Path, qr.Cache, qr.Count, want.Count)
	}

	// The /statsz ring remembers each query's path (newest first).
	stats := getStats(t, ts.URL)
	if len(stats.Recent) < 4 {
		t.Fatalf("statsz ring holds %d entries, want >= 4", len(stats.Recent))
	}
	byNewest := []string{"summary", "regen", "pruned", "summary"}
	for i, wantPath := range byNewest {
		if got := stats.Recent[i].Path; got != wantPath {
			t.Fatalf("statsz recent[%d] path %q, want %q (%s)", i, got, wantPath, stats.Recent[i].SQL)
		}
	}

	// The metric counted exactly the two summary-answered queries.
	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	data, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := "hydra_summaryagg_queries_total 2"; !strings.Contains(string(data), want+"\n") {
		t.Fatalf("/metricsz missing %q", want)
	}
}

// TestServeScanPruneObservability pins the serve surface of predicate
// pushdown: the filtered join regenerates only the qualifying row-space, so
// hydra_rows_pruned_total and hydra_summary_rows_skipped_total advance and
// the /statsz ring carries the query's pruned-tuple count.
func TestServeScanPruneObservability(t *testing.T) {
	sum := buildToySummary(t)
	srv := New(sum, Options{SampleLimit: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// toy.Query filters s and t; both filters prune on the toy summary.
	sql := toy.Workload()[3]
	if resp, _ := postQueryReq(t, ts.URL, QueryRequest{SQL: sql}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var pruned int64
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "hydra_rows_pruned_total "):
			fmt.Sscanf(line, "hydra_rows_pruned_total %d", &pruned)
			if pruned <= 0 {
				t.Fatalf("rows-pruned counter not advanced: %s", line)
			}
		case strings.HasPrefix(line, "hydra_summary_rows_skipped_total "):
			if strings.HasSuffix(line, " 0") {
				t.Fatalf("summary-rows-skipped counter not advanced: %s", line)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("/metricsz missing hydra_rows_pruned_total")
	}

	stats := getStats(t, ts.URL)
	if len(stats.Recent) == 0 {
		t.Fatal("statsz ring empty")
	}
	if got := stats.Recent[0].Pruned; got != pruned {
		t.Fatalf("statsz recent[0] pruned %d, want %d (the query's whole prune count)", got, pruned)
	}
}

// TestServePprofGate pins that /debug/pprof is absent by default and
// mounted under Options.EnablePprof.
func TestServePprofGate(t *testing.T) {
	sum := buildToySummary(t)

	off := httptest.NewServer(New(sum, Options{}).Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without EnablePprof: %d", resp.StatusCode)
	}

	on := httptest.NewServer(New(sum, Options{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "goroutine") {
		t.Fatalf("pprof index: status %d body %.80s", resp.StatusCode, data)
	}
}
