package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/summary"
	"repro/internal/toy"
)

// buildToySummary captures the toy workload and builds its summary.
func buildToySummary(t *testing.T) *summary.Database {
	t.Helper()
	db, err := toy.Database(42)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.CaptureClient(db, toy.Workload(), core.CaptureOptions{SkipStats: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// seqCount executes sql sequentially against a fresh dataless database,
// the reference every served answer is held to.
func seqCount(t *testing.T, sum *summary.Database, sql string) *engine.ExecResult {
	t.Helper()
	db := core.RegenDatabase(sum, 0)
	q, err := sqlkit.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.BuildPlan(db.Schema, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ExecuteContext(context.Background(), db, plan, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func postQuery(t *testing.T, url, sql string) (*http.Response, QueryResponse) {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{SQL: sql})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, qr
}

// TestServeSmoke is the serve-endpoint smoke test: start a server over a
// built summary, issue every toy workload query, and assert each served
// COUNT matches sequential in-process execution.
func TestServeSmoke(t *testing.T) {
	sum := buildToySummary(t)
	ts := httptest.NewServer(New(sum, Options{Parallelism: 2, SampleLimit: 3}).Handler())
	defer ts.Close()

	// Health first.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hr.Status != "ok" || hr.Tables != len(sum.Relations) {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, hr)
	}

	for _, sql := range toy.Workload() {
		want := seqCount(t, sum, sql)
		resp, qr := postQuery(t, ts.URL, sql)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", sql, resp.StatusCode)
		}
		if qr.Count != want.Count || qr.Rows != want.Rows {
			t.Fatalf("%s: served count/rows %d/%d, want %d/%d", sql, qr.Count, qr.Rows, want.Count, want.Rows)
		}
		if qr.Plan == nil || qr.Plan.OutRows != want.Root.OutRows {
			t.Fatalf("%s: served plan %+v, want root out_rows %d", sql, qr.Plan, want.Root.OutRows)
		}
	}
}

// TestServeConcurrentClients hammers one server from many goroutines —
// the demonstration scenario: concurrent clients, one zero-row database —
// and requires every answer to equal the sequential reference. Run under
// -race this also proves the shared dataless database is race-free.
func TestServeConcurrentClients(t *testing.T) {
	sum := buildToySummary(t)
	ts := httptest.NewServer(New(sum, Options{Parallelism: 4}).Handler())
	defer ts.Close()

	queries := toy.Workload()
	want := make([]int64, len(queries))
	for i, sql := range queries {
		want[i] = seqCount(t, sum, sql).Count
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, sql := range queries {
				body, _ := json.Marshal(QueryRequest{SQL: sql})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var qr QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if qr.Count != want[i] {
					errs <- &countMismatch{sql: sql, got: qr.Count, want: want[i]}
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type countMismatch struct {
	sql       string
	got, want int64
}

func (e *countMismatch) Error() string {
	return e.sql + ": served count mismatch"
}

// TestServeErrors exercises the failure surfaces: wrong method, bad JSON,
// missing SQL, unparsable SQL, unknown table.
func TestServeErrors(t *testing.T) {
	sum := buildToySummary(t)
	ts := httptest.NewServer(New(sum, Options{}).Handler())
	defer ts.Close()

	get, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", get.StatusCode)
	}
	if allow := get.Header.Get("Allow"); allow != "POST" {
		t.Fatalf("GET /query Allow header = %q, want POST", allow)
	}

	for _, tc := range []struct {
		body string
		want int
	}{
		{"{not json", http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"sql": "SELEC nope"}`, http.StatusBadRequest},
		{`{"sql": "SELECT COUNT(*) FROM no_such_table"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("body %q: error reply is not JSON: %v", tc.body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("body %q = %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
		if er.Error == "" {
			t.Fatalf("body %q: empty error message", tc.body)
		}
	}
}

// TestServeMethodNotAllowed pins the 405 + Allow contract on every
// endpoint and method that isn't the supported one.
func TestServeMethodNotAllowed(t *testing.T) {
	sum := buildToySummary(t)
	ts := httptest.NewServer(New(sum, Options{}).Handler())
	defer ts.Close()

	for _, tc := range []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/query", "POST"},
		{http.MethodPut, "/query", "POST"},
		{http.MethodDelete, "/query", "POST"},
		{http.MethodHead, "/query", "POST"},
		{http.MethodPost, "/healthz", "GET"},
		{http.MethodPost, "/statsz", "GET"},
		{http.MethodPut, "/statsz", "GET"},
		{http.MethodDelete, "/statsz", "GET"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != tc.allow {
			t.Fatalf("%s %s Allow = %q, want %q", tc.method, tc.path, allow, tc.allow)
		}
	}
}

// TestServeCacheHit exercises the plan/build cache end to end: the first
// request for a query misses and populates, repeats (including
// whitespace-variant spellings) hit, answers stay identical, and stats add
// up.
func TestServeCacheHit(t *testing.T) {
	sum := buildToySummary(t)
	srv := New(sum, Options{SampleLimit: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const sql = "SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 60"
	want := seqCount(t, sum, sql)

	resp, qr := postQuery(t, ts.URL, sql)
	if resp.StatusCode != http.StatusOK || qr.Cache != "miss" {
		t.Fatalf("first request: status %d cache %q, want 200 miss", resp.StatusCode, qr.Cache)
	}
	if qr.Count != want.Count {
		t.Fatalf("first request count %d, want %d", qr.Count, want.Count)
	}
	for i, variant := range []string{
		sql,
		"SELECT  COUNT(*)   FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 60",
		"\tSELECT COUNT(*) FROM r, s\n WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 60 ",
	} {
		resp, qr := postQuery(t, ts.URL, variant)
		if resp.StatusCode != http.StatusOK || qr.Cache != "hit" {
			t.Fatalf("repeat %d: status %d cache %q, want 200 hit", i, resp.StatusCode, qr.Cache)
		}
		if qr.Count != want.Count || qr.Rows != want.Rows {
			t.Fatalf("repeat %d: count/rows %d/%d, want %d/%d", i, qr.Count, qr.Rows, want.Count, want.Rows)
		}
		if qr.Plan == nil || qr.Plan.OutRows != want.Root.OutRows {
			t.Fatalf("repeat %d: cached plan annotation %+v, want root out_rows %d", i, qr.Plan, want.Root.OutRows)
		}
	}
	st := srv.CacheStats()
	if st.Hits != 3 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 3 hits / 1 miss / 1 entry", st)
	}
}

// TestServeCacheLRUEviction fills a size-2 cache with three distinct
// queries and checks the least recently used entry was evicted.
func TestServeCacheLRUEviction(t *testing.T) {
	sum := buildToySummary(t)
	srv := New(sum, Options{})
	srv.cache = newPlanCache(2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := []string{
		"SELECT COUNT(*) FROM s",
		"SELECT COUNT(*) FROM s WHERE s.a >= 20",
		"SELECT COUNT(*) FROM s WHERE s.a >= 40",
	}
	for _, sql := range queries {
		if _, qr := postQuery(t, ts.URL, sql); qr.Cache != "miss" {
			t.Fatalf("%s: cache %q, want miss", sql, qr.Cache)
		}
	}
	if st := srv.CacheStats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want cap 2", st.Entries)
	}
	// queries[0] was evicted; queries[2] is still resident.
	if _, qr := postQuery(t, ts.URL, queries[0]); qr.Cache != "miss" {
		t.Fatalf("evicted query served from cache")
	}
	if _, qr := postQuery(t, ts.URL, queries[2]); qr.Cache != "hit" {
		t.Fatalf("resident query missed")
	}
}

// TestServeRequestExecOptions drives batch_size and parallelism through
// the POST body: valid overrides execute (with identical answers to the
// defaults), invalid ones are rejected through ExecOptions.Normalize with
// 400.
func TestServeRequestExecOptions(t *testing.T) {
	sum := buildToySummary(t)
	ts := httptest.NewServer(New(sum, Options{}).Handler())
	defer ts.Close()

	const sql = "SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 60"
	want := seqCount(t, sum, sql)

	postRaw := func(body string) (*http.Response, QueryResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr QueryResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
		}
		return resp, qr
	}

	for _, body := range []string{
		`{"sql": "` + sql + `", "batch_size": 3}`,
		`{"sql": "` + sql + `", "parallelism": 2}`,
		`{"sql": "` + sql + `", "batch_size": 7, "parallelism": 1}`,
		`{"sql": "` + sql + `", "parallelism": 0}`,
	} {
		resp, qr := postRaw(body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %s: status %d", body, resp.StatusCode)
		}
		if qr.Count != want.Count {
			t.Fatalf("body %s: count %d, want %d", body, qr.Count, want.Count)
		}
	}

	// Parallelism beyond GOMAXPROCS is clamped by Normalize, not rejected,
	// and the response reports the effective value.
	resp, qr := postRaw(`{"sql": "` + sql + `", "parallelism": 1000000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oversubscribed parallelism: status %d", resp.StatusCode)
	}
	if qr.Parallelism > runtime.GOMAXPROCS(0) {
		t.Fatalf("parallelism %d not clamped to GOMAXPROCS", qr.Parallelism)
	}

	// A negative batch size has no sensible meaning: 400 via Normalize.
	resp, _ = postRaw(`{"sql": "` + sql + `", "batch_size": -1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative batch_size: status %d, want 400", resp.StatusCode)
	}
}

// BenchmarkServeQueryCacheHit measures steady-state handler latency for a
// join query served from the plan/build cache — probe cost only, no parse,
// no plan, no hash-table build. Compare with BenchmarkServeQueryCacheMiss
// (which sends every iteration to a fresh server, paying full build cost)
// for the latency the cache removes.
func BenchmarkServeQueryCacheHit(b *testing.B) {
	sum, body := benchSummary(b)
	h := New(sum, Options{}).Handler()
	serveBenchRequest(b, h, body) // warm the cache so the first iteration is hot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBenchRequest(b, h, body)
	}
}

// BenchmarkServeQueryCacheMiss is the same request against a fresh server
// every iteration, built outside the timer: parse + plan + build + probe.
func BenchmarkServeQueryCacheMiss(b *testing.B) {
	sum, body := benchSummary(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := New(sum, Options{}).Handler()
		b.StartTimer()
		serveBenchRequest(b, h, body)
	}
}

func benchSummary(b *testing.B) (*summary.Database, []byte) {
	b.Helper()
	db, err := toy.Database(42)
	if err != nil {
		b.Fatal(err)
	}
	pkg, err := core.CaptureClient(db, toy.Workload(), core.CaptureOptions{SkipStats: true})
	if err != nil {
		b.Fatal(err)
	}
	sum, _, err := core.BuildFromPackage(pkg, summary.DefaultBuildOptions())
	if err != nil {
		b.Fatal(err)
	}
	body, _ := json.Marshal(QueryRequest{SQL: "SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 60"})
	return sum, body
}

func serveBenchRequest(b *testing.B, h http.Handler, body []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// TestNormalizeSQL: whitespace collapses outside string literals only —
// whitespace inside a literal is data, and aliasing 'a  b' to 'a b' would
// serve one query's answer for the other.
func TestNormalizeSQL(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"SELECT  COUNT(*)\t FROM r ", "SELECT COUNT(*) FROM r"},
		{"  \n SELECT * FROM r", "SELECT * FROM r"},
		{"SELECT * FROM r WHERE a = 'x  y'", "SELECT * FROM r WHERE a = 'x  y'"},
		{"SELECT * FROM r   WHERE a = 'x  y'  AND b = 1", "SELECT * FROM r WHERE a = 'x  y' AND b = 1"},
		{"WHERE a = 'it''s  ok'   AND b=1", "WHERE a = 'it''s  ok' AND b=1"},
		{"WHERE a = '\ttabs\t'", "WHERE a = '\ttabs\t'"},
	} {
		if got := normalizeSQL(tc.in); got != tc.want {
			t.Errorf("normalizeSQL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// Literal-internal whitespace must keep distinct queries distinct.
	if normalizeSQL("WHERE a = 'x  y'") == normalizeSQL("WHERE a = 'x y'") {
		t.Fatal("distinct literals alias to one cache key")
	}
}

// TestPlanCacheSingleflight: concurrent misses on one cold key run the
// build exactly once; every caller shares the result, and exactly one
// entry lands in the cache.
func TestPlanCacheSingleflight(t *testing.T) {
	c := newPlanCache(8)
	var builds int32
	want := &engine.Prepared{}
	build := func() (*engine.Prepared, error) {
		atomic.AddInt32(&builds, 1)
		time.Sleep(20 * time.Millisecond) // widen the herd window
		return want, nil
	}
	const herd = 16
	var wg sync.WaitGroup
	got := make([]*engine.Prepared, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prep, _, err := c.do("k", build)
			if err != nil {
				t.Error(err)
			}
			got[i] = prep
		}(i)
	}
	wg.Wait()
	if n := atomic.LoadInt32(&builds); n != 1 {
		t.Fatalf("herd of %d ran %d builds, want 1", herd, n)
	}
	for i, prep := range got {
		if prep != want {
			t.Fatalf("caller %d got a different Prepared", i)
		}
	}
	if st := c.stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	// A build error is shared with the herd but never cached.
	boom := func() (*engine.Prepared, error) { return nil, errBoom }
	if _, _, err := c.do("bad", boom); err != errBoom {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if st := c.stats(); st.Entries != 1 {
		t.Fatalf("error was cached: %d entries", st.Entries)
	}
}

var errBoom = errors.New("boom")

// TestServeBodyLimits pins the request-body hardening: an oversized body is
// rejected with 413 before it can be decoded, and a declared non-JSON
// content type with 415. Absent content types are tolerated; +json suffixes
// pass.
func TestServeBodyLimits(t *testing.T) {
	sum := buildToySummary(t)
	ts := httptest.NewServer(New(sum, Options{}).Handler())
	defer ts.Close()

	// One byte past the cap: 413.
	big := append([]byte(`{"sql": "`), bytes.Repeat([]byte(" "), MaxQueryBody)...)
	big = append(big, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// Non-JSON content types: 415.
	const sql = `{"sql": "SELECT COUNT(*) FROM s"}`
	for _, ct := range []string{"text/plain", "application/x-www-form-urlencoded", "application/octet-stream", "such nonsense;;"} {
		resp, err := http.Post(ts.URL+"/query", ct, strings.NewReader(sql))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("content type %q: status %d, want 415", ct, resp.StatusCode)
		}
	}

	// JSON spellings and a bare client with no content type still work.
	for _, ct := range []string{"application/json", "application/json; charset=utf-8", "application/vnd.api+json", ""} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(sql))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("content type %q: status %d, want 200", ct, resp.StatusCode)
		}
	}
}

// TestServeGroupedQuery runs grouped-aggregate SQL end to end through the
// HTTP front end and the plan/build cache: group rows arrive in the sample,
// the row count is the group count, answers match in-process execution, and
// the repeat is a cache hit with identical rows.
func TestServeGroupedQuery(t *testing.T) {
	sum := buildToySummary(t)
	srv := New(sum, Options{SampleLimit: 100, Parallelism: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, sql := range []string{
		"SELECT t.c, COUNT(*) FROM t GROUP BY t.c",
		"SELECT s.a, COUNT(*), SUM(s.b), MIN(s.b), MAX(s.b), AVG(s.b) FROM s WHERE s.a < 30 GROUP BY s.a",
		"SELECT COUNT(*), SUM(s.b) FROM s",
	} {
		db := core.RegenDatabase(sum, 0)
		q, err := sqlkit.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.BuildPlan(db.Schema, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.ExecuteContext(context.Background(), db, plan, engine.ExecOptions{SampleLimit: 100})
		if err != nil {
			t.Fatal(err)
		}

		resp, qr := postQuery(t, ts.URL, sql)
		if resp.StatusCode != http.StatusOK || qr.Cache != "miss" {
			t.Fatalf("%s: status %d cache %q", sql, resp.StatusCode, qr.Cache)
		}
		if qr.Rows != want.Rows || !reflect.DeepEqual(qr.Sample, want.Sample) {
			t.Fatalf("%s: served %d %v, want %d %v", sql, qr.Rows, qr.Sample, want.Rows, want.Sample)
		}
		resp, qr2 := postQuery(t, ts.URL, sql)
		if resp.StatusCode != http.StatusOK || qr2.Cache != "hit" {
			t.Fatalf("%s repeat: status %d cache %q", sql, resp.StatusCode, qr2.Cache)
		}
		if !reflect.DeepEqual(qr2.Sample, qr.Sample) {
			t.Fatalf("%s: cached rows drifted: %v vs %v", sql, qr2.Sample, qr.Sample)
		}
	}
}

// getStats fetches and decodes GET /statsz.
func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /statsz = %d, want 200", resp.StatusCode)
	}
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestServeStatsz pins GET /statsz: cache counters mirror CacheStats, and
// the recent ring carries completed queries newest-first with SQL, cache
// disposition, cardinality, request ID, and timing.
func TestServeStatsz(t *testing.T) {
	sum := buildToySummary(t)
	srv := New(sum, Options{SampleLimit: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Before any query: cache empty, no recent queries.
	sr := getStats(t, ts.URL)
	if len(sr.Recent) != 0 || sr.Cache.Hits != 0 || sr.Cache.Misses != 0 {
		t.Fatalf("fresh statsz = %+v", sr)
	}

	sql := toy.Workload()[1]
	want := seqCount(t, sum, sql)
	if resp, _ := postQuery(t, ts.URL, sql); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	sr = getStats(t, ts.URL)
	if len(sr.Recent) != 1 || sr.Recent[0].SQL != sql || sr.Recent[0].Cache != "miss" {
		t.Fatalf("statsz after miss = %+v", sr.Recent)
	}
	if sr.Recent[0].Rows != want.Rows {
		t.Fatalf("statsz rows = %d, want %d", sr.Recent[0].Rows, want.Rows)
	}
	if sr.Recent[0].ElapsedNS <= 0 || sr.Recent[0].RequestID == "" || sr.Recent[0].TopOp == "" {
		t.Fatalf("statsz summary incomplete: %+v", sr.Recent[0])
	}
	if sr.Cache != srv.CacheStats() {
		t.Fatalf("statsz cache = %+v, want %+v", sr.Cache, srv.CacheStats())
	}

	// A repeat is a hit; the ring is newest-first, so it leads.
	if resp, _ := postQuery(t, ts.URL, sql); resp.StatusCode != http.StatusOK {
		t.Fatal("repeat failed")
	}
	sr = getStats(t, ts.URL)
	if len(sr.Recent) != 2 || sr.Recent[0].Cache != "hit" || sr.Recent[1].Cache != "miss" {
		t.Fatalf("statsz after hit = %+v %+v", sr.Recent, sr.Cache)
	}
	if sr.Cache.Hits != 1 || sr.Cache.Misses != 1 {
		t.Fatalf("statsz cache after hit = %+v", sr.Cache)
	}

	// A failed query records nothing.
	if resp, _ := postQuery(t, ts.URL, "SELECT nope FROM nowhere"); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("bad query not rejected")
	}
	if sr = getStats(t, ts.URL); len(sr.Recent) != 2 {
		t.Fatalf("failed query entered the ring: %+v", sr.Recent)
	}
}

// TestQueryRing pins the ring's overwrite-and-order behavior past capacity.
func TestQueryRing(t *testing.T) {
	var q queryRing
	if got := q.snapshot(); got != nil {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 0; i < QueryRingSize+5; i++ {
		q.add(QuerySummary{SQL: fmt.Sprintf("q%d", i)})
	}
	got := q.snapshot()
	if len(got) != QueryRingSize {
		t.Fatalf("ring holds %d, want %d", len(got), QueryRingSize)
	}
	for i, s := range got {
		if want := fmt.Sprintf("q%d", QueryRingSize+4-i); s.SQL != want {
			t.Fatalf("ring[%d] = %q, want %q (newest first)", i, s.SQL, want)
		}
	}
}

// TestServeSortLimitDistinct runs the ORDER BY / LIMIT / DISTINCT workload
// through POST /query and holds rows, samples, and annotated plans to the
// sequential in-process reference — the serve front end gets the new
// clauses from the shared operator framework, not from serve-side code.
func TestServeSortLimitDistinct(t *testing.T) {
	sum := buildToySummary(t)
	ts := httptest.NewServer(New(sum, Options{Parallelism: 2, SampleLimit: 4}).Handler())
	defer ts.Close()

	db := core.RegenDatabase(sum, 0)
	for _, sql := range toy.SortWorkload() {
		q, err := sqlkit.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.BuildPlan(db.Schema, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.ExecuteContext(context.Background(), db, plan, engine.ExecOptions{SampleLimit: 4})
		if err != nil {
			t.Fatal(err)
		}
		resp, qr := postQuery(t, ts.URL, sql)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", sql, resp.StatusCode)
		}
		if qr.Rows != want.Rows || !reflect.DeepEqual(qr.Sample, want.Sample) {
			t.Fatalf("%s: served %d %v, want %d %v", sql, qr.Rows, qr.Sample, want.Rows, want.Sample)
		}
		if qr.Plan == nil || qr.Plan.Op != want.Root.Op || qr.Plan.OutRows != want.Root.OutRows {
			t.Fatalf("%s: served plan %+v, want %+v", sql, qr.Plan, want.Root)
		}
	}
}
