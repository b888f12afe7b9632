package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
)

// slowR is a datagen source for the toy schema's r table (r_pk, s_fk,
// t_fk): rows are a pure function of their index, and every batch sleeps
// by the current delay — settable at runtime, so one server can serve a
// slow query and then a fast one.
type slowR struct {
	total   int64
	delayNS atomic.Int64
	pos     int64
}

func (g *slowR) NextColBatch(dst *batch.ColBatch, cols []int) bool {
	if d := g.delayNS.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	dst.Reset()
	n := int(min(g.total-g.pos, int64(dst.Cap())))
	if n <= 0 {
		return false
	}
	dst.SetLen(n)
	for _, c := range cols {
		mod := []int64{1 << 62, 7, 5}[c] // row i is (i, i%7, i%5)
		for i, out := 0, dst.Col(c); i < n; i++ {
			out[i] = (g.pos + int64(i)) % mod
		}
	}
	g.pos += int64(n)
	return true
}

// slowServer builds a server over the toy summary whose r scans stream
// from a slowR of `total` rows, plus the shared delay knob.
func slowServer(t *testing.T, total int64, delay time.Duration, opts Options) (*Server, *atomic.Int64) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	srv := New(buildToySummary(t), opts)
	var delayNS atomic.Int64
	delayNS.Store(int64(delay))
	srv.db.SetDatagen("r", func() (batch.ColProjector, error) {
		g := &slowR{total: total}
		g.delayNS.Store(delayNS.Load())
		return g, nil
	})
	return srv, &delayNS
}

func postQueryFull(t *testing.T, url string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	resp, data, err := tryPostQuery(url, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// tryPostQuery is postQueryFull without the test dependency — the form
// helper goroutines use (t.Fatal must not run off the test goroutine).
func tryPostQuery(url string, req QueryRequest) (*http.Response, []byte, error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

// TestServeAdmissionShed: with one execution slot held and no queue, the
// next request is shed immediately with 429 + Retry-After.
func TestServeAdmissionShed(t *testing.T) {
	srv, _ := slowServer(t, 1000, 0, Options{MaxInFlight: 1, MaxQueue: 0})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHookAdmitted = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	holder := make(chan *http.Response, 1)
	go func() {
		resp, _, _ := tryPostQuery(ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM r"})
		holder <- resp
	}()
	<-entered

	resp, body := postQueryFull(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM r"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request got %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 response has no Retry-After header")
	}
	close(release)
	if resp := <-holder; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("slot holder got %d, want 200", resp.StatusCode)
	}
}

// TestServeQueueWaitThenAdmit: a queued request is admitted when the slot
// frees within the wait, and shed with 429 when it does not.
func TestServeQueueWaitThenAdmit(t *testing.T) {
	srv, _ := slowServer(t, 1000, 0, Options{MaxInFlight: 1, MaxQueue: 4, QueueWait: 30 * time.Millisecond})
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	var first atomic.Bool
	srv.testHookAdmitted = func() {
		entered <- struct{}{}
		if first.CompareAndSwap(false, true) {
			<-release
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	go tryPostQuery(ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM r"})
	<-entered

	// Queued past the 30ms wait: shed.
	resp, _ := postQueryFull(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM r"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-timeout request got %d, want 429", resp.StatusCode)
	}

	// Queued with the slot released mid-wait: admitted.
	admitted := make(chan *http.Response, 1)
	go func() {
		resp, _, _ := tryPostQuery(ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM r"})
		admitted <- resp
	}()
	time.Sleep(5 * time.Millisecond) // let it join the queue
	close(release)
	if resp := <-admitted; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("queued request got %d after the slot freed, want 200", resp.StatusCode)
	}
}

// TestServeTimeoutMS: a slow query under a 10ms timeout_ms fails fast with
// 504; the same server then answers the identical query correctly once the
// slowness is removed — and the canceled execution has not poisoned the
// plan cache (the retry is a cache hit with the right count).
func TestServeTimeoutMS(t *testing.T) {
	// 200k rows at ~1ms per 1024-row batch ≈ 200ms of work.
	srv, delay := slowServer(t, 200_000, time.Millisecond, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tmo := int64(10)
	start := time.Now()
	resp, body := postQueryFull(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM r", TimeoutMS: &tmo})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query got %d (%s), want 504", resp.StatusCode, body)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("10ms timeout took %v to fail", elapsed)
	}

	delay.Store(0)
	resp, data := postQueryFull(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM r"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after timeout got %d (%s), want 200", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 200_000 {
		t.Fatalf("retry counted %d, want 200000 — canceled execution poisoned the cache", qr.Count)
	}
	if qr.Cache != "hit" {
		t.Fatalf("retry was served %q, want \"hit\" (the timed-out miss should have filled the cache)", qr.Cache)
	}
}

// TestServeMaxTimeoutCap: the server cap applies when the request asks for
// more — or for nothing.
func TestServeMaxTimeoutCap(t *testing.T) {
	srv, _ := slowServer(t, 200_000, time.Millisecond, Options{MaxTimeout: 10 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, req := range map[string]QueryRequest{
		"no timeout_ms":   {SQL: "SELECT COUNT(*) FROM r"},
		"huge timeout_ms": {SQL: "SELECT COUNT(*) FROM r", TimeoutMS: ptrInt64(60_000)},
		// In nanoseconds this overflows int64 to a negative Duration.
		"overflowing timeout_ms": {SQL: "SELECT COUNT(*) FROM r", TimeoutMS: ptrInt64(9223372036855)},
	} {
		resp, body := postQueryFull(t, ts.URL, req)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: got %d (%s), want 504 via MaxTimeout", name, resp.StatusCode, body)
		}
	}
}

func ptrInt64(v int64) *int64 { return &v }

// TestServeBadTimeoutMS: non-positive timeout_ms is a 400, and so, with no
// MaxTimeout to clamp it, is one too large for a time.Duration.
func TestServeBadTimeoutMS(t *testing.T) {
	srv := New(buildToySummary(t), Options{Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, v := range []int64{0, -5, 9223372036855} {
		resp, _ := postQueryFull(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM r", TimeoutMS: &v})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("timeout_ms %d got %d, want 400", v, resp.StatusCode)
		}
	}
}

// TestServeDrain: BeginDrain refuses fresh and queued requests with 503 +
// Retry-After while the admitted query finishes; CancelInFlight then
// force-unwinds a running query into a 499.
func TestServeDrain(t *testing.T) {
	srv, _ := slowServer(t, 2_000_000, time.Millisecond, Options{MaxInFlight: 2})
	entered := make(chan struct{}, 2)
	srv.testHookAdmitted = func() { entered <- struct{}{} }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A long query is admitted and running (~2000ms of work).
	running := make(chan *http.Response, 1)
	go func() {
		resp, _, _ := tryPostQuery(ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM r"})
		running <- resp
	}()
	<-entered

	srv.BeginDrain()
	resp, _ := postQueryFull(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM r"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 response has no Retry-After header")
	}

	// Grace expired: hard-cancel. The in-flight query unwinds with 499.
	srv.CancelInFlight()
	select {
	case resp := <-running:
		if resp == nil || resp.StatusCode != StatusClientClosedRequest {
			t.Fatalf("hard-canceled query got %d, want %d", resp.StatusCode, StatusClientClosedRequest)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hard-canceled query did not return")
	}
}

// TestServeMetricsz: the exposition carries the gauges, outcome counters,
// shed counters, and histograms, and they move with traffic.
func TestServeMetricsz(t *testing.T) {
	srv, _ := slowServer(t, 100, 0, Options{MaxInFlight: 1, MaxQueue: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One success, one bad request.
	if resp, body := postQueryFull(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM r"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query got %d (%s)", resp.StatusCode, body)
	}
	if resp, _ := postQueryFull(t, ts.URL, QueryRequest{SQL: ""}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sql got %d, want 400", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metricsz content type %q, want text/plain exposition", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"hydra_inflight_queries 0",
		"hydra_queued_queries 0",
		`hydra_requests_total{outcome="ok"} 1`,
		`hydra_requests_total{outcome="bad_request"} 1`,
		`hydra_shed_total{reason="queue_full"} 0`,
		`hydra_request_duration_seconds_count{outcome="ok"} 1`,
		`hydra_request_duration_seconds_bucket{outcome="ok",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metricsz missing %q; got:\n%s", want, text)
		}
	}
}

// TestWriteJSONErrors: an unencodable value yields a well-formed 500 and a
// log line; a failing writer yields a log line and no second WriteHeader.
func TestWriteJSONErrors(t *testing.T) {
	var logged []string
	srv := New(buildToySummary(t), Options{Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})

	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, make(chan int)) // channels cannot marshal
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable value wrote status %d, want 500", rec.Code)
	}
	if len(logged) == 0 || !strings.Contains(logged[0], "encoding") {
		t.Fatalf("encode failure not logged: %v", logged)
	}

	logged = nil
	fw := &failingWriter{ResponseWriter: httptest.NewRecorder()}
	srv.writeJSON(fw, http.StatusOK, map[string]int{"a": 1})
	if len(logged) == 0 || !strings.Contains(logged[0], "writing") {
		t.Fatalf("write failure not logged: %v", logged)
	}
	if fw.headerCalls != 1 {
		t.Fatalf("WriteHeader called %d times, want exactly 1", fw.headerCalls)
	}
}

type failingWriter struct {
	http.ResponseWriter
	headerCalls int
}

func (f *failingWriter) WriteHeader(status int) {
	f.headerCalls++
	f.ResponseWriter.WriteHeader(status)
}

func (f *failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("connection reset by peer")
}
