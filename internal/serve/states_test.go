package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/summary"
)

// The server's pool of idle execution states (statePool): every request
// runs in a state an earlier one returned, the pool holds its states
// strongly and at most GOMAXPROCS of them, and requests that overlap never
// share one.

// pooled returns the pool's idle states, most recently returned last.
func pooled(srv *Server) []*engine.ExecState {
	srv.pool.mu.Lock()
	defer srv.pool.mu.Unlock()
	return append([]*engine.ExecState(nil), srv.pool.idle...)
}

// oneP runs the rest of the test at GOMAXPROCS 1, the pool's cap at one
// state.
func oneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// sampled answers sql on a fresh regenerating database with the server's
// sample size.
func sampled(t *testing.T, sum *summary.Database, sql string, limit int) *engine.ExecResult {
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
	res, err := engine.ExecuteContext(context.Background(), db, plan, engine.ExecOptions{SampleLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wantAnswer posts sql and holds the reply to want. It reads the body to
// its end, which net/http sends only once the handler has returned: by
// then the request has returned its state to the pool.
func wantAnswer(t *testing.T, url string, want *engine.ExecResult, sql, cache string) {
	t.Helper()
	resp, data := postQueryFull(t, url, QueryRequest{SQL: sql})
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("%s: %v (%s)", sql, err, data)
	}
	if resp.StatusCode != http.StatusOK || qr.Cache != cache {
		t.Fatalf("%s: status %d cache %q, want 200 %q", sql, resp.StatusCode, qr.Cache, cache)
	}
	if qr.Count != want.Count || qr.Rows != want.Rows || qr.Path != want.Path ||
		(want.Sample != nil && fmt.Sprint(qr.Sample) != fmt.Sprint(want.Sample)) {
		t.Fatalf("%s: count/rows/path %d/%d/%s sample %v, want %d/%d/%s %v", sql,
			qr.Count, qr.Rows, qr.Path, qr.Sample, want.Count, want.Rows, want.Path, want.Sample)
	}
}

// TestServeRunsInPooledState: sequential requests — misses and hits, of a
// pruned join, a summary answer, a grouped aggregate and a top-K in turn —
// all run in the one state the first of them returned, each answering as
// a fresh execution does; a collection between requests leaves the state
// pooled, so what a request allocates does not depend on the collector.
func TestServeRunsInPooledState(t *testing.T) {
	oneP(t)
	sum := buildToySummary(t)
	srv := New(sum, Options{SampleLimit: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sqls := []string{
		"SELECT COUNT(*) FROM r, s WHERE r.s_fk = s.s_pk AND s.a >= 20 AND s.a < 60",
		"SELECT COUNT(*) FROM s WHERE s.a >= 20 AND s.a < 60",
		"SELECT t.c, COUNT(*), SUM(t.c) FROM t GROUP BY t.c",
		"SELECT * FROM r ORDER BY r.t_fk DESC LIMIT 5",
	}
	var first *engine.ExecState
	for round, cache := range []string{"miss", "hit", "hit"} {
		for _, sql := range sqls {
			wantAnswer(t, ts.URL, sampled(t, sum, sql, 8), sql, cache)
			idle := pooled(srv)
			if first == nil && len(idle) == 1 {
				first = idle[0]
			}
			if len(idle) != 1 || idle[0] != first {
				t.Fatalf("%s round %d: pool holds %v, want the first request's %p alone", sql, round, idle, first)
			}
			runtime.GC()
		}
	}
}

// gatedR is slowR with a gate run once, before its first batch.
type gatedR struct {
	slowR
	gate func()
}

func (g *gatedR) NextColBatch(dst *batch.ColBatch, cols []int) bool {
	if g.gate != nil {
		g.gate()
		g.gate = nil
	}
	return g.slowR.NextColBatch(dst, cols)
}

// TestServeOverlappingRequestsOpenFreshState: while one request runs in
// the pooled state, a second request for the same plan finds the pool
// empty and runs in a fresh state; both answer correctly. The second
// returns first and its state is pooled; the pool, at its cap of one
// state, lets the first request's state go.
func TestServeOverlappingRequestsOpenFreshState(t *testing.T) {
	oneP(t)
	const total = 5000
	srv := New(buildToySummary(t), Options{Logf: t.Logf})
	entered, release := make(chan struct{}), make(chan struct{})
	var opens atomic.Int64
	srv.db.SetDatagen("r", func() (batch.ColProjector, error) {
		g := &gatedR{slowR: slowR{total: total}}
		// Open 1 is the warm-up's; open 2 is request A's rewind of the
		// pooled state (the source cannot seek, so it reopens).
		if opens.Add(1) == 2 {
			g.gate = func() {
				close(entered)
				<-release
			}
		}
		return g, nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A failing check must still let A finish, or ts.Close waits on it.
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	const sql = "SELECT COUNT(*) FROM r"
	want := &engine.ExecResult{Count: total, Rows: 1, Path: engine.PathRegen}

	wantAnswer(t, ts.URL, want, sql, "miss")
	idle := pooled(srv)
	if len(idle) != 1 {
		t.Fatalf("pool holds %d states after the warm-up, want 1", len(idle))
	}
	warm := idle[0]
	a := make(chan []byte, 1)
	go func() {
		_, data, _ := tryPostQuery(ts.URL, QueryRequest{SQL: sql})
		a <- data
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("request A never reached its scan")
	}
	// A holds the pooled state inside its scan: B runs beside it.
	wantAnswer(t, ts.URL, want, sql, "hit")
	idle = pooled(srv)
	if len(idle) != 1 || idle[0] == warm {
		t.Fatalf("B returned %v, want one fresh state, not the warm %p A holds", idle, warm)
	}
	b := idle[0]
	free()
	var qr QueryResponse
	if data := <-a; json.Unmarshal(data, &qr) != nil || qr.Count != total || qr.Cache != "hit" {
		t.Fatalf("A replied %s, want count %d, a hit", data, total)
	}
	if idle = pooled(srv); len(idle) != 1 || idle[0] != b {
		t.Fatalf("pool holds %v after A, want B's %p alone (the cap is GOMAXPROCS)", idle, b)
	}
}

// TestServeTimedOutRunReturnsState: a request that hits its timeout_ms
// returns its state like any other, and the next request rewinds that same
// state and answers in full.
func TestServeTimedOutRunReturnsState(t *testing.T) {
	oneP(t)
	// 200k rows at ~1ms per 1024-row batch ≈ 200ms of work.
	srv, delay := slowServer(t, 200_000, time.Millisecond, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const sql = "SELECT COUNT(*) FROM r"
	tmo := int64(10)
	if resp, body := postQueryFull(t, ts.URL, QueryRequest{SQL: sql, TimeoutMS: &tmo}); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query got %d (%s), want 504", resp.StatusCode, body)
	}
	idle := pooled(srv)
	if len(idle) != 1 {
		t.Fatalf("the timed-out request returned %d states, want 1", len(idle))
	}
	delay.Store(0)
	want := &engine.ExecResult{Count: 200_000, Rows: 1, Path: engine.PathRegen}
	wantAnswer(t, ts.URL, want, sql, "hit")
	if got := pooled(srv); len(got) != 1 || got[0] != idle[0] {
		t.Fatalf("the next request returned %v, want the timed-out request's %p, rewound", got, idle[0])
	}
}
