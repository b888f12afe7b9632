package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
)

const (
	serveCallers = 2  // closed-loop callers, one keep-alive connection each
	hotSetSize   = 32 // distinct queries of serve_hot: half the plan cache
	zipfS        = 1.3
	coldChecked  = 32 // serve_cold compares one request in this many with the oracle
	// coldMinOps keeps serve_cold's replayed sequence longer than the plan
	// cache (serve.DefaultCacheSize entries), so that no replay finds an
	// entry of the previous one, even at -quick sizes.
	coldMinOps = 2 * serve.DefaultCacheSize
)

// reply is the part of a QueryResponse the harness reads.
type reply struct {
	Count     int64     `json:"count"`
	Rows      int64     `json:"rows"`
	Sample    [][]int64 `json:"sample"`
	Cache     string    `json:"cache"`
	ElapsedNS int64     `json:"elapsed_ns"`
	Path      string    `json:"path"`
}

// serveRunner drives serve_hot and serve_cold: POST /query over loopback
// to a server in this process, from serveCallers callers that each wait
// for a reply before sending the next request.
type serveRunner struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error // the serving goroutine's exit
	client *http.Client
	url    string
	direct *engine.Database // a second dataless database, for the direct engine slice

	shapes    []shape
	bodies    [][]byte // request body per shape
	seq       []int    // the cyclic sequence of shapes posted
	next      int      // where in seq the next slice starts
	wantCache string   // the cache state every timed reply must report

	rec atomic.Pointer[recorder] // set while the traced slice runs

	// totals over every slice since the last reset
	requests, summaryPath, shed int
	reqBytes, respBytes         int64
	elapsedNS                   int64 // Σ QueryResponse.ElapsedNS, traced slice only
	statsBefore                 serve.CacheStats
}

func newServeRunner(e *env, shapes []shape, seq []int, wantCache string) (*serveRunner, error) {
	r := &serveRunner{
		srv: serve.New(e.sum, serve.Options{
			SampleLimit: sampleLimit,
			MaxInFlight: serveCallers,
			MaxQueue:    16,
			Logf:        func(string, ...any) {},
			Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		}),
		served:    make(chan error, 1),
		shapes:    shapes,
		seq:       seq,
		wantCache: wantCache,
	}
	for _, s := range shapes {
		body, err := json.Marshal(serve.QueryRequest{SQL: s.sql})
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, body)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.url = "http://" + ln.Addr().String() + "/query"
	r.hs = &http.Server{Handler: r.spanned(r.srv.Handler())}
	go func() { r.served <- r.hs.Serve(ln) }()
	r.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveCallers,
		MaxConnsPerHost:     serveCallers,
	}}
	return r, nil
}

// spanned wraps the server's handler with a span, recorded only while the
// traced slice runs. The caller names its op and round-trip span in
// X-Request-Id, which is how the two sides of a request are joined.
func (r *serveRunner) spanned(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := r.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, req)
			return
		}
		op, parent := -1, -1
		if a, b, ok := strings.Cut(req.Header.Get("X-Request-Id"), "/"); ok {
			op, _ = strconv.Atoi(a)
			parent, _ = strconv.Atoi(b)
		}
		sp := rec.begin("serve.handler", op, parent)
		h.ServeHTTP(w, req)
		rec.end(sp)
	})
}

// post sends op i's request, for shape si, and reads the reply. The latency covers bytes
// out to bytes in; decoding the reply for the check is the harness's own
// work and is left out.
func (r *serveRunner) post(rec *recorder, i, si int, buf *bytes.Buffer) (status int, d time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, r.url, bytes.NewReader(r.bodies[si]))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := -1
	t0 := time.Now()
	if rec != nil {
		sp = rec.begin("serve.roundtrip", i, -1)
		req.Header.Set("X-Request-Id", strconv.Itoa(i)+"/"+strconv.Itoa(sp))
	}
	resp, err := r.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	rec.end(sp)
	return status, time.Since(t0), err
}

// slice posts the next len(lat) requests of the cyclic sequence. The
// cursor carries over from slice to slice (a full slice is still the same
// requests each time, rotated): serve_cold must not meet a request again
// before the plan cache has turned over, and a warm-up that restarted the
// sequence would make the first timed requests hits.
func (r *serveRunner) slice(rec *recorder, lat []time.Duration) (int, error) {
	r.rec.Store(rec)
	defer r.rec.Store(nil)
	shapeOf := func(i int) int { return r.seq[(r.next+i)%len(r.seq)] }
	defer func() { r.next = (r.next + len(lat)) % len(r.seq) }()
	type tally struct {
		failed, summaryPath, shed int
		respBytes, elapsedNS      int64
		guard                     error
	}
	tallies := make([]tally, serveCallers)
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(t *tally, first int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := first; i < len(lat); i += serveCallers {
				si := shapeOf(i)
				status, d, err := r.post(rec, i, si, &buf)
				lat[i] = d
				t.respBytes += int64(buf.Len())
				if status == http.StatusTooManyRequests {
					t.shed++
				}
				var got reply
				if err != nil || status != http.StatusOK || json.Unmarshal(buf.Bytes(), &got) != nil {
					t.failed++
					continue
				}
				s := &r.shapes[si]
				if !s.want.equal(got.Rows, got.Count, got.Sample) {
					t.failed++
					continue
				}
				if got.Cache != r.wantCache && t.guard == nil {
					t.guard = fmt.Errorf("regime guard: request %d reports cache %q, want %q: %s", i, got.Cache, r.wantCache, s.sql)
				}
				if got.Path == engine.PathSummary {
					t.summaryPath++
				}
				t.elapsedNS += got.ElapsedNS
			}
		}(&tallies[c], c)
	}
	wg.Wait()
	failed := 0
	if rec != nil {
		r.elapsedNS = 0
	}
	for _, t := range tallies {
		if t.guard != nil {
			return failed, t.guard
		}
		failed += t.failed
		r.summaryPath += t.summaryPath
		r.shed += t.shed
		r.respBytes += t.respBytes
		if rec != nil {
			r.elapsedNS += t.elapsedNS
		}
	}
	r.requests += len(lat)
	for i := range lat {
		r.reqBytes += int64(len(r.bodies[shapeOf(i)]))
	}
	return failed, nil
}

// resetCounts starts the totals the ledger reports; called once the cache
// is in the state the workload is about.
func (r *serveRunner) resetCounts() {
	r.requests, r.summaryPath, r.shed, r.reqBytes, r.respBytes = 0, 0, 0, 0, 0
	r.statsBefore = r.srv.CacheStats()
}

func (r *serveRunner) layers(l ledger, rec *recorder, _ *phase) error {
	handler, roundtrip := rec.durations("serve.handler"), rec.durations("serve.roundtrip")
	if len(handler) != len(roundtrip) {
		return fmt.Errorf("traced slice: %d handler spans for %d round trips", len(handler), len(roundtrip))
	}
	n := len(roundtrip)
	h, rt := us(mean(handler)), us(mean(roundtrip))
	// ElapsedNS is the server's own clock from the request's arrival in the
	// handler to the answer being ready: decode, admission, cache look-up
	// or prepare, and execution. What is left of the handler is encoding
	// and writing the reply, and the server's bookkeeping.
	elapsed := float64(r.elapsedNS) / 1e3 / float64(n)
	l.set("serve.handler_us", h, n, 0)
	l.set("serve.transport_us", rt-h, n, 0)
	l.set("serve.engine_us", elapsed, n, 0)
	l.set("serve.overhead_us", h-elapsed, n, 0)

	req := float64(r.requests)
	after := r.srv.CacheStats()
	hits, misses := after.Hits-r.statsBefore.Hits, after.Misses-r.statsBefore.Misses
	l.set("serve.request_bytes", float64(r.reqBytes)/req, r.requests, 0)
	l.set("serve.response_bytes", float64(r.respBytes)/req, r.requests, 0)
	l.set("serve.cache_hit_share", float64(hits)/float64(hits+misses), int(hits+misses), 0)
	// Every miss inserts, and an insert that did not grow the cache evicted.
	// Per request, so that the figure does not depend on -seconds.
	l.set("serve.cache_evictions", float64(misses-int64(after.Entries-r.statsBefore.Entries))/req, r.requests, 0)
	l.set("serve.summary_path_share", float64(r.summaryPath)/req, r.requests, 0)
	l.set("serve.shed", float64(r.shed), r.requests, 0)

	if r.wantCache == "miss" {
		return r.directEngine(l, n)
	}
	return nil
}

// directEngine runs the traced slice's queries once more straight into
// the engine, stage by stage: on a cache miss the server does exactly
// this, and from outside the server the stages cannot be told apart.
func (r *serveRunner) directEngine(l ledger, n int) error {
	rec := newRecorder(n * 8)
	var acc engineAcc
	opts := engine.ExecOptions{SampleLimit: sampleLimit}
	for i := 0; i < n; i++ {
		op := rec.begin("op", i, -1)
		res, err := stagedQuery(rec, i, op, r.direct, r.shapes[r.seq[i%len(r.seq)]].sql, opts)
		rec.end(op)
		if err != nil {
			return fmt.Errorf("direct engine slice: %w", err)
		}
		acc.observe(res)
	}
	if err := rec.checkCoverage("op"); err != nil {
		return err
	}
	engineLedger(l, rec, &acc, n)
	return nil
}

func (r *serveRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.hs.Shutdown(ctx) // on a timeout Close below still ends the server
	_ = r.hs.Close()
	<-r.served
	r.client.CloseIdleConnections()
}

// hotSet ranks hotSetSize instances of S1–S6, the hottest first, dealing
// the templates round-robin so that the head of the zipf holds all three
// cheap regimes and not thirty windows of one template.
func hotSet(rng *rand.Rand, factRows int64) []shape {
	byTemplate := selectiveInstances(rng, factRows, hotSetSize)
	var out []shape
	for round := 0; len(out) < hotSetSize; round++ {
		for _, inst := range byTemplate {
			if round < len(inst) && len(out) < hotSetSize {
				out = append(out, inst[round])
			}
		}
	}
	return out
}

// zipfSequence is n requests over ranks [0, k) in zipf(zipfS) proportions
// — rank r gets its exact share n·(1+r)^-s ÷ Σ, rounded by largest
// remainder — in a seeded order. The seed decides when each request comes,
// not how many of each there are: a sampled mix would move every per-op
// figure by the sampling error of the hottest queries' shares (2.4% of
// alloc_kb_per_op between seeds) for no information.
func zipfSequence(rng *rand.Rand, k, n int) []int {
	weight := make([]float64, k)
	var total float64
	for r := range weight {
		weight[r] = math.Pow(float64(1+r), -zipfS)
		total += weight[r]
	}
	type quota struct {
		rank, count int
		rest        float64
	}
	quotas := make([]quota, k)
	left := n
	for r := range quotas {
		exact := float64(n) * weight[r] / total
		quotas[r] = quota{r, int(exact), exact - math.Floor(exact)}
		left -= quotas[r].count
	}
	sort.SliceStable(quotas, func(i, j int) bool { return quotas[i].rest > quotas[j].rest })
	for i := 0; i < left; i++ {
		quotas[i].count++
	}
	seq := make([]int, 0, n)
	for _, q := range quotas {
		for i := 0; i < q.count; i++ {
			seq = append(seq, q.rank)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func prepServeHot(e *env, n int) (runner, error) {
	oracle, err := e.takeOracle()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	shapes := hotSet(rng, e.sum.Relations[factTable].Total)
	if err := withAnswers(oracle, shapes); err != nil {
		return nil, err
	}
	seq := zipfSequence(rng, len(shapes), n)
	r, err := newServeRunner(e, shapes, seq, "miss")
	if err != nil {
		return nil, err
	}
	// Fill the plan cache: each hot query once, every one of them a miss.
	// From here on a miss is a broken workload.
	r.seq = make([]int, len(shapes))
	for i := range r.seq {
		r.seq[i] = i
	}
	failed, err := r.slice(nil, make([]time.Duration, len(shapes)))
	r.seq, r.next = seq, 0
	if err == nil && failed > 0 {
		err = fmt.Errorf("filling the plan cache: %d of %d hot queries failed", failed, len(shapes))
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.wantCache = "hit"
	r.resetCounts()
	return r, nil
}

func prepServeCold(e *env, n int) (runner, error) {
	oracle, err := e.takeOracle()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	factRows := e.sum.Relations[factTable].Total
	// Every request carries a window no other request of the slice has, so
	// each one misses the plan cache, inserts, and (once the cache is full)
	// evicts. Two in three are the joining C, whose prepare drains a build
	// side; one in three is S6, whose prepare does not. An even split would
	// put the median latency on the border between the two modes.
	shapes := make([]shape, n)
	seq := make([]int, n)
	seen := make(map[int64]bool, n)
	for i := range shapes {
		lo, hi := window(rng, factRows)
		for seen[lo] {
			lo, hi = window(rng, factRows)
		}
		seen[lo] = true
		t := tC
		if i%3 == 0 {
			t = tS6
		}
		shapes[i] = shape{template: t, sql: fmt.Sprintf(t.sql, lo, hi)}
		seq[i] = i
		if rng.Intn(coldChecked) == 0 {
			if shapes[i].want, err = askOracle(oracle, shapes[i].sql); err != nil {
				return nil, err
			}
		}
	}
	r, err := newServeRunner(e, shapes, seq, "miss")
	if err != nil {
		return nil, err
	}
	r.direct = core.RegenDatabase(e.sum, 0)
	r.resetCounts()
	return r, nil
}
