// Package serve is Hydra's concurrent query front end: an HTTP server
// (stdlib net/http + encoding/json only) over one loaded database summary.
// It demonstrates the regenerator as a service — many concurrent clients
// issuing SQL against a database holding zero stored rows, each query's
// scans regenerated on the fly and, when Parallelism is enabled, those
// under an aggregate, DISTINCT or ORDER BY fanned out across workers by
// the engine's morsel-driven drain.
//
// Repeated query shapes are served from a keyed plan/build cache
// (cache.go): the first request for a query pays parse + plan + hash-join
// build cost, every later request probes the shared read-only arenas only.
// Every request runs in an execution state an earlier one left in the
// server's pool (states.go), rewound or reopened in place.
// Grouped-aggregate queries (GROUP BY with COUNT/SUM/MIN/MAX/AVG) flow
// through the same cache; their group rows are returned in the response's
// rows count and bounded sample.
//
// Endpoints:
//
//	POST /query    {"sql": "SELECT COUNT(*) FROM ...", "batch_size": 512,
//	                "parallelism": 4, "timeout_ms": 250, "explain": true} →
//	               {"count", "rows", "sample", "plan", "cache", "elapsed_ns",
//	                "request_id", "trace", "trace_text", ...}
//	GET  /healthz  {"status": "ok", "tables": N, "cache": {...}, ...}
//	GET  /statsz   {"cache": {...}, "recent": [...]} — plan-cache
//	               effectiveness plus a ring of the last 32 completed
//	               queries (SQL, cache disposition, elapsed, top operator)
//	GET  /metricsz Prometheus text exposition: in-flight/queued gauges,
//	               per-outcome request counters and latency histograms,
//	               shed counters by reason, per-operator self-time
//	               histograms, engine counters, runtime gauges, build info
//
// Observability: every request carries a request ID (the client's
// X-Request-Id when present, else a server-assigned "q-N"), echoed in the
// response header and body and attached to the structured slow-query log
// (log/slog) that fires when a query's latency crosses
// Options.SlowQueryThreshold. A request with "explain": true — or SQL
// prefixed EXPLAIN ANALYZE — executes with per-operator tracing and the
// response carries the span tree as JSON plus its rendered text form.
// Options.TraceQueries traces every query (feeding the per-operator
// /metricsz histograms) at a few percent overhead; Options.EnablePprof
// mounts net/http/pprof under /debug/pprof/.
//
// The server survives overload by construction (admission.go): at most
// MaxInFlight queries execute, a bounded queue absorbs bursts, and the
// rest shed fast with 429 + Retry-After. Each query runs under a context
// assembled from the client connection, an optional timeout_ms deadline
// (clamped by MaxTimeout; expiry → 504), and the server's drain state —
// BeginDrain refuses new work with 503 while admitted queries finish, and
// CancelInFlight force-unwinds the stragglers at their next batch boundary
// (499). The engine guarantees cancellation never leaks a goroutine.
//
// The handler is safe for concurrent use: the underlying dataless
// database is read-only after construction, a request's execution state is
// its own until it returns it to the pool (which hands each state to one
// request at a time), and cached build arenas are immutable after
// construction.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlkit"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Options configure the server.
type Options struct {
	// Parallelism is passed to every query's ExecOptions (clamped by the
	// engine into [0, GOMAXPROCS]); 0 executes sequentially. A request may
	// override it per query.
	Parallelism int
	// SampleLimit caps how many result rows a response carries (decoded
	// result sets can be arbitrarily large; COUNT(*) responses are exact
	// regardless).
	SampleLimit int
	// RowsPerSec throttles regeneration per scan (0 = unlimited). A
	// positive rate disables parallel execution (paced streams are
	// serial), which the engine handles by transparent fallback.
	RowsPerSec float64

	// MaxInFlight bounds concurrently executing queries; 0 = unlimited
	// (admission control disabled except for draining). Requests beyond the
	// bound enter a bounded wait queue or are shed with 429.
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for an execution slot when
	// all MaxInFlight slots are busy; 0 = no queue (immediate shed).
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot before
	// being shed: 0 selects DefaultQueueWait, negative disables waiting.
	QueueWait time.Duration
	// MaxTimeout caps (and, when a request carries no timeout_ms, supplies)
	// the per-query execution deadline; 0 = no server-side deadline.
	MaxTimeout time.Duration
	// Logf receives diagnostic messages (response-write failures and the
	// like); nil selects the stdlib logger.
	Logf func(format string, args ...any)

	// TraceQueries executes every query with per-operator tracing, feeding
	// the /metricsz self-time histograms and the /statsz top-operator
	// column. Tracing costs a few percent on the hottest queries (the spans
	// are preallocated and recycled — no per-query allocation); with it off,
	// only explain requests trace.
	TraceQueries bool
	// SlowQueryThreshold, when positive, emits a structured slog record for
	// every query whose total latency meets or exceeds it: request ID, SQL,
	// elapsed time, cache disposition, and (when traced) the top 3 operators
	// by self time. Zero disables the slow-query log.
	SlowQueryThreshold time.Duration
	// Logger receives slow-query records; nil selects slog.Default().
	Logger *slog.Logger
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/ on
	// the server's handler — CPU and heap profiles over the same listener.
	EnablePprof bool
}

// Server serves queries against one summary's dataless database.
type Server struct {
	sum   *summary.Database
	db    *engine.Database
	opts  Options
	cache *planCache
	pool  statePool // idle execution states (states.go)
	adm   *admission
	met   *metrics
	logf  func(format string, args ...any)
	slog  *slog.Logger

	// hardCtx is canceled by CancelInFlight: every in-flight query's
	// context is a child of the request context AND this one (via
	// context.AfterFunc), so a drain whose grace expires can cancel all
	// running work without tracking individual requests.
	//
	//hydralint:ignore ctxfield server-lifetime cancellation root, not a request context; canceled only by CancelInFlight/Close
	hardCtx    context.Context
	hardCancel context.CancelFunc

	// ring remembers the last QueryRingSize completed queries for
	// GET /statsz; reqSeq numbers requests that arrive without an
	// X-Request-Id of their own.
	ring   queryRing
	reqSeq atomic.Int64

	// testHookAdmitted, when set, runs after a request is admitted (slot
	// held) and before execution — the seam deterministic overload tests
	// block in to hold slots occupied.
	testHookAdmitted func()
}

// New builds a server over the summary.
func New(sum *summary.Database, opts Options) *Server {
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	hardCtx, hardCancel := context.WithCancel(context.Background())
	return &Server{
		sum:        sum,
		db:         core.RegenDatabase(sum, opts.RowsPerSec),
		opts:       opts,
		cache:      newPlanCache(DefaultCacheSize),
		adm:        newAdmission(opts.MaxInFlight, opts.MaxQueue, opts.QueueWait),
		met:        newMetrics(),
		logf:       logf,
		slog:       logger,
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
	}
}

// BeginDrain moves the server into draining: every subsequent POST /query —
// including requests already waiting in the admission queue — is refused
// with 503 + Retry-After, while admitted queries keep running. Call it
// before http.Server.Shutdown so the listener's connections empty out.
// Idempotent.
func (s *Server) BeginDrain() { s.adm.beginDrain() }

// CancelInFlight cancels the context of every currently executing query:
// each unwinds at its next batch boundary with context.Canceled and its
// request finishes with 499. The escalation step when a drain's grace
// period expires. Idempotent.
func (s *Server) CancelInFlight() { s.hardCancel() }

// CacheStats snapshots plan-cache effectiveness.
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// Handler returns the HTTP handler exposing the query, health, and stats
// endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/statsz", s.handleStats)
	mux.HandleFunc("/metricsz", s.handleMetrics)
	if s.opts.EnablePprof {
		// The stdlib pprof handlers register themselves on DefaultServeMux
		// only; mounting them here keeps profiling on the server's own
		// handler (and off by default — profiles expose internals).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// QueryRequest is the POST /query body. BatchSize, when present, sets the
// query's batch capacity (else the engine's default), and Parallelism
// overrides the server-wide default; both pass
// through ExecOptions.Normalize, so invalid values are rejected with 400
// and out-of-range parallelism is clamped.
type QueryRequest struct {
	SQL         string `json:"sql"`
	BatchSize   *int   `json:"batch_size,omitempty"`
	Parallelism *int   `json:"parallelism,omitempty"`
	// TimeoutMS is the query's execution deadline in milliseconds; the
	// engine cancels cooperatively at the next batch boundary once it
	// expires and the request fails with 504. Clamped from above by the
	// server's MaxTimeout; must be positive when present.
	TimeoutMS *int64 `json:"timeout_ms,omitempty"`
	// Explain executes the query with per-operator tracing and returns the
	// span tree in the response ("trace" as JSON, "trace_text" rendered) —
	// the HTTP spelling of EXPLAIN ANALYZE (an EXPLAIN ANALYZE prefix on the
	// SQL itself has the same effect).
	Explain bool `json:"explain,omitempty"`
}

// QueryResponse is the POST /query reply: the COUNT value (for COUNT(*)
// queries), output cardinality, a bounded sample of output rows, the
// cardinality-annotated operator tree, whether the plan/build cache served
// the query ("hit" or "miss"), and timing.
type QueryResponse struct {
	SQL         string           `json:"sql"`
	RequestID   string           `json:"request_id,omitempty"`
	Count       int64            `json:"count"`
	Rows        int64            `json:"rows"`
	Sample      [][]int64        `json:"sample,omitempty"`
	Plan        *engine.ExecNode `json:"plan"`
	Parallelism int              `json:"parallelism"`
	BatchSize   int              `json:"batch_size,omitempty"`
	Cache       string           `json:"cache,omitempty"`
	ElapsedNS   int64            `json:"elapsed_ns"`
	// Path is the regime that answered, engine.ExecResult.Path verbatim:
	// "summary" (summary-row arithmetic, no tuple generated), "pruned" (the
	// operator pipeline over at least one scan that skipped provably dead
	// tuples), or "regen" (every scan regenerated its whole table).
	Path string `json:"path"`
	// Trace is the per-operator span tree (wall time, self time, rows,
	// batches, bytes) and TraceText its rendered text form; both are present
	// only when the request asked for explain.
	Trace     *trace.Span `json:"trace,omitempty"`
	TraceText string      `json:"trace_text,omitempty"`
}

// HealthResponse is the GET /healthz reply.
type HealthResponse struct {
	Status      string     `json:"status"`
	Tables      int        `json:"tables"`
	Parallelism int        `json:"parallelism"`
	Cache       CacheStats `json:"cache"`
}

// StatsResponse is the GET /statsz reply: plan/build-cache effectiveness
// plus the ring of the last QueryRingSize completed queries, newest first.
type StatsResponse struct {
	Cache  CacheStats     `json:"cache"`
	Recent []QuerySummary `json:"recent,omitempty"`
}

// handleStats serves GET /statsz with the same 405 + Allow pinning as the
// other routes.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	s.writeJSON(w, http.StatusOK, StatsResponse{Cache: s.CacheStats(), Recent: s.ring.snapshot()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:      "ok",
		Tables:      len(s.sum.Relations),
		Parallelism: s.opts.Parallelism,
		Cache:       s.CacheStats(),
	})
}

// MaxQueryBody bounds the POST /query body. SQL text is small; anything
// beyond this is a hostile or broken client, and an unbounded decode would
// let one request hold arbitrary memory.
const MaxQueryBody = 1 << 20

// StatusClientClosedRequest is the (nginx-originated, de facto standard)
// status for a request whose client went away — or whose execution was
// hard-canceled by a drain — before a response could be produced.
const StatusClientClosedRequest = 499

// RetryAfterSeconds is the Retry-After hint attached to 429 and 503
// refusals: shed responses are fast failures, and the hint tells
// well-behaved clients when backing off is long enough.
const RetryAfterSeconds = 1

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	fail := func(outcome string, status int, err error) {
		s.writeError(w, status, err)
		s.met.record(outcome, time.Since(start))
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		fail(outcomeBadRequest, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	// The body is JSON: reject any declared non-JSON content type up front
	// (an absent header is tolerated for bare clients), and cap how much of
	// the body the decoder may consume.
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err != nil || (mt != "application/json" && !strings.HasSuffix(mt, "+json")) {
			fail(outcomeBadRequest, http.StatusUnsupportedMediaType, fmt.Errorf("content type %q is not JSON", ct))
			return
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxQueryBody)
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			fail(outcomeBadRequest, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		fail(outcomeBadRequest, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.SQL == "" {
		fail(outcomeBadRequest, http.StatusBadRequest, fmt.Errorf("request has no sql"))
		return
	}
	// Every query gets a request ID — the client's X-Request-Id when it sent
	// one, else a server-assigned sequence number — echoed in the response
	// header and body and attached to the slow-query log, so one slow request
	// can be chased across client logs, server logs, and /statsz.
	requestID := r.Header.Get("X-Request-Id")
	if requestID == "" {
		requestID = fmt.Sprintf("q-%d", s.reqSeq.Add(1))
	}
	w.Header().Set("X-Request-Id", requestID)
	// An explain request (the JSON field or an EXPLAIN ANALYZE SQL prefix)
	// always traces; TraceQueries traces everything else too, feeding the
	// per-operator /metricsz histograms.
	explain := req.Explain || hasExplainPrefix(req.SQL)
	opts := engine.ExecOptions{
		SampleLimit: s.opts.SampleLimit,
		Parallelism: s.opts.Parallelism,
		Trace:       explain || s.opts.TraceQueries,
	}
	if req.BatchSize != nil {
		opts.BatchSize = *req.BatchSize
	}
	if req.Parallelism != nil {
		opts.Parallelism = *req.Parallelism
	}
	opts, err := opts.Normalize()
	if err != nil {
		fail(outcomeBadRequest, http.StatusBadRequest, err)
		return
	}
	// The per-query deadline: the request's timeout_ms, clamped from above
	// by the server's MaxTimeout (which also supplies the deadline when the
	// request carries none). The clamp compares milliseconds, before the
	// conversion to a Duration could overflow.
	timeout := max(s.opts.MaxTimeout, 0)
	if ms := req.TimeoutMS; ms != nil {
		switch {
		case *ms <= 0:
			fail(outcomeBadRequest, http.StatusBadRequest, fmt.Errorf("timeout_ms must be positive, got %d", *ms))
			return
		case timeout > 0 && *ms > timeout.Milliseconds():
			// The request asks for more than the cap: the cap stands.
		case *ms > math.MaxInt64/int64(time.Millisecond):
			fail(outcomeBadRequest, http.StatusBadRequest, fmt.Errorf("timeout_ms %d is out of range", *ms))
			return
		default:
			timeout = time.Duration(*ms) * time.Millisecond
		}
	}

	// Admission: everything above is cheap, bounded work; execution holds a
	// slot. Shed responses are deliberately fast 429s with a Retry-After
	// hint, so overload degrades into quick refusals instead of queueing
	// collapse.
	switch s.adm.acquire(r.Context()) {
	case admitOK:
	case admitQueueFull:
		s.met.recordShed(shedQueueFull)
		w.Header().Set("Retry-After", fmt.Sprint(RetryAfterSeconds))
		fail(outcomeShed, http.StatusTooManyRequests, fmt.Errorf("server at capacity (admission queue full)"))
		return
	case admitQueueTimeout:
		s.met.recordShed(shedQueueTimeout)
		w.Header().Set("Retry-After", fmt.Sprint(RetryAfterSeconds))
		fail(outcomeShed, http.StatusTooManyRequests, fmt.Errorf("server at capacity (queue wait exceeded)"))
		return
	case admitCanceled:
		fail(outcomeCanceled, StatusClientClosedRequest, context.Canceled)
		return
	case admitDraining:
		s.met.recordShed(shedDraining)
		w.Header().Set("Retry-After", fmt.Sprint(RetryAfterSeconds))
		fail(outcomeDraining, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return
	}
	defer s.adm.release()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	if h := s.testHookAdmitted; h != nil {
		h()
	}

	// The execution context: child of the request context (client
	// disconnect cancels), hard-cancelable by CancelInFlight (drain-grace
	// escalation), bounded by the query deadline.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}

	// prepared is deliberately context-free: a cache fill is shared work
	// (single-flighted across coalesced requests), and letting one
	// requester's cancellation abort it would poison the entry every waiter
	// gets. Builds are bounded; deadlines govern execution.
	prep, cacheState, err := s.prepared(req.SQL, opts)
	if err != nil {
		// Unparsable or unplannable SQL is the client's fault; a failure
		// opening or draining a build-side source is the server's.
		var bad *badQueryError
		if errors.As(err, &bad) {
			fail(outcomeBadRequest, http.StatusBadRequest, err)
			return
		}
		fail(outcomeError, http.StatusInternalServerError, err)
		return
	}
	// An idle state of the pool: res aliases it, so it goes back only
	// once the response is encoded. A canceled or failed run leaves it
	// reusable, so every path returns it.
	st := s.pool.get()
	defer s.pool.put(st)
	res, err := prep.ExecuteInContext(ctx, st, opts)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fail(outcomeTimeout, http.StatusGatewayTimeout, fmt.Errorf("query exceeded its deadline of %v", timeout))
		case errors.Is(err, context.Canceled):
			fail(outcomeCanceled, StatusClientClosedRequest, err)
		default:
			fail(outcomeError, http.StatusInternalServerError, err)
		}
		return
	}
	elapsed := time.Since(start)
	pruned := s.met.observeQuery(res, elapsed)
	topOp := res.Root.Op
	if res.Trace != nil {
		if tops := trace.TopSelf(res.Trace, 1); len(tops) > 0 {
			topOp = tops[0].Op
		}
	}
	s.ring.add(QuerySummary{
		SQL:       req.SQL,
		RequestID: requestID,
		Cache:     cacheState,
		ElapsedNS: elapsed.Nanoseconds(),
		Rows:      res.Rows,
		TopOp:     topOp,
		Path:      res.Path,
		Pruned:    pruned,
	})
	if thr := s.opts.SlowQueryThreshold; thr > 0 && elapsed >= thr {
		attrs := []any{
			slog.String("request_id", requestID),
			slog.String("sql", req.SQL),
			slog.Duration("elapsed", elapsed),
			slog.String("cache", cacheState),
		}
		if res.Trace != nil {
			tops := trace.TopSelf(res.Trace, 3)
			parts := make([]string, len(tops))
			for i, sp := range tops {
				parts[i] = fmt.Sprintf("%s=%s", sp.Op, time.Duration(sp.SelfNS()))
			}
			attrs = append(attrs, slog.String("top_ops", strings.Join(parts, ",")))
		}
		s.slog.Warn("slow query", attrs...)
	}
	resp := QueryResponse{
		SQL:         req.SQL,
		RequestID:   requestID,
		Count:       res.Count,
		Rows:        res.Rows,
		Sample:      res.Sample,
		Plan:        res.Root,
		Parallelism: opts.Parallelism,
		BatchSize:   opts.BatchSize,
		Cache:       cacheState,
		ElapsedNS:   elapsed.Nanoseconds(),
		Path:        res.Path,
	}
	// The span tree rides back only when the client asked for it: routine
	// traced queries (TraceQueries) feed metrics without inflating every
	// response body.
	if explain && res.Trace != nil {
		resp.Trace = res.Trace
		resp.TraceText = trace.Render(res.Trace)
	}
	s.writeJSON(w, http.StatusOK, resp)
	s.met.record(outcomeOK, time.Since(start))
}

// hasExplainPrefix reports whether sql's first keyword is EXPLAIN
// (case-insensitive), so the serve layer can turn tracing on before the
// cache-hit path, which never re-parses, is consulted. The parser proper
// still validates the full EXPLAIN ANALYZE spelling.
func hasExplainPrefix(sql string) bool {
	t := strings.TrimLeft(sql, " \t\r\n")
	const kw = "explain"
	return len(t) > len(kw) && strings.EqualFold(t[:len(kw)], kw) &&
		(t[len(kw)] == ' ' || t[len(kw)] == '\t' || t[len(kw)] == '\r' || t[len(kw)] == '\n')
}

// prepared resolves SQL to a ready-to-probe execution: from the cache when
// possible, otherwise parse + plan + build (and insert, keyed by the
// normalized SQL, so whitespace variants of one query share an entry).
func (s *Server) prepared(sql string, opts engine.ExecOptions) (*engine.Prepared, string, error) {
	// Single-flighted: concurrent cold requests for one query share one
	// parse + plan + build instead of racing N of them. Only the request
	// that actually ran the build reports "miss" — a hit or a coalesced
	// waiter was served by the cache, and its response label agrees with
	// what CacheStats counted it as.
	prep, built, err := s.cache.do(normalizeSQL(sql), func() (*engine.Prepared, error) {
		return s.prepare(sql, opts)
	})
	if err != nil {
		return nil, "", err
	}
	if !built {
		return prep, "hit", nil
	}
	return prep, "miss", nil
}

// prepare parses, plans, and builds one query. Unless RowsPerSec paces the
// scans, every table is summary-backed, so a join on a pk is positional and
// drains nothing: the cost is parse, plan and the plan's one reading of the
// summaries, plus any hash build over a non-pk key. Its wall clock feeds
// the hydra_plan_cache_build_seconds_total counter, so cache-miss cost is
// visible next to the hit rate.
func (s *Server) prepare(sql string, opts engine.ExecOptions) (*engine.Prepared, error) {
	start := time.Now()
	defer func() { s.met.cacheBuildNS.Add(time.Since(start).Nanoseconds()) }()
	q, err := sqlkit.Parse(sql)
	if err != nil {
		return nil, &badQueryError{err}
	}
	plan, err := engine.BuildPlan(s.db.Schema, q)
	if err != nil {
		return nil, &badQueryError{err}
	}
	return engine.Prepare(s.db, plan, opts)
}

// badQueryError marks failures the client caused (unparsable or
// unplannable SQL), distinguishing them from server-side build faults for
// status-code selection.
type badQueryError struct{ err error }

func (e *badQueryError) Error() string { return e.err.Error() }
func (e *badQueryError) Unwrap() error { return e.err }

// errorResponse is the JSON error body every non-2xx reply carries.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeJSON marshals v before committing any status, so an encoding
// failure can still produce a well-formed 500 — a second WriteHeader after
// a partial body write is never issued. Encode and write failures are
// logged rather than dropped: a persistently failing response path is an
// operational signal (canceled clients excepted — a 499's writer is gone
// by definition).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		s.logf("serve: encoding %T response: %v", v, err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		if _, werr := w.Write([]byte(`{"error":"response encoding failed"}` + "\n")); werr != nil {
			s.logf("serve: writing error response: %v", werr)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(data, '\n')); err != nil {
		s.logf("serve: writing %d response: %v", status, err)
	}
}
