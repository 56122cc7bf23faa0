// Package serve is the simulation-as-a-service layer: a long-running,
// fault-tolerant HTTP/JSON server over the scenario registry — the
// serving path the ROADMAP's "millions of users" story needs, assembled
// from pieces this repo already hardened. Robustness is the
// architecture, layered end to end:
//
//   - A content-addressed result cache (bounded LRU) keyed by the
//     canonical hash of (scenario, effective params) — correct by
//     construction because virtual-clock runs are bit-deterministic, and
//     tight because a param the scenario does not read is refused —
//     with a singleflight layer that dedupes identical in-flight
//     requests, so a stampede of equal cells costs one simulation.
//   - Admission control and graceful degradation: a bounded worker pool
//     running every simulation through the hardened sweep runner (panic
//     isolation, per-run deadlines), and a bounded admission queue that
//     sheds load with 429 + Retry-After instead of queueing unboundedly.
//     Per-request deadlines propagate from the request into the run
//     context, scenario.Params.TimeoutS and the DES event guard.
//   - Structured failure: every error the guardrails produce —
//     des.BudgetExceeded, sweep panics and timeouts — maps to a typed
//     JSON error body with a machine-readable kind. No request can take
//     the process down.
//   - Lifecycle robustness: graceful shutdown flips /readyz unready
//     first, stops admitting, drains in-flight runs up to a drain
//     deadline and flushes every completed result to its waiting
//     callers before exiting.
//
// Wire it into a process with ListenAndServe under a signal-cancelled
// context (what `simaibench serve` does), or mount Handler in a larger
// mux.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/scenario"
	"simaibench/internal/sweep"
)

// Config are the server's robustness knobs. The zero value serves on
// :8080 with sensible bounds; every field has a flag on
// `simaibench serve`.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// Workers bounds the number of simulations running concurrently
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue: runs admitted but not yet
	// started (default 64). A full queue sheds with 429 + Retry-After.
	QueueDepth int
	// CacheSize bounds the result cache in entries (default 1024;
	// negative disables caching).
	CacheSize int
	// DrainTimeout bounds graceful shutdown: in-flight runs get this
	// long to complete and flush before being abandoned (default 30s).
	DrainTimeout time.Duration
	// RunTimeout is the default per-run wall-clock deadline applied when
	// a request carries none (default 120s). A wedged run is abandoned
	// with a typed timeout error instead of occupying a worker forever.
	RunTimeout time.Duration
	// MaxEvents is the default DES event budget per sweep cell applied
	// when a request carries none (0 = unlimited): the backstop that
	// turns a runaway simulation into a structured budget_exceeded.
	MaxEvents int64
}

// withDefaults fills unset fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 120 * time.Second
	}
	return c
}

// Stats is the /statz snapshot: the serving counters that make
// degradation observable (and testable) instead of anecdotal.
type Stats struct {
	// Requests counts /v1/run requests received.
	Requests int64 `json:"requests"`
	// CacheHits counts requests served straight from the result cache.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts requests that started a new underlying run.
	CacheMisses int64 `json:"cache_misses"`
	// DedupJoins counts requests that joined an identical in-flight run
	// instead of starting their own.
	DedupJoins int64 `json:"dedup_joins"`
	// RunsCompleted counts underlying runs that finished successfully.
	RunsCompleted int64 `json:"runs_completed"`
	// RunsFailed counts underlying runs that ended in a typed error.
	RunsFailed int64 `json:"runs_failed"`
	// Shed counts requests rejected with 429 because the admission
	// queue was full.
	Shed int64 `json:"shed"`
	// Evictions counts result-cache entries dropped at capacity.
	Evictions int64 `json:"evictions"`
	// CacheLen is the current result-cache entry count.
	CacheLen int `json:"cache_len"`
	// InFlight is the number of distinct keys currently being computed.
	InFlight int `json:"in_flight"`
	// QueueLen is the current admission-queue depth.
	QueueLen int `json:"queue_len"`
	// Ready reports whether the server is admitting work (false once
	// draining).
	Ready bool `json:"ready"`
}

// task is one admitted unit of work: the leader's run closure plus the
// flight every waiter is parked on.
type task struct {
	key string
	f   *flight
	run func(ctx context.Context) ([]byte, error)
}

// Server is the simulation service. Create with New, mount Handler or
// run ListenAndServe; every method is safe for concurrent use.
type Server struct {
	cfg     Config
	cache   *resultCache
	flights flightGroup
	queue   chan *task

	// runCtx parents every underlying run: cancelled only when the
	// drain deadline forces abandonment — never by an individual caller.
	runCtx    context.Context
	runCancel context.CancelFunc

	notReady atomic.Bool // /readyz flips first
	draining atomic.Bool // then admission closes
	pending  atomic.Int64
	aborted  chan struct{} // closed when the drain deadline abandons runs
	abortOne sync.Once
	stopped  chan struct{} // closed when workers should exit
	stopOne  sync.Once

	listening chan struct{}
	addr      atomic.Value // string

	nRequests, nHits, nMisses, nDedup atomic.Int64
	nDone, nFailed, nShed             atomic.Int64

	httpSrv *http.Server
}

// New builds a Server and starts its worker pool. Callers that never
// ListenAndServe (tests mounting Handler directly) must call Shutdown
// to release the workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     newResultCache(cfg.CacheSize),
		queue:     make(chan *task, cfg.QueueDepth),
		aborted:   make(chan struct{}),
		stopped:   make(chan struct{}),
		listening: make(chan struct{}),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// worker executes admitted tasks one at a time until the server stops.
func (s *Server) worker() {
	for {
		select {
		case t := <-s.queue:
			body, err := t.run(s.runCtx)
			s.flights.complete(t.key, t.f, body, err)
			s.pending.Add(-1)
		case <-s.stopped:
			return
		}
	}
}

// Handler returns the server's HTTP API:
//
//	POST /v1/run       run (or serve from cache) one scenario
//	GET  /v1/scenarios list the registered scenarios with defaults
//	GET  /healthz      liveness (200 while the process runs)
//	GET  /readyz       readiness (503 once draining)
//	GET  /statz        serving counters as JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.notReady.Load() {
			writeError(w, &APIError{Status: http.StatusServiceUnavailable,
				Kind: KindShuttingDown, Message: "draining", RetryAfterS: 1})
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Stats())
	})
	return mux
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:      s.nRequests.Load(),
		CacheHits:     s.nHits.Load(),
		CacheMisses:   s.nMisses.Load(),
		DedupJoins:    s.nDedup.Load(),
		RunsCompleted: s.nDone.Load(),
		RunsFailed:    s.nFailed.Load(),
		Shed:          s.nShed.Load(),
		Evictions:     s.cache.Evictions(),
		CacheLen:      s.cache.Len(),
		InFlight:      s.flights.inFlight(),
		QueueLen:      len(s.queue),
		Ready:         !s.notReady.Load(),
	}
}

// handleScenarios lists the registry: every scenario with its paper
// defaults and the knobs it reads, so clients can discover valid ids,
// parameter baselines and which params a request may set.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &APIError{Status: http.StatusMethodNotAllowed,
			Kind: KindMethodNotAllowed, Message: "use GET"})
		return
	}
	infos := make([]ScenarioInfo, 0)
	for _, sc := range scenario.All() {
		infos = append(infos, ScenarioInfo{
			Name: sc.Name(), Description: sc.Description(), Defaults: sc.Defaults(),
			Knobs: sc.Reads().Keys(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(scenarioList{Scenarios: infos})
}

// handleRun is the core endpoint: cache → singleflight → admission →
// hardened run, every failure a typed JSON body.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.nRequests.Add(1)
	if r.Method != http.MethodPost {
		writeError(w, &APIError{Status: http.StatusMethodNotAllowed,
			Kind: KindMethodNotAllowed, Message: "use POST"})
		return
	}
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, &APIError{Status: http.StatusBadRequest, Kind: KindBadRequest,
			Message: "request body: " + err.Error()})
		return
	}
	if req.Scenario == "" {
		writeError(w, &APIError{Status: http.StatusBadRequest, Kind: KindBadRequest,
			Message: "request body: missing scenario id"})
		return
	}
	if s.draining.Load() {
		writeError(w, shuttingDownError())
		return
	}
	sc, ok := scenario.Lookup(req.Scenario)
	if !ok {
		writeError(w, &APIError{Status: http.StatusNotFound, Kind: KindUnknownScenario,
			Message: fmt.Sprintf("unknown scenario %q (valid ids: %s)",
				req.Scenario, strings.Join(scenario.Names(), ", "))})
		return
	}
	if err := checkRequest(&req, sc); err != nil {
		writeError(w, &APIError{Status: http.StatusBadRequest, Kind: KindBadRequest, Message: err.Error()})
		return
	}

	// Deadline and budget propagation: the request deadline bounds the
	// whole run (hardened-runner timeout) and flows into
	// Params.TimeoutS, where the scenario's guarded sweeps apply it per
	// cell; the server's default event budget flows into
	// Params.MaxEvents, where the simulated harnesses arm des.Guard.
	// All of it happens BEFORE keying, so equal effective requests get
	// equal cache keys.
	p := req.Params
	timeout := time.Duration(req.TimeoutS * float64(time.Second))
	if timeout <= 0 {
		timeout = s.cfg.RunTimeout
	}
	if p.TimeoutS == 0 {
		p.TimeoutS = timeout.Seconds()
	}
	if p.MaxEvents == 0 {
		p.MaxEvents = s.cfg.MaxEvents
	}
	key, err := scenario.CacheKey(req.Scenario, p, sc.Defaults(), req.Seed)
	if err != nil {
		writeError(w, &APIError{Status: http.StatusBadRequest, Kind: KindBadRequest,
			Message: "params not canonicalizable: " + err.Error()})
		return
	}

	// Wall-clock runs are genuine time-compressed emulation — not
	// bit-deterministic — so they bypass the result cache; the
	// memoization contract only holds on the virtual clock.
	effClock := p.Clock
	if effClock == "" {
		effClock = sc.Defaults().Clock
	}
	cacheable := clock.IsVirtual(effClock)

	if cacheable {
		if body, ok := s.cache.Get(key); ok {
			s.nHits.Add(1)
			writeRunBody(w, body, "hit")
			return
		}
	}

	f, joined := s.flights.join(key)
	if joined {
		s.nDedup.Add(1)
	} else {
		// Leader: admit the new run or shed. Admission is bounded by the
		// queue; shedding completes the flight with the typed overload
		// error so every waiter (including callers that joined in the
		// meantime) gets the same 429.
		s.nMisses.Add(1)
		t := &task{key: key, f: f, run: s.runner(sc, req.Scenario, key, p, timeout, cacheable)}
		s.pending.Add(1)
		if s.draining.Load() {
			s.pending.Add(-1)
			s.flights.complete(key, f, nil, shuttingDownError())
		} else {
			select {
			case s.queue <- t:
			default:
				s.pending.Add(-1)
				s.nShed.Add(1)
				s.flights.complete(key, f, nil, &APIError{
					Status: http.StatusTooManyRequests, Kind: KindOverloaded,
					Message: fmt.Sprintf("admission queue full (%d queued, %d workers); retry later",
						s.cfg.QueueDepth, s.cfg.Workers),
					RetryAfterS: 1,
				})
			}
		}
	}

	tag := "miss"
	if joined {
		tag = "dedup"
	}
	select {
	case <-f.done:
		if f.err != nil {
			writeError(w, classifyRunError(f.err))
			return
		}
		writeRunBody(w, f.body, tag)
	case <-r.Context().Done():
		// The caller went away; the shared run continues for the other
		// joiners and the cache. Nothing useful can be written.
	case <-s.aborted:
		// A completed flight beats the abandonment notice: results that
		// finished during the drain are never lost to this race.
		select {
		case <-f.done:
			if f.err != nil {
				writeError(w, classifyRunError(f.err))
				return
			}
			writeRunBody(w, f.body, tag)
		default:
			writeError(w, shuttingDownError())
		}
	}
}

// checkRequest refuses, before anything is keyed or run, a request the
// scenario would not act on as written: a knob value Validate refuses
// (the request-level deadline is held to the same rule as the knob it
// flows into), a knob sc does not read, or a seed — no scenario reads
// one, so a seed could only split the result cache.
func checkRequest(req *RunRequest, sc *scenario.Scenario) error {
	if err := errors.Join(req.Params.Validate(), scenario.Params{TimeoutS: req.TimeoutS}.Validate()); err != nil {
		return err
	}
	if req.Seed != 0 {
		return fmt.Errorf("request body: \"seed\" is %d: no scenario reads a seed; vary a knob %s reads (%s) instead",
			req.Seed, sc.Name(), strings.Join(sc.Reads().Keys(), ", "))
	}
	return scenario.CheckReads(req.Params.Knobs(), sc)
}

// shuttingDownError is the typed 503 the drain path serves.
func shuttingDownError() *APIError {
	return &APIError{Status: http.StatusServiceUnavailable, Kind: KindShuttingDown,
		Message: "server is draining; not admitting new runs", RetryAfterS: 1}
}

// writeRunBody serves a successful run body with its cache disposition
// in X-Cache (hit | miss | dedup) — a header, not a body field, so hot
// and cold responses for the same key stay byte-identical.
func writeRunBody(w http.ResponseWriter, body []byte, cacheTag string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheTag)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// runner builds the leader's run closure: the scenario executed as one
// cell of the hardened sweep runner, so the serving path inherits panic
// isolation and the per-run deadline for free.
func (s *Server) runner(sc *scenario.Scenario, name, key string, p scenario.Params,
	timeout time.Duration, cacheable bool) func(ctx context.Context) ([]byte, error) {
	return func(ctx context.Context) ([]byte, error) {
		rep := sweep.Run(ctx, 1, sweep.Options{Timeout: timeout}, func(ctx context.Context, _ int) (*scenario.Result, error) {
			return sc.Run(ctx, p)
		})
		if err := rep.Err(); err != nil {
			s.nFailed.Add(1)
			return nil, err
		}
		body, err := encodeRunResponse(name, key, rep.Values[0])
		if err != nil {
			s.nFailed.Add(1)
			return nil, err
		}
		if cacheable {
			s.cache.Put(key, body)
		}
		s.nDone.Add(1)
		return body, nil
	}
}

// encodeRunResponse renders the response body stored in the cache and
// served to every caller of the key. Per-cell guardrail failures inside
// a partially completed sweep are annotated with machine-readable kinds.
func encodeRunResponse(name, key string, res *scenario.Result) ([]byte, error) {
	resp := RunResponse{Key: key, Scenario: name, Result: res}
	for _, f := range res.Failures {
		resp.FailureKinds = append(resp.FailureKinds, cellFailureKind(f))
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	return append(body, '\n'), nil
}

// Shutdown drains the server: admission closes, queued and in-flight
// runs get until ctx's deadline to complete and flush to their waiting
// callers, then remaining runs are abandoned (their callers receive the
// typed shutting_down error). It returns nil on a clean drain and ctx's
// error when the deadline forced abandonment. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.notReady.Store(true) // /readyz flips unready first
	s.draining.Store(true) // then admission closes
	var err error
drain:
	for s.pending.Load() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			s.runCancel() // abort in-flight runs
			s.abortOne.Do(func() { close(s.aborted) })
			break drain
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.stopOne.Do(func() { close(s.stopped) })
	return err
}

// Addr returns the bound listen address once Ready is closed (useful
// with ":0").
func (s *Server) Addr() string {
	if v := s.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Ready is closed once the listener is bound and serving.
func (s *Server) Ready() <-chan struct{} { return s.listening }

// ErrDrainTimeout reports that graceful shutdown hit its drain deadline
// and abandoned still-running work; completed results were flushed.
var ErrDrainTimeout = errors.New("serve: drain deadline exceeded; abandoned in-flight runs")

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled (the
// SIGTERM path), then shuts down gracefully: /readyz flips unready,
// admission closes (new runs get typed 503s), in-flight runs drain up
// to Config.DrainTimeout with every completed result flushed to its
// waiting callers, and the HTTP server closes. Returns nil after a
// clean drain, ErrDrainTimeout when the deadline forced abandonment, or
// the listener's error.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.stopOne.Do(func() { close(s.stopped) })
		return err
	}
	s.addr.Store(ln.Addr().String())
	s.httpSrv = &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- s.httpSrv.Serve(ln) }()
	close(s.listening)

	select {
	case err := <-errc:
		s.stopOne.Do(func() { close(s.stopped) })
		return err
	case <-ctx.Done():
	}

	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	drainErr := s.Shutdown(dctx)
	// The listener keeps accepting during the drain so late requests get
	// typed 503s and waiting callers get their flushed results; it
	// closes only once the drain has settled. The HTTP shutdown gets its
	// own brief grace window (not the possibly-expired drain context) so
	// handlers just released by the abort still flush their bodies.
	hctx, hcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer hcancel()
	if herr := s.httpSrv.Shutdown(hctx); herr != nil {
		s.httpSrv.Close()
	}
	<-errc // Serve has returned (ErrServerClosed)
	if drainErr != nil {
		return fmt.Errorf("%w (%v)", ErrDrainTimeout, drainErr)
	}
	return nil
}
