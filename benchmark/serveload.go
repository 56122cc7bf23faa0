package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"simaibench/internal/scenario"
	"simaibench/internal/serve"
)

// The serve workloads model a sweep driver that posts cells to
// `simaibench serve` and waits for each reply: a closed loop of
// lpWorkers() clients, each with one keep-alive connection. The
// generator posts pre-encoded bodies, reads the reply into a reused
// buffer and checks status, X-Cache and the exact bytes against the
// key's reference reply; it never JSON-decodes on the timed path (the
// typed client's decode is its own per-layer metric).

// serveKey is one request of a workload's key space.
type serveKey struct {
	label string
	body  []byte // pre-encoded RunRequest
	ref   []byte // reference reply: the first (miss) reply, taken in set-up
}

// loadTarget is what the generator drives: a URL, the key space and the
// X-Cache disposition every reply must carry ("" = not checked).
type loadTarget struct {
	url       string
	keys      []serveKey
	wantCache string
}

// loadClient is one closed-loop client: it walks order cyclically.
type loadClient struct {
	hc     *http.Client
	order  []int
	pos    int
	buf    bytes.Buffer
	lat    []float64 // latencies of the current window's good replies, ms
	sent   int
	failed int
}

func newLoadClient(order []int) *loadClient {
	return &loadClient{order: order, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
}

// do posts one key and verifies the reply.
func (c *loadClient) do(t *loadTarget, k *serveKey) error {
	req, err := http.NewRequest(http.MethodPost, t.url, bytes.NewReader(k.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, c.buf.Bytes())
	case t.wantCache != "" && resp.Header.Get("X-Cache") != t.wantCache:
		return fmt.Errorf("X-Cache %q, want %q", resp.Header.Get("X-Cache"), t.wantCache)
	case k.ref != nil && !bytes.Equal(c.buf.Bytes(), k.ref):
		return fmt.Errorf("body differs from the key's reference reply")
	}
	return nil
}

// requestSampling is how many requests share one recorded span in a
// traced window, keeping the tracing overhead negligible.
const requestSampling = 16

func (c *loadClient) run(t *loadTarget, deadline time.Time, rec *recorder, parent, lane int) {
	for time.Now().Before(deadline) {
		k := &t.keys[c.order[c.pos]]
		c.pos = (c.pos + 1) % len(c.order)
		t0 := time.Now()
		err := c.do(t, k)
		t1 := time.Now()
		c.sent++
		if err != nil {
			if c.failed++; c.failed <= 3 {
				fmt.Fprintf(os.Stderr, "FAILED request %s: %v\n", k.label, err)
			}
		} else {
			c.lat = append(c.lat, float64(t1.Sub(t0))/float64(time.Millisecond))
		}
		if c.sent%requestSampling == 0 {
			rec.add("request:"+k.label, t0, t1, parent, c.sent, lane)
		}
	}
}

// runWindow drives every client for dur and returns the window's
// request count, failures and latency percentiles.
func runWindow(t *loadTarget, clients []*loadClient, dur time.Duration, rec *recorder, parent int) unitResult {
	for _, c := range clients {
		c.lat, c.sent, c.failed = c.lat[:0], 0, 0
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(t, deadline, rec, parent, i+1)
		}()
	}
	wg.Wait()
	u := unitResult{seconds: time.Since(start).Seconds()}
	var lat []float64
	for _, c := range clients {
		u.ops += c.sent
		u.failed += c.failed
		lat = append(lat, c.lat...)
	}
	sort.Float64s(lat)
	u.p50ms, u.p99ms = percentile(lat, 0.50), percentile(lat, 0.99)
	return u
}

// liveServer is an http.Server on a loopback listener.
type liveServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func startHTTP(h http.Handler) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return ls, nil
}

// stop shuts the listener down and waits for the serve goroutine.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ls.hs.Shutdown(ctx); err != nil {
		ls.hs.Close()
	}
	<-ls.done
}

// simServer is the simulation service behind a real listener.
type simServer struct {
	srv *serve.Server
	*liveServer
}

func startSimServer(cfg serve.Config) (*simServer, error) {
	srv := serve.New(cfg)
	ls, err := startHTTP(srv.Handler())
	if err != nil {
		shutdownSim(srv)
		return nil, err
	}
	return &simServer{srv: srv, liveServer: ls}, nil
}

func shutdownSim(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

func (s *simServer) stop() {
	s.liveServer.stop()
	shutdownSim(s.srv)
}

// serveWorkload is serve-hot or serve-cold: one server, one key space,
// one set of clients.
type serveWorkload struct {
	sim     *simServer
	target  loadTarget
	clients []*loadClient
	window  time.Duration
	check   digestChecker
	start   serve.Stats
	end     serve.Stats
	closed  bool
}

// coldKeys is the serve-cold key space and coldCache the server's cache
// size: a working set 4x the cache, scanned cyclically, never hits.
const (
	coldKeys  = 256
	coldCache = 64
)

// hotSet is the serve-hot key space: 8 cells whose replies differ in
// size. iters and jobs size the heavier cells (set-up runs each once).
func hotSet(quick bool) []serve.RunRequest {
	iters, jobs := 100, 500
	if quick {
		iters, jobs = 20, 100
	}
	reqs := []serve.RunRequest{
		{Scenario: "fig5"},
		{Scenario: "fig5", Params: scenario.Params{Transfers: 20}},
	}
	for _, name := range []string{"fig3", "fig4", "fig6", "scale-out", "resilience"} {
		reqs = append(reqs, serve.RunRequest{Scenario: name, Params: scenario.Params{SweepIters: iters}})
	}
	return append(reqs, serve.RunRequest{Scenario: "campaign", Params: scenario.Params{Jobs: jobs}})
}

// coldSet is 256 distinct real cells. The keys differ in a parameter
// the scenario consumes (fig5's transfer count), not in the request
// seed.
func coldSet() []serve.RunRequest {
	reqs := make([]serve.RunRequest, coldKeys)
	for i := range reqs {
		reqs[i] = serve.RunRequest{Scenario: "fig5", Params: scenario.Params{Transfers: 20 + i}}
	}
	return reqs
}

// requestLabel names a request in digests and spans.
func requestLabel(r serve.RunRequest) string {
	p, _ := json.Marshal(r.Params)
	return r.Scenario + strings.NewReplacer(`"`, "", "{", "(", "}", ")").Replace(string(p))
}

func encodeKeys(reqs []serve.RunRequest) ([]serveKey, error) {
	keys := make([]serveKey, len(reqs))
	for i, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		keys[i] = serveKey{label: requestLabel(r), body: body}
	}
	return keys, nil
}

func newServeWorkload(def workloadDef, o options, pl plan, pinned map[string]string) (w *serveWorkload, err error) {
	nClients := lpWorkers()
	rng := rand.New(rand.NewSource(o.seed))
	w = &serveWorkload{window: pl.window, check: digestChecker{pinned: pinned, seen: map[string]string{}}}
	cfg := serve.Config{}
	var reqs []serve.RunRequest
	var refOrder []int
	if def.Name == "serve-hot" {
		reqs = hotSet(o.quick)
		w.target.wantCache = "hit"
		// The seed orders each client's walk over the hot set.
		for c := 0; c < nClients; c++ {
			w.clients = append(w.clients, newLoadClient(rng.Perm(len(reqs))))
		}
		for i := range reqs {
			refOrder = append(refOrder, i)
		}
	} else {
		reqs = coldSet()
		cfg.CacheSize = coldCache
		w.target.wantCache = "miss"
		// Client c takes indices c, c+clients, ... from a seeded offset,
		// so no two in-flight requests ever share a key (no dedup joins)
		// and every key returns only after the whole cycle (no hits).
		offset := rng.Intn(coldKeys/nClients) * nClients
		for c := 0; c < nClients; c++ {
			var order []int
			for i := c; i < coldKeys; i += nClients {
				order = append(order, (offset+i)%coldKeys)
			}
			w.clients = append(w.clients, newLoadClient(order))
		}
		for i := 0; i < coldKeys; i++ {
			refOrder = append(refOrder, (offset+i)%coldKeys)
		}
	}
	if w.target.keys, err = encodeKeys(reqs); err != nil {
		return nil, err
	}
	if w.sim, err = startSimServer(cfg); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	w.target.url = w.sim.url + "/v1/run"

	// Reference replies: the first reply per key must be a miss, and the
	// digest of its "result" is pinned. On serve-hot this also primes the
	// cache; on serve-cold the cyclic order leaves the cache holding only
	// the keys furthest from where the clients start.
	ref := loadTarget{url: w.target.url, keys: w.target.keys, wantCache: "miss"}
	c := w.clients[0]
	var coldDigests []string
	for _, i := range refOrder {
		k := &w.target.keys[i]
		if err := c.do(&ref, k); err != nil {
			return nil, fmt.Errorf("reference reply for %s: %w", k.label, err)
		}
		k.ref = append([]byte(nil), c.buf.Bytes()...)
		var reply struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(k.ref, &reply); err != nil || len(reply.Result) == 0 {
			return nil, fmt.Errorf("reference reply for %s has no result (%v)", k.label, err)
		}
		if def.Name == "serve-hot" {
			if err := w.check.check(def.Name+"/"+k.label, digest(reply.Result)); err != nil {
				return nil, err
			}
		} else {
			coldDigests = append(coldDigests, k.label+"="+digest(reply.Result))
		}
	}
	if coldDigests != nil {
		sort.Strings(coldDigests)
		if err := w.check.check(def.Name+"/all", digest([]byte(strings.Join(coldDigests, "\n")))); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *serveWorkload) unit(rec *recorder, parent, id int) unitResult {
	if id == 0 {
		w.start = w.sim.srv.Stats() // first timed window: the warm-up is behind us
	}
	w.countStats(rec)
	u := runWindow(&w.target, w.clients, w.window, rec, parent)
	w.countStats(rec)
	w.end = w.sim.srv.Stats()
	return u
}

// countStats records the server's counters at a traced window boundary.
func (w *serveWorkload) countStats(rec *recorder) {
	if rec == nil {
		return
	}
	st := w.sim.srv.Stats()
	rec.count("serve.requests", float64(st.Requests))
	rec.count("serve.cache_hits", float64(st.CacheHits))
	rec.count("serve.cache_misses", float64(st.CacheMisses))
	rec.count("serve.evictions", float64(st.Evictions))
}

// finish reports the server's counter deltas over the timed windows.
func (w *serveWorkload) finish(m metricSet) {
	n := float64(max(w.end.Requests-w.start.Requests, 1))
	m.set("serve.hit_ratio", float64(w.end.CacheHits-w.start.CacheHits)/n)
	m.set("serve.evictions_per_op", float64(w.end.Evictions-w.start.Evictions)/n)
	m.set("serve.dedup_joins", float64(w.end.DedupJoins-w.start.DedupJoins))
	m.set("serve.shed", float64(w.end.Shed-w.start.Shed))
}

func (w *serveWorkload) digests() map[string]string { return w.check.seen }

func (w *serveWorkload) close() {
	if w.closed {
		return
	}
	w.closed = true
	for _, c := range w.clients {
		c.hc.CloseIdleConnections()
	}
	w.sim.stop()
}
