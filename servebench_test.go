package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"simaibench/internal/scenario"
	"simaibench/internal/serve"
)

// The serving layer's self-benchmark (PR 9, recorded in BENCH_DES.json
// under "serve"): the server eats its own load generator. Each benchmark
// replays a seeded open-loop request mix (internal/loadgen arrivals
// through the typed client) against a live server and reports the
// service-level observables — QPS, p50/p99 latency, cache hit rate, and
// the shed rate under 1.2x overload. The zero-lost-completed-results
// shutdown contract is pinned by TestGracefulShutdownServesInFlight and
// the cmd-level SIGTERM test rather than measured here.

// newServeBench starts a server on an httptest listener and returns the
// typed client plus a cleanup.
func newServeBench(b *testing.B, cfg serve.Config) (*serve.Client, func()) {
	b.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	return &serve.Client{BaseURL: ts.URL}, func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}
}

// reportLoad publishes a LoadReport's headline numbers as benchmark
// metrics.
func reportLoad(b *testing.B, r *serve.LoadReport) {
	b.ReportMetric(r.QPS, "qps")
	b.ReportMetric(r.P50Ms, "p50-ms")
	b.ReportMetric(r.P99Ms, "p99-ms")
	if r.Sent > 0 {
		b.ReportMetric(float64(r.CacheHits)/float64(r.Sent), "hit-rate")
		b.ReportMetric(r.ShedRate(), "shed-rate")
	}
}

// BenchmarkServeHot replays a cache-hot mix: every request addresses the
// same (scenario, params) cell, so after the first miss the server
// answers from the content-addressed cache. The p50 here is the serving
// floor — decode, key, one map lookup, write.
func BenchmarkServeHot(b *testing.B) {
	c, cleanup := newServeBench(b, serve.Config{Workers: 2})
	defer cleanup()
	req := serve.RunRequest{Scenario: "fig5", Params: scenario.Params{Transfers: 20}}
	if _, _, err := c.Run(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := serve.RunLoad(context.Background(), c, serve.LoadConfig{
			Seed: int64(i + 1), Requests: 200, RatePerS: 1000,
			Mix:     []serve.LoadMix{{Name: "hot", Weight: 1, Request: req}},
			Timeout: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if report.OK != report.Sent {
			b.Fatalf("hot replay lost requests: %+v", report)
		}
		reportLoad(b, report)
	}
}

// BenchmarkServeCold replays a cache-cold mix: every request is a
// distinct cell, so each one is admitted and simulated. The arrivals
// vary fig5's event budget, a knob it reads that leaves the result — and
// so the cost of a cell — unchanged at any value this large. This is the serving path's full cost — admission,
// hardened run, encode, cache insert.
func BenchmarkServeCold(b *testing.B) {
	c, cleanup := newServeBench(b, serve.Config{Workers: 2})
	defer cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := serve.RunLoad(context.Background(), c, serve.LoadConfig{
			Seed: int64(i + 1), Requests: 100, RatePerS: 400,
			Mix: []serve.LoadMix{{Name: "cold", Weight: 1, Vary: scenario.MaxEvents,
				Request: serve.RunRequest{Scenario: "fig5",
					Params: scenario.Params{Transfers: 20, MaxEvents: int64(1_000_000_000 + i*1_000)}}}},
			Timeout: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if report.OK != report.Sent {
			b.Fatalf("cold replay lost requests: %+v", report)
		}
		reportLoad(b, report)
	}
}

// BenchmarkServeColdMiss is one cold POST /v1/run in process, with no
// socket: the serve-cold key stream (fig5 at Transfers 20, 21, …, 256
// distinct cells) through the handler into a 64-entry cache, so every
// request is admitted, run, encoded and stored with an eviction. With
// -benchmem, B/op and allocs/op are what a cold request allocates.
func BenchmarkServeColdMiss(b *testing.B) {
	const keys, cacheSize = 256, 64
	bodies := make([][]byte, keys)
	for i := range bodies {
		body, err := json.Marshal(serve.RunRequest{Scenario: "fig5", Params: scenario.Params{Transfers: 20 + i}})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	s := serve.New(serve.Config{CacheSize: cacheSize})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	post := func(i int) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/run", bytes.NewReader(bodies[i%keys])))
		if got := rr.Header().Get("X-Cache"); got != "miss" {
			b.Fatalf("request %d: X-Cache %q (status %d), want miss", i, got, rr.Code)
		}
	}
	for i := range keys { // fill the cache so every timed request evicts
		post(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(keys + i)
	}
}

// BenchmarkServeOverload offers 1.2x the measured single-worker capacity
// of a heavier scenario (table2, ~tens of ms per run) at queue depth 2:
// graceful degradation means the excess sheds with typed 429s while
// admitted requests still complete. shed-rate is the headline metric.
// Each arrival trains one iteration more than the last: a distinct cell
// at near-equal cost.
func BenchmarkServeOverload(b *testing.B) {
	c, cleanup := newServeBench(b, serve.Config{Workers: 1, QueueDepth: 2})
	defer cleanup()
	req := serve.RunRequest{Scenario: "table2", Params: scenario.Params{TrainIters: 100}}

	// Calibrate capacity: one cold run's wall time on the only worker.
	t0 := time.Now()
	if _, _, err := c.Run(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	serviceS := time.Since(t0).Seconds()
	rate := 1.2 / serviceS

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(serviceS*1000, "service-ms")
		report, err := serve.RunLoad(context.Background(), c, serve.LoadConfig{
			Seed: int64(i + 1), Requests: 30, RatePerS: rate,
			Mix: []serve.LoadMix{{Name: "overload", Weight: 1, Vary: scenario.TrainIters,
				Request: serve.RunRequest{Scenario: "table2",
					Params: scenario.Params{TrainIters: 101 + 30*i}}}},
			Timeout: 120 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if report.Failed > 0 {
			b.Fatalf("overload produced non-shed failures: %+v", report)
		}
		reportLoad(b, report)
	}
}
