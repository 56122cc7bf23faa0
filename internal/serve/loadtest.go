package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"simaibench/internal/dist"
	"simaibench/internal/loadgen"
	"simaibench/internal/scenario"
	"simaibench/internal/stats"
)

// The self-benchmark harness: the server eats its own dogfood. The same
// open-loop generator that drives the facility-scale campaign scenarios
// (internal/loadgen) produces the arrival timeline here — a seeded
// Poisson stream over a weighted mix of request templates — replayed in
// real wall-clock time against a running server through the typed
// Client. Open loop is the point: arrivals do not wait for responses,
// so when the server saturates the harness keeps offering load and the
// shed rate, not a slowed request stream, absorbs the overload.

// LoadMix is one request species of a load test: a relative weight and
// the request template its arrivals replay.
type LoadMix struct {
	// Name labels the species in reports.
	Name string
	// Weight is the species' relative share of arrivals (> 0).
	Weight float64
	// Request is the template each arrival of this species submits.
	Request RunRequest
	// Vary, when set, adds i to the numeric knobs it names in the i-th
	// arrival's Request.Params — every request a distinct cache cell, the
	// cache-cold traffic shape. Name a knob the scenario reads, or the
	// server refuses the request. Zero replays the template verbatim,
	// the cache-hot shape.
	Vary scenario.Knob
}

// LoadConfig describes one load test: how many requests, at what rate,
// over what mix.
type LoadConfig struct {
	// Seed roots the arrival process; equal seeds offer identical
	// timelines.
	Seed int64
	// Requests is the number of arrivals to offer.
	Requests int
	// RatePerS is the mean arrival rate in requests per wall-clock
	// second.
	RatePerS float64
	// Mix is the weighted request mix (at least one entry).
	Mix []LoadMix
	// Timeout bounds each request on the client side (0 = none beyond
	// ctx).
	Timeout time.Duration
}

// LoadReport is the outcome of one load test: the service-level
// observables of the serving layer.
type LoadReport struct {
	// Sent is the number of requests offered.
	Sent int `json:"sent"`
	// OK counts 200 responses.
	OK int `json:"ok"`
	// CacheHits counts OK responses served from the result cache.
	CacheHits int `json:"cache_hits"`
	// Shed counts 429 (overloaded) rejections.
	Shed int `json:"shed"`
	// Failed counts every other failure (typed errors and transport).
	Failed int `json:"failed"`
	// ErrorKinds tallies failures by machine-readable kind.
	ErrorKinds map[string]int `json:"error_kinds,omitempty"`
	// DurationS is the wall-clock span from first send to last response.
	DurationS float64 `json:"duration_s"`
	// QPS is completed responses (OK + Shed + Failed) per second.
	QPS float64 `json:"qps"`
	// P50Ms, P99Ms and MaxMs are latency percentiles over OK responses,
	// in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// ShedRate returns the fraction of offered requests shed (0 when none
// were sent).
func (r *LoadReport) ShedRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Sent)
}

// RunLoad replays cfg against the server behind c: arrivals fire at
// their generated instants (open loop — a response is never waited on
// before the next send), every response is classified, and latencies
// aggregate into exact percentiles. It returns once every in-flight
// request has resolved; ctx cancellation abandons pacing but still
// drains what was sent.
func RunLoad(ctx context.Context, c *Client, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("serve: load test with %d requests", cfg.Requests)
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("serve: load test with empty mix")
	}
	// Reuse the campaign generator for the arrival timeline and the
	// class-mix draw; the job attribute samplers are unused here, so
	// fixed placeholders keep the config valid.
	gcfg := loadgen.Config{
		Seed:     cfg.Seed,
		RatePerS: cfg.RatePerS,
		Jobs:     cfg.Requests,
	}
	for _, m := range cfg.Mix {
		gcfg.Classes = append(gcfg.Classes, loadgen.Class{
			Name: m.Name, Weight: m.Weight,
			Nodes: dist.Fixed(1), ServiceS: dist.Fixed(1), SlackS: dist.Fixed(1),
		})
	}
	jobs, err := loadgen.Generate(gcfg)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]LoadMix, len(cfg.Mix))
	for _, m := range cfg.Mix {
		byName[m.Name] = m
	}

	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		lat    stats.Digest
		report = &LoadReport{ErrorKinds: make(map[string]int)}
	)
	start := time.Now()
	for i, job := range jobs {
		// Pace to the generated timeline: ArriveS is relative to test
		// start. Cancellation stops offering but drains what was sent.
		if d := time.Duration(job.ArriveS*float64(time.Second)) - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		mix := byName[job.Class]
		req := mix.Request
		req.Params.Add(mix.Vary, i)
		report.Sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			rctx := ctx
			if cfg.Timeout > 0 {
				var cancel context.CancelFunc
				rctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
				defer cancel()
			}
			t0 := time.Now()
			_, cached, err := c.Run(rctx, req)
			elapsed := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				report.OK++
				if cached {
					report.CacheHits++
				}
				lat.Add(elapsed.Seconds() * 1e3)
				return
			}
			var ae *APIError
			if errors.As(err, &ae) {
				report.ErrorKinds[ae.Kind]++
				if ae.Kind == KindOverloaded {
					report.Shed++
					return
				}
			} else {
				report.ErrorKinds["transport"]++
			}
			report.Failed++
		}()
	}
	wg.Wait()
	report.DurationS = time.Since(start).Seconds()
	if done := report.OK + report.Shed + report.Failed; done > 0 && report.DurationS > 0 {
		report.QPS = float64(done) / report.DurationS
	}
	if lat.N() > 0 {
		report.P50Ms, report.P99Ms, report.MaxMs = lat.P50(), lat.P99(), lat.Max()
	}
	return report, nil
}
