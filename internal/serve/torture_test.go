package serve

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"simaibench/internal/scenario"
)

// The torture suite: hostile traffic — panics, budget trips, hangs —
// mixed with healthy requests at rates past capacity. The
// contract is graceful degradation: zero process crashes, every response
// a typed body or a 200, overload absorbed by shedding rather than
// unbounded queueing.

// rateRequest addresses scenario name with the rate knob every test
// scenario reads, the suite's way to make distinct cache cells.
func rateRequest(name string, rate float64) RunRequest {
	return RunRequest{Scenario: name, Params: scenario.Params{Rate: rate}}
}

func TestTortureMixedHostileTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 2, QueueDepth: 4, CacheSize: 32,
		RunTimeout: 500 * time.Millisecond, MaxEvents: 1000,
	})
	c := &Client{BaseURL: ts.URL}

	mix := []LoadMix{
		{Name: "healthy-hot", Weight: 4, Request: RunRequest{Scenario: "t-ok"}},
		{Name: "healthy-cold", Weight: 2, Request: rateRequest("t-ok", 1000), Vary: scenario.Rate},
		{Name: "panicker", Weight: 1, Request: rateRequest("t-panic", 2000), Vary: scenario.Rate},
		{Name: "budget-trip", Weight: 1, Request: rateRequest("t-budget", 3000), Vary: scenario.Rate},
		{Name: "hanger", Weight: 1, Request: RunRequest{Scenario: "t-hang", Params: scenario.Params{Rate: 5000}, TimeoutS: 0.05},
			Vary: scenario.Rate},
	}
	report, err := RunLoad(context.Background(), c, LoadConfig{
		Seed: 9, Requests: 120, RatePerS: 400, Mix: mix, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}

	// The process survived (we're still here) and every offered request
	// resolved to a classified outcome — nothing vanished.
	if got := report.OK + report.Shed + report.Failed; got != report.Sent {
		t.Fatalf("%d of %d requests unaccounted for: %+v", report.Sent-got, report.Sent, report)
	}
	if report.OK == 0 {
		t.Fatalf("no healthy request survived the torture mix: %+v", report)
	}
	if report.ErrorKinds["transport"] != 0 {
		t.Fatalf("%d transport-level failures (dropped connections?): %+v",
			report.ErrorKinds["transport"], report)
	}
	// Each saboteur species produced its own typed kind.
	for _, kind := range []string{KindPanic, KindBudgetExceeded, KindTimeout} {
		if report.ErrorKinds[kind] == 0 {
			t.Errorf("no %s failures classified; kinds: %v", kind, report.ErrorKinds)
		}
	}

	// The server still answers health checks and fresh work after abuse.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after torture: %v (status %d)", err, resp.StatusCode)
	}
	resp.Body.Close()
	if _, _, err := c.Run(context.Background(), rateRequest("t-ok", 77)); err != nil {
		t.Fatalf("healthy request after torture: %v", err)
	}
}

func TestOverloadShedsWithRetryAfter(t *testing.T) {
	// One worker, tiny queue, slow runs: offered load far past capacity
	// must shed with typed 429s instead of queueing unboundedly.
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	c := &Client{BaseURL: ts.URL}

	mix := []LoadMix{{
		Name: "slow-cold", Weight: 1, Vary: scenario.Rate,
		Request: RunRequest{
			Scenario: "t-slow",
			Params:   scenario.Params{Rate: 6000, TimelineWindowS: 0.1},
		},
	}}
	report, err := RunLoad(context.Background(), c, LoadConfig{
		Seed: 10, Requests: 40, RatePerS: 200, Mix: mix, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if report.Shed == 0 {
		t.Fatalf("overload produced no shedding: %+v", report)
	}
	if report.OK == 0 {
		t.Fatalf("overload starved every request: %+v", report)
	}
	if report.ErrorKinds["transport"] != 0 || report.Failed != 0 {
		t.Fatalf("overload produced non-shed failures: %+v", report)
	}
	if st := s.Stats(); st.Shed == 0 {
		t.Fatalf("/statz did not count shedding: %+v", st)
	}

	// The typed 429 carries a Retry-After hint: occupy the worker and
	// fill the queue with distinct hanging runs (fired asynchronously),
	// then probe until one request sheds.
	for i := 0; i < 3; i++ {
		req := RunRequest{Scenario: "t-hang", Params: scenario.Params{Rate: float64(7000 + i)}, TimeoutS: 1}
		go func() {
			c.Run(context.Background(), req)
		}()
	}
	time.Sleep(100 * time.Millisecond) // let the hangs fill worker + queue
	probe := &http.Client{Timeout: 250 * time.Millisecond}
	deadline := time.Now().Add(3 * time.Second)
	sawRetryAfter := false
	for i := 0; time.Now().Before(deadline) && !sawRetryAfter; i++ {
		resp, err := probe.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(`{"scenario":"t-hang","timeout_s":1,"params":{"rate":`+strconv.Itoa(8000+i)+`}}`))
		if err != nil {
			continue // probe was admitted and outlived its client timeout
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After header")
			}
			sawRetryAfter = true
		}
		resp.Body.Close()
	}
	if !sawRetryAfter {
		t.Fatalf("saturated server never shed with 429")
	}
}

func TestLoadReportLatencies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	c := &Client{BaseURL: ts.URL}
	report, err := RunLoad(context.Background(), c, LoadConfig{
		Seed: 11, Requests: 30, RatePerS: 300,
		Mix:     []LoadMix{{Name: "hot", Weight: 1, Request: rateRequest("t-ok", 900)}},
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if report.OK != 30 {
		t.Fatalf("hot replay failed: %+v", report)
	}
	if report.CacheHits == 0 {
		t.Fatalf("hot replay produced no cache hits: %+v", report)
	}
	if !(report.P50Ms > 0) || !(report.P99Ms >= report.P50Ms) || !(report.MaxMs >= report.P99Ms) {
		t.Fatalf("latency percentiles not ordered: p50 %v p99 %v max %v",
			report.P50Ms, report.P99Ms, report.MaxMs)
	}
	if !(report.QPS > 0) || !(report.DurationS > 0) {
		t.Fatalf("throughput not recorded: %+v", report)
	}
	if report.ShedRate() != 0 {
		t.Fatalf("unexpected shedding on an underloaded server: %+v", report)
	}
}
