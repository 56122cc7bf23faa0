package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
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

// species is one kind of request in a mix: weight sends in every cycle
// of the mix, each the template req. A cold species adds the send's
// index to Params.Rate, so every send is a distinct cache cell; a hot
// one replays req verbatim.
type species struct {
	weight int
	cold   bool
	req    RunRequest
}

// outcome classifies every response of a burst.
type outcome struct {
	sent, ok, shed, failed int
	kinds                  map[string]int // failures by APIError kind, or "transport"
}

// fire sends n requests open loop, one every interval whatever the
// server answers, cycling through mix by weight, and returns once every
// response has resolved.
func fire(c *Client, n int, interval time.Duration, mix []species) outcome {
	var cycle []species
	for _, s := range mix {
		for range s.weight {
			cycle = append(cycle, s)
		}
	}
	out := outcome{sent: n, kinds: make(map[string]int)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := range n {
		s := cycle[i%len(cycle)]
		req := s.req
		if s.cold {
			req.Params.Rate += float64(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, _, err := c.Run(ctx, req)
			mu.Lock()
			defer mu.Unlock()
			var ae *APIError
			switch {
			case err == nil:
				out.ok++
			case !errors.As(err, &ae):
				out.kinds["transport"]++
				out.failed++
			case ae.Kind == KindOverloaded:
				out.kinds[ae.Kind]++
				out.shed++
			default:
				out.kinds[ae.Kind]++
				out.failed++
			}
		}()
		<-tick.C
	}
	wg.Wait()
	return out
}

func TestTortureMixedHostileTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 2, QueueDepth: 4, CacheSize: 32,
		RunTimeout: 500 * time.Millisecond, MaxEvents: 1000,
	})
	c := &Client{BaseURL: ts.URL}

	report := fire(c, 120, 2500*time.Microsecond, []species{ // 400 requests/s
		{weight: 4, req: RunRequest{Scenario: "t-ok"}},
		{weight: 2, cold: true, req: rateRequest("t-ok", 1000)},
		{weight: 1, cold: true, req: rateRequest("t-panic", 2000)},
		{weight: 1, cold: true, req: rateRequest("t-budget", 3000)},
		{weight: 1, cold: true, req: RunRequest{Scenario: "t-hang", Params: scenario.Params{Rate: 5000}, TimeoutS: 0.05}},
	})

	// The process survived (we're still here) and every offered request
	// resolved to a classified outcome — nothing vanished.
	if got := report.ok + report.shed + report.failed; got != report.sent {
		t.Fatalf("%d of %d requests unaccounted for: %+v", report.sent-got, report.sent, report)
	}
	if report.ok == 0 {
		t.Fatalf("no healthy request survived the torture mix: %+v", report)
	}
	if report.kinds["transport"] != 0 {
		t.Fatalf("%d transport-level failures (dropped connections?): %+v",
			report.kinds["transport"], report)
	}
	// Each saboteur species produced its own typed kind.
	for _, kind := range []string{KindPanic, KindBudgetExceeded, KindTimeout} {
		if report.kinds[kind] == 0 {
			t.Errorf("no %s failures classified; kinds: %v", kind, report.kinds)
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

	report := fire(c, 40, 5*time.Millisecond, []species{{ // 200 requests/s
		weight: 1, cold: true,
		req: RunRequest{Scenario: "t-slow", Params: scenario.Params{Rate: 6000, TimelineWindowS: 0.1}},
	}})
	if report.shed == 0 {
		t.Fatalf("overload produced no shedding: %+v", report)
	}
	if report.ok == 0 {
		t.Fatalf("overload starved every request: %+v", report)
	}
	if report.kinds["transport"] != 0 || report.failed != 0 {
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
