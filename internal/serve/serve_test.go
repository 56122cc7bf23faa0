package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/des"
	"simaibench/internal/scenario"
	"simaibench/internal/sweep"
)

// The serve tests do not import the experiments packages, so the global
// registry is empty here and the suite registers its own test-only
// scenarios (the saboteur pattern the guardrail tests use): a healthy
// deterministic run, a run counter for dedup assertions, a slow run for
// drain tests, one misbehaving run per guardrail, and a wedged run only
// the test can release.

var (
	registerOnce sync.Once
	// tCountRuns counts underlying executions of t-count — the
	// singleflight assertions' ground truth.
	tCountRuns atomic.Int64
	// tSlowStarted receives one tick per t-slow run start, so drain tests
	// can SIGTERM mid-run instead of racing the admission.
	tSlowStarted = make(chan struct{}, 64)
	// tWedge releases one t-wedge run per value sent: the test's only
	// handle on a run that ignores its context.
	tWedge = make(chan struct{})
	// tLate releases one t-late run per value sent, which then succeeds
	// however far past its deadline it is.
	tLate = make(chan struct{})
)

// okResult builds a small deterministic Result echoing p.Rate. Every
// test scenario declares rate, so it is the suite's cache-buster.
func okResult(name string, p scenario.Params) *scenario.Result {
	return &scenario.Result{Scenario: name, Params: p, Tables: []scenario.Table{{
		Title:   name,
		Columns: []scenario.Column{{Key: "rate", Head: "rate", HeadFmt: "%8s", CellFmt: "%8.2f"}},
		Cells:   []scenario.Cell{scenario.F(p.Rate)},
	}}}
}

// registerTestScenarios installs the suite's scenarios once per process.
func registerTestScenarios() {
	registerOnce.Do(func() {
		scenario.Register(scenario.New("t-ok", "test: deterministic healthy run",
			scenario.Params{Rate: 2}, scenario.Rate,
			func(_ context.Context, p scenario.Params) (*scenario.Result, error) {
				return okResult("t-ok", p), nil
			}))
		scenario.Register(scenario.New("t-wall", "test: wall-clock run (uncacheable)",
			scenario.Params{Rate: 1, Clock: clock.KindWall}, scenario.Rate|scenario.Clock,
			func(_ context.Context, p scenario.Params) (*scenario.Result, error) {
				return okResult("t-wall", p), nil
			}))
		scenario.Register(scenario.New("t-count", "test: counts executions, briefly slow",
			scenario.Params{Rate: 1}, scenario.Rate,
			func(ctx context.Context, p scenario.Params) (*scenario.Result, error) {
				tCountRuns.Add(1)
				select {
				case <-time.After(50 * time.Millisecond):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return okResult("t-count", p), nil
			}))
		scenario.Register(scenario.New("t-slow", "test: runs for TimelineWindowS seconds",
			scenario.Params{Rate: 1, TimelineWindowS: 0.2}, scenario.Rate|scenario.TimelineWindowS,
			func(ctx context.Context, p scenario.Params) (*scenario.Result, error) {
				select {
				case tSlowStarted <- struct{}{}:
				default:
				}
				select {
				case <-time.After(time.Duration(p.TimelineWindowS * float64(time.Second))):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return okResult("t-slow", p), nil
			}))
		scenario.Register(scenario.New("t-panic", "test: panics on every run",
			scenario.Params{Rate: 1}, scenario.Rate,
			func(context.Context, scenario.Params) (*scenario.Result, error) {
				panic("t-panic: deliberate test panic")
			}))
		scenario.Register(scenario.New("t-budget", "test: trips the DES event budget",
			scenario.Params{Rate: 1}, scenario.Rate|scenario.MaxEvents,
			func(_ context.Context, p scenario.Params) (*scenario.Result, error) {
				return nil, &des.BudgetExceeded{
					Guard: des.Guard{MaxEvents: p.MaxEvents}, Events: p.MaxEvents, Now: 1,
				}
			}))
		scenario.Register(scenario.New("t-hang", "test: ignores nothing, sleeps on ctx",
			scenario.Params{Rate: 1}, scenario.Rate,
			func(ctx context.Context, _ scenario.Params) (*scenario.Result, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}))
		scenario.Register(scenario.New("t-wedge", "test: ignores its ctx until the test releases it",
			scenario.Params{Rate: 1}, scenario.Rate,
			func(context.Context, scenario.Params) (*scenario.Result, error) {
				<-tWedge
				return nil, errors.New("t-wedge: released")
			}))
		scenario.Register(scenario.New("t-late", "test: ignores its ctx, then succeeds when the test releases it",
			scenario.Params{Rate: 1}, scenario.Rate,
			func(_ context.Context, p scenario.Params) (*scenario.Result, error) {
				<-tLate
				return okResult("t-late", p), nil
			}))
		scenario.Register(scenario.New("t-grid", "test: a guarded two-cell sweep whose second cell waits on its ctx",
			scenario.Params{Rate: 1}, scenario.Rate|scenario.TimeoutS,
			func(ctx context.Context, p scenario.Params) (*scenario.Result, error) {
				rep := sweep.Run(ctx, 2, p.Guardrails(), func(ctx context.Context, i int) (float64, error) {
					if i == 1 {
						<-ctx.Done()
						return 0, ctx.Err()
					}
					return p.Rate, nil
				})
				res := okResult("t-grid", p)
				res.Failures = scenario.FailuresFrom("t-grid", rep.Failures)
				return res, nil
			}))
	})
}

// newTestServer builds a Server on cfg plus an httptest front end, and
// registers cleanup that drains both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	registerTestScenarios()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// paramsFromJSON decodes a raw params object, failing the test on error.
func paramsFromJSON(t *testing.T, raw string) scenario.Params {
	t.Helper()
	var p scenario.Params
	if err := json.Unmarshal([]byte(raw), &p); err != nil {
		t.Fatalf("params %s: %v", raw, err)
	}
	return p
}

// postRun submits one raw /v1/run body and returns status, body, X-Cache.
func postRun(t *testing.T, url string, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header.Get("X-Cache")
}

// fetchJSON decodes the 200 body of GET url into out.
func fetchJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestRunColdThenHotByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := `{"scenario":"t-ok","params":{"rate":7}}`

	st1, body1, tag1 := postRun(t, ts.URL, req)
	if st1 != http.StatusOK || tag1 != "miss" {
		t.Fatalf("cold: status %d X-Cache %q (want 200 miss): %s", st1, tag1, body1)
	}
	st2, body2, tag2 := postRun(t, ts.URL, req)
	if st2 != http.StatusOK || tag2 != "hit" {
		t.Fatalf("hot: status %d X-Cache %q (want 200 hit)", st2, tag2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("hot and cold bodies differ:\ncold: %s\nhot:  %s", body1, body2)
	}

	var rr RunResponse
	if err := json.Unmarshal(body1, &rr); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if rr.Scenario != "t-ok" || rr.Result == nil || len(rr.Key) != 64 {
		t.Fatalf("unexpected response: scenario %q key %q result %v", rr.Scenario, rr.Key, rr.Result)
	}
	if rr.Result.Params.Rate != 7 {
		t.Fatalf("params did not propagate: rate = %v", rr.Result.Params.Rate)
	}

	// The typed client reports the same disposition and key.
	c := &Client{BaseURL: ts.URL}
	typed := RunRequest{Scenario: "t-ok", Params: scenario.Params{Rate: 9}}
	cold, hit, err := c.Run(context.Background(), typed)
	if err != nil || hit || cold.Result == nil {
		t.Fatalf("typed cold run: %v (cached %v): %+v", err, hit, cold)
	}
	hot, hit, err := c.Run(context.Background(), typed)
	if err != nil || !hit || hot.Key != cold.Key {
		t.Fatalf("typed hot run: %v (cached %v, want hit), keys %s vs %s", err, hit, hot.Key, cold.Key)
	}
}

// No scenario reads a seed, so a nonzero one is refused by name rather
// than keyed: it could only store the same result twice. The key is the
// effective params: a different value of a declared knob is a new cell,
// and explicit defaults are the implicit ones.
func TestRunKeyedBySeedAndParams(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	_, b1, _ := postRun(t, ts.URL, `{"scenario":"t-ok"}`)
	st, body, _ := postRun(t, ts.URL, `{"scenario":"t-ok","seed":2}`)
	var eb errorBody
	if err := json.Unmarshal(body, &eb); st != http.StatusBadRequest || err != nil || eb.Error == nil ||
		eb.Error.Kind != KindBadRequest || !strings.Contains(eb.Error.Message, `"seed"`) {
		t.Fatalf("seed 2: status %d body %s, want a 400 bad_request naming \"seed\"", st, body)
	}
	if n := s.Stats().CacheLen; n != 1 {
		t.Fatalf("the refused seed reached the cache: cache_len = %d, want 1", n)
	}
	st, _, tag := postRun(t, ts.URL, `{"scenario":"t-ok","params":{"rate":3}}`)
	if st != http.StatusOK || tag == "hit" {
		t.Fatalf("different rate served from cache (status %d, X-Cache %q)", st, tag)
	}
	// Same effective params spelled implicitly vs explicitly: one key.
	st, b3, tag := postRun(t, ts.URL, `{"scenario":"t-ok","params":{"rate":2},"seed":0}`)
	if st != http.StatusOK || tag != "hit" {
		t.Fatalf("explicit defaults missed the cache (status %d, X-Cache %q)", st, tag)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatalf("implicit vs explicit defaults served different bodies")
	}
}

func TestWallClockBypassesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := `{"scenario":"t-wall"}`
	for i := 0; i < 2; i++ {
		st, _, tag := postRun(t, ts.URL, req)
		if st != http.StatusOK || tag == "hit" {
			t.Fatalf("request %d: status %d X-Cache %q (wall runs must not hit)", i, st, tag)
		}
	}
	if n := s.Stats().CacheLen; n != 0 {
		t.Fatalf("wall-clock result was cached (cache_len = %d)", n)
	}
}

func TestRunRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
		status     int
		kind       string
		names      string // the message names the offending field
	}{
		{"malformed json", `{"scenario":`, http.StatusBadRequest, KindBadRequest, ""},
		{"unknown field", `{"scenario":"t-ok","bogus":1}`, http.StatusBadRequest, KindBadRequest, "bogus"},
		{"removed knob", `{"scenario":"t-ok","params":{"retries":1}}`, http.StatusBadRequest, KindBadRequest, "retries"},
		{"missing scenario", `{"seed":1}`, http.StatusBadRequest, KindBadRequest, ""},
		{"unknown scenario", `{"scenario":"no-such"}`, http.StatusNotFound, KindUnknownScenario, ""},
		{"bad clock", `{"scenario":"t-ok","params":{"clock":"sundial"}}`, http.StatusBadRequest, KindBadRequest, `"clock" is "sundial"`},
		// An unknown id is refused naming the key and the valid ids, before
		// a cell runs into it (and an all-failed body is cached).
		{"bad policy", `{"scenario":"t-ok","params":{"policy":"lottery"}}`, http.StatusBadRequest, KindBadRequest, `"policy" is "lottery"`},
		{"bad policy ids", `{"scenario":"t-ok","params":{"policy":"lottery"}}`, http.StatusBadRequest, KindBadRequest, "fifo"},
		{"bad coll_algo", `{"scenario":"t-ok","params":{"coll_algo":"star"}}`, http.StatusBadRequest, KindBadRequest, `"coll_algo" is "star"`},
		{"bad coll_algo ids", `{"scenario":"t-ok","params":{"coll_algo":"star"}}`, http.StatusBadRequest, KindBadRequest, "ring"},
		{"bad clock ids", `{"scenario":"t-ok","params":{"clock":"sundial"}}`, http.StatusBadRequest, KindBadRequest, "virtual"},
		// A knob the scenario does not read, or a seed, would only split
		// the cache: refused naming the knob and the scenario.
		{"undeclared knob", `{"scenario":"t-ok","params":{"sweep_iters":5}}`, http.StatusBadRequest, KindBadRequest, `"sweep_iters"`},
		{"undeclared knob names scenario", `{"scenario":"t-ok","params":{"policy":"edf"}}`, http.StatusBadRequest, KindBadRequest, "t-ok"},
		{"seed", `{"scenario":"t-ok","seed":7}`, http.StatusBadRequest, KindBadRequest, `"seed"`},
		{"negative timeout", `{"scenario":"t-ok","timeout_s":-1}`, http.StatusBadRequest, KindBadRequest, "timeout_s"},
		// A knob the server accepts is acted on: the negative values the
		// scenarios used to replace with their defaults are refused before
		// keying, so they cannot become cache entries holding the default
		// body.
		{"negative cell timeout", `{"scenario":"t-ok","params":{"timeout_s":-3}}`, http.StatusBadRequest, KindBadRequest, "timeout_s"},
		// Too long for a time.Duration: it would wrap negative and run the
		// request under the 120 s default, or a cell under no deadline.
		{"huge timeout", `{"scenario":"t-ok","timeout_s":1e10}`, http.StatusBadRequest, KindBadRequest, `"timeout_s" is 1e+10: must be below`},
		{"huge cell timeout", `{"scenario":"t-ok","params":{"timeout_s":1e10}}`, http.StatusBadRequest, KindBadRequest, `"timeout_s" is 1e+10: must be below`},
		{"negative rate", `{"scenario":"t-ok","params":{"rate":-1}}`, http.StatusBadRequest, KindBadRequest, "rate"},
		{"negative jobs", `{"scenario":"t-ok","params":{"jobs":-5}}`, http.StatusBadRequest, KindBadRequest, "jobs"},
		{"negative tenants", `{"scenario":"t-ok","params":{"tenants":-3}}`, http.StatusBadRequest, KindBadRequest, "tenants"},
		{"negative mtbf", `{"scenario":"t-ok","params":{"mtbf_s":-1}}`, http.StatusBadRequest, KindBadRequest, "mtbf_s"},
		{"negative ckpt", `{"scenario":"t-ok","params":{"ckpt_interval_s":-2}}`, http.StatusBadRequest, KindBadRequest, "ckpt_interval_s"},
		{"negative sweep iters", `{"scenario":"t-ok","params":{"sweep_iters":-5}}`, http.StatusBadRequest, KindBadRequest, "sweep_iters"},
		// workers was a knob until no cell ran on more than one core.
		{"dropped workers knob", `{"scenario":"t-ok","params":{"workers":2}}`, http.StatusBadRequest, KindBadRequest, "workers"},
	}
	for _, tc := range cases {
		st, body, _ := postRun(t, ts.URL, tc.body)
		if st != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, st, tc.status, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil {
			t.Errorf("%s: not a typed error body: %s", tc.name, body)
			continue
		}
		if eb.Error.Kind != tc.kind {
			t.Errorf("%s: kind %q, want %q", tc.name, eb.Error.Kind, tc.kind)
		}
		if !strings.Contains(eb.Error.Message, tc.names) {
			t.Errorf("%s: message %q does not name %q", tc.name, eb.Error.Message, tc.names)
		}
	}
}

// FuzzRunRequest: decoding a /v1/run body, validating its params and
// keying it never panic, and a body refused at any of those steps gets
// a typed error from the handler: 400 bad_request, or 404
// unknown_scenario for a well-formed body naming no scenario. A body
// that sets a knob its scenario does not declare, or a seed, is among
// the refused — so a 200 implies every knob set was declared. Accepted
// bodies are not run.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"scenario":"t-ok","params":{"rate":3},"seed":7}`,
		`{"scenario":"t-ok","timeout_s":-1}`,
		`{"scenario":"t-ok","params":{"clock":"sundial"}}`,
		`{"scenario":"t-ok","params":{"sweep_iters":-5,"mtbf_s":1e308}}`,
		`{"scenario":"t-ok","bogus":1}`,
		`{"scenario":"no-such"}`,
		`{"seed":1}`,
		`{"scenario":`,
	} {
		f.Add([]byte(seed))
	}
	registerTestScenarios()
	srv := New(Config{Workers: 1})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		wantStatus, wantKind := http.StatusBadRequest, KindBadRequest
		var req RunRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err == nil && req.Scenario != "" {
			sc, ok := scenario.Lookup(req.Scenario)
			if !ok {
				wantStatus, wantKind = http.StatusNotFound, KindUnknownScenario
			} else {
				err := errors.Join(req.Params.Validate(), scenario.Params{TimeoutS: req.TimeoutS}.Validate())
				declared := req.Seed == 0 && req.Params.Knobs()&^sc.Reads() == 0
				if _, keyErr := scenario.CacheKey(req.Scenario, req.Params, sc.Defaults(), req.Seed); err == nil && keyErr == nil && declared {
					return // accepted: the handler would run it
				}
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == nil {
			t.Fatalf("body %q: status %d without a typed error: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != wantStatus || eb.Error.Kind != wantKind {
			t.Fatalf("body %q: %d %s, want %d %s (%s)", body, rec.Code, eb.Error.Kind, wantStatus, wantKind, eb.Error.Message)
		}
	})
}

func TestGuardrailErrorsAreTyped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxEvents: 100})
	cases := []struct {
		scenario string
		status   int
		kind     string
	}{
		{"t-panic", http.StatusInternalServerError, KindPanic},
		{"t-budget", http.StatusUnprocessableEntity, KindBudgetExceeded},
	}
	for _, tc := range cases {
		st, body, _ := postRun(t, ts.URL, `{"scenario":"`+tc.scenario+`"}`)
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil {
			t.Errorf("%s: not a typed error body: %s", tc.scenario, body)
			continue
		}
		if st != tc.status || eb.Error.Kind != tc.kind {
			t.Errorf("%s: got %d/%q, want %d/%q", tc.scenario, st, eb.Error.Kind, tc.status, tc.kind)
		}
	}
}

func TestRunDeadlineAbandonsHungRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	start := time.Now()
	st, body, _ := postRun(t, ts.URL, `{"scenario":"t-hang","timeout_s":0.1}`)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", st, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil || eb.Error.Kind != KindTimeout {
		t.Fatalf("want typed timeout error, got: %s", body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the run: took %v", elapsed)
	}
}

// A run that ignores its ctx holds the only worker past its deadline:
// the caller gets the typed timeout at the deadline, and the request
// after it runs on the worker that replaced the abandoned one.
func TestRunTimeoutReplacesWedgedWorker(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	defer func() { tWedge <- struct{}{} }()
	start := time.Now()
	st, body, _ := postRun(t, ts.URL, `{"scenario":"t-wedge","timeout_s":0.1}`)
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || st != http.StatusGatewayTimeout || eb.Error == nil || eb.Error.Kind != KindTimeout {
		t.Fatalf("wedged run: status %d, body %s; want 504 %s", st, body, KindTimeout)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the wedged run: took %v", elapsed)
	}
	if st, body, _ := postRun(t, ts.URL, `{"scenario":"t-ok"}`); st != http.StatusOK {
		t.Fatalf("request after the abandoned run: status %d, body %s", st, body)
	}
}

// The abandoned run's late success is dropped: the cache does not hold
// it, and /statz counts the run once, as the failure its caller saw.
func TestAbandonedRunLateResultIsDropped(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	const req = `{"scenario":"t-late","timeout_s":0.05}`
	if st, body, _ := postRun(t, ts.URL, req); st != http.StatusGatewayTimeout {
		t.Fatalf("late run: status %d, body %s; want 504", st, body)
	}
	tLate <- struct{}{} // the abandoned run now returns its result
	type reply struct {
		status int
		tag    string
	}
	again := make(chan reply, 1)
	go func() {
		st, _, tag := postRun(t, ts.URL, `{"scenario":"t-late","timeout_s":5}`)
		again <- reply{st, tag}
	}()
	tLate <- struct{}{}
	if r := <-again; r.status != http.StatusOK || r.tag != "miss" {
		t.Fatalf("same key after the late result: status %d, X-Cache %q; want 200 miss", r.status, r.tag)
	}
	st := s.Stats()
	if st.RunsFailed != 1 || st.RunsCompleted != 1 || st.CacheMisses != 2 {
		t.Fatalf("stats %+v: want 1 failed (the abandoned run), 1 completed, 2 misses", st)
	}
}

// A params.timeout_s below the run deadline can fire first, so the
// scenario's nested sweep keeps its watchdog: the wedged cell fails as a
// timeout inside a 200 long before the run deadline.
func TestParamsTimeoutBelowRunDeadlineFailsCells(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	start := time.Now()
	st, body, _ := postRun(t, ts.URL, `{"scenario":"t-grid","timeout_s":10,"params":{"timeout_s":0.05}}`)
	var resp struct {
		FailureKinds []string `json:"failure_kinds"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || st != http.StatusOK {
		t.Fatalf("status %d, body %s; want 200", st, body)
	}
	if len(resp.FailureKinds) != 1 || resp.FailureKinds[0] != KindTimeout {
		t.Fatalf("failure kinds %v, want [%s]", resp.FailureKinds, KindTimeout)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("the cell deadline did not fire: took %v", elapsed)
	}
}

func TestScenariosEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var list scenarioList
	fetchJSON(t, ts.URL+"/v1/scenarios", &list)
	infos := list.Scenarios
	found := false
	for _, in := range infos {
		if in.Name == "t-ok" {
			found = true
			if in.Defaults.Rate != 2 {
				t.Errorf("t-ok defaults not served: %+v", in.Defaults)
			}
			if len(in.Knobs) != 1 || in.Knobs[0] != "rate" {
				t.Errorf("t-ok knobs = %v, want [rate]", in.Knobs)
			}
		}
	}
	if !found {
		t.Fatalf("t-ok missing from scenario list (%d entries)", len(infos))
	}
}

func TestHealthReadyStatz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v (status %d)", path, err, resp.StatusCode)
		}
		resp.Body.Close()
	}
	postRun(t, ts.URL, `{"scenario":"t-ok","params":{"rate":41}}`)
	postRun(t, ts.URL, `{"scenario":"t-ok","params":{"rate":41}}`)

	var st Stats
	fetchJSON(t, ts.URL+"/statz", &st)
	if st.Requests < 2 || st.CacheHits < 1 || st.CacheMisses < 1 || !st.Ready {
		t.Fatalf("unexpected counters: %+v", st)
	}

	// Draining flips /readyz to a typed 503 while /healthz stays 200.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz after drain: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain: status %d, want 503", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after drain: %v (status %d, want 200)", err, resp2.StatusCode)
	}
	resp2.Body.Close()
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatalf("GET /v1/run: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
}

func TestClientTypedErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	c := &Client{BaseURL: ts.URL}
	_, _, err := c.Run(context.Background(), RunRequest{Scenario: "no-such"})
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if ae.Kind != KindUnknownScenario || ae.Status != http.StatusNotFound {
		t.Fatalf("unexpected typed error: %+v", ae)
	}
}
