package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/scenario"
	"simaibench/internal/serve"
	"simaibench/internal/sweep"
)

// This file is the saboteur suite: a deliberately misbehaving test-only
// scenario proves each run guardrail end-to-end with nothing armed that
// production does not arm — a panicking cell, a cell parked on a
// mis-joined virtual-clock barrier under the per-cell deadline, and a
// cell that blows its DES event budget — all inside one sweep whose
// healthy cell must still complete and render. It is built with
// scenario.New but never Registered, so the registry (and the
// EXPERIMENTS.md table pinned to it) is unchanged.

// saboteurModes enumerate the sweep cells in order.
var saboteurModes = []string{"ok", "panic", "hang", "budget"}

// newSaboteurScenario builds the test-only scenario. The hung cell stays
// parked until release is closed.
func newSaboteurScenario(release <-chan struct{}) *scenario.Scenario {
	return scenario.New("saboteur", "test-only: one misbehaving cell per guardrail",
		scenario.Params{SweepIters: 50}, sweepKnobs,
		func(ctx context.Context, p scenario.Params) (*scenario.Result, error) {
			healthy := Pattern1Config{
				Nodes: 8, Backend: 0, SizeMB: 2,
				TrainIters: p.SweepIters, MaxEvents: p.MaxEvents,
			}
			points, fails, err := guardedGrid(ctx, p, "saboteur/cells", saboteurModes, []int{0},
				func(mode string, _ int) (Pattern1Point, error) {
					switch mode {
					case "panic":
						panic("saboteur: deliberate panic")
					case "hang":
						// Two participants join the time barrier but only this
						// goroutine ever sleeps: the barrier can never complete,
						// and nothing but the cell's deadline gets the sweep
						// past it. (The phantom leaves when the test ends, so
						// the abandoned goroutine does not outlive it.)
						v := clock.NewVirtual()
						v.Join()
						v.Join() // phantom second participant that never sleeps
						go func() {
							<-release
							v.Leave()
						}()
						v.Sleep(time.Millisecond)
						v.Leave()
						return Pattern1Point{}, errors.New("hang cell completed")
					case "budget":
						cfg := healthy
						cfg.MaxEvents = 50 // far below what the run needs
						return RunPattern1Checked(cfg)
					default:
						return RunPattern1Checked(healthy)
					}
				})
			if err != nil {
				return nil, err
			}
			return &scenario.Result{Scenario: "saboteur", Params: p, Failures: fails,
				Tables: []scenario.Table{fig3Table(8, points)}}, nil
		})
}

// One sweep, three sabotages: the panicking, hung and budget-blown cells
// must each surface as a structured failure carrying the typed error of
// the guardrail that caught it, and the healthy cell must complete and
// render.
func TestSaboteurScenarioGuardrails(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	res, err := newSaboteurScenario(release).Run(bg, scenario.Params{TimeoutS: 0.5})
	if err != nil {
		t.Fatalf("saboteur scenario aborted instead of reporting per-cell failures: %v", err)
	}

	byCell := map[int]scenario.CellFailure{}
	for _, f := range res.Failures {
		if f.Sweep != "saboteur/cells" {
			t.Errorf("failure has sweep label %q, want saboteur/cells", f.Sweep)
		}
		byCell[f.Cell] = f
	}
	if len(byCell) != 3 {
		t.Fatalf("failures = %+v, want exactly cells 1 (panic), 2 (hang), 3 (budget)", res.Failures)
	}
	var pe *sweep.PanicError
	if f := byCell[1]; !errors.As(f.Err, &pe) || !strings.Contains(f.Error, "panic: saboteur: deliberate panic") {
		t.Errorf("panic cell failure = %+v, want a *sweep.PanicError", f)
	}
	if f := byCell[2]; !errors.Is(f.Err, sweep.ErrCellTimeout) {
		t.Errorf("hang cell failure = %+v, want sweep.ErrCellTimeout", f)
	}
	var be *des.BudgetExceeded
	if f := byCell[3]; !errors.As(f.Err, &be) || !strings.Contains(f.Error, "event budget exceeded") {
		t.Errorf("budget cell failure = %+v, want a *des.BudgetExceeded", f)
	}
	if tb := res.Tables[0]; len(tb.Cells) != len(tb.Columns) {
		t.Errorf("table has %d cells, want the 1 surviving cell's row of %d", len(tb.Cells), len(tb.Columns))
	}

	// The failures render explicitly through the text reporter.
	reporter, _ := scenario.NewReporter("text")
	var buf bytes.Buffer
	if err := reporter.Report(&buf, []*scenario.Result{res}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"FAILED cells — saboteur (3 of the sweep's cells did not complete)",
		"saboteur/cells[1]: panic: saboteur: deliberate panic",
		"cell deadline exceeded",
		"event budget exceeded",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, buf.String())
		}
	}
}

// A registered scenario run with an absurdly small event budget must
// report every cell as a structured budget failure — and still return a
// renderable (empty-table) result rather than aborting.
func TestRegisteredScenarioBudgetBlowout(t *testing.T) {
	s, ok := scenario.Lookup("fig5")
	if !ok {
		t.Fatal("fig5 not registered")
	}
	res, err := s.Run(bg, scenario.Params{Transfers: 5, MaxEvents: 10})
	if err != nil {
		t.Fatalf("budget-starved fig5 aborted instead of reporting failures: %v", err)
	}
	wantCells := len(Pattern2Backends) * len(Fig5Sizes)
	if len(res.Failures) != wantCells {
		t.Fatalf("%d failures, want all %d cells", len(res.Failures), wantCells)
	}
	for _, f := range res.Failures {
		if !strings.Contains(f.Error, "event budget exceeded") {
			t.Fatalf("cell %d failed with %q, want a budget diagnosis", f.Cell, f.Error)
		}
	}
	if rows := len(res.Tables[0].Cells); rows != 0 {
		t.Fatalf("table has %d rows from budget-starved cells", rows)
	}
}

// The Checked harness variants surface the budget trip as a structured
// des.BudgetExceeded for every simulated harness family.
func TestCheckedHarnessesSurfaceBudget(t *testing.T) {
	cases := map[string]func() error{
		"pattern1": func() error {
			_, err := RunPattern1Checked(Pattern1Config{TrainIters: 50, MaxEvents: 20})
			return err
		},
		"fig5": func() error {
			_, err := RunFig5Checked(Fig5Config{Transfers: 50, MaxEvents: 3})
			return err
		},
		"fig6": func() error {
			_, err := RunFig6Checked(Fig6Config{TrainIters: 50, MaxEvents: 20})
			return err
		},
		"scale-out": func() error {
			_, err := RunScaleOutChecked(ScaleOutConfig{TrainIters: 50, MaxEvents: 20})
			return err
		},
		"resilience": func() error {
			_, err := RunResilienceChecked(ResilienceConfig{TrainIters: 50, MaxEvents: 20})
			return err
		},
	}
	for name, run := range cases {
		err := run()
		var be *des.BudgetExceeded
		if !errors.As(err, &be) {
			t.Errorf("%s: error = %v, want des.BudgetExceeded", name, err)
		}
	}
}

// TestBudgetBoundsAllocation: a shared co-located cell keeps every
// write's latency, and a requested horizon of 10^10 training iterations
// is not work done. Under a 1000-event budget the cell must allocate for
// the writes it can complete and trip the budget — directly, and as a
// scale-out request to the server, which answers 200 with every cell a
// budget_exceeded failure and stays up.
func TestBudgetBoundsAllocation(t *testing.T) {
	const iters, budget = 10_000_000_000, 1000
	for name, run := range map[string]func() error{
		"scale-out": func() error {
			_, err := RunScaleOutChecked(ScaleOutConfig{Tenants: 16, Backend: datastore.Redis, TrainIters: iters, MaxEvents: budget})
			return err
		},
		"resilience": func() error {
			_, err := RunResilienceChecked(ResilienceConfig{Tenants: 16, Backend: datastore.Redis, TrainIters: iters, MaxEvents: budget})
			return err
		},
	} {
		var be *des.BudgetExceeded
		if err := run(); !errors.As(err, &be) {
			t.Errorf("%s: error = %v, want des.BudgetExceeded", name, err)
		}
	}

	srv := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(bg)
	})
	c := &serve.Client{BaseURL: ts.URL}
	resp, _, err := c.Run(bg, serve.RunRequest{Scenario: "scale-out", Params: scenario.Params{SweepIters: iters, MaxEvents: budget}})
	if err != nil {
		t.Fatalf("scale-out with sweep_iters %d: %v, want 200", iters, err)
	}
	if len(resp.FailureKinds) == 0 {
		t.Fatal("no failed cells, want every cell over its budget")
	}
	for i, k := range resp.FailureKinds {
		if k != serve.KindBudgetExceeded {
			t.Errorf("cell %d: kind %q (%s), want %q", i, k, resp.Result.Failures[i].Error, serve.KindBudgetExceeded)
		}
	}
	if h, err := http.Get(ts.URL + "/healthz"); err != nil || h.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the request: %v, %v", h, err)
	} else {
		h.Body.Close()
	}
}

// TestFig5BudgetTrips holds Fig 5's event budget to the event chain it
// replaces: a file-system pair makes 6 timed phases per transfer (two
// metadata rounds of RPC and MDS service, the OST hold, the NIC hold),
// so 5 transfers execute 31 events with the start. Every row was
// recorded from the des.Env run of the chain; Now is compared with ==.
func TestFig5BudgetTrips(t *testing.T) {
	for _, c := range []struct {
		maxEvents int64
		events    int64 // 0: the run completes
		now       float64
	}{
		{1, 1, 0},
		{2, 2, 0.002},
		{7, 7, 0.0256},
		{30, 30, 0.11520000000000002},
		{31, 0, 0},
		{0, 0, 0},
	} {
		_, err := RunFig5Checked(Fig5Config{Backend: datastore.FileSystem, SizeMB: 8, Transfers: 5, MaxEvents: c.maxEvents})
		var be *des.BudgetExceeded
		switch {
		case c.events == 0 && err != nil:
			t.Errorf("MaxEvents %d: %v, want a completed run", c.maxEvents, err)
		case c.events == 0:
		case !errors.As(err, &be):
			t.Errorf("MaxEvents %d: error = %v, want des.BudgetExceeded", c.maxEvents, err)
		case be.Events != c.events || be.Now != c.now || be.Guard.MaxEvents != c.maxEvents:
			t.Errorf("MaxEvents %d: tripped at (%d events, t=%v, limit %d), want (%d, t=%v)",
				c.maxEvents, be.Events, be.Now, be.Guard.MaxEvents, c.events, c.now)
		}
	}
}

// The zero-cost contract, end to end: enabling every guardrail with
// generous limits must leave scenario output byte-identical to a run
// with no guardrails at all.
func TestGuardrailsZeroCostOnHealthyRuns(t *testing.T) {
	generous := scenario.Params{TimeoutS: 600, MaxEvents: 1 << 40}
	cases := []struct {
		name string
		p    scenario.Params
	}{
		{"fig3", scenario.Params{SweepIters: 60}},
		{"fig5", scenario.Params{Transfers: 5}},
		{"scale-out", scenario.Params{SweepIters: 60, Tenants: 2}},
	}
	for _, tc := range cases {
		plain := renderText(t, tc.name, tc.p)
		guarded := tc.p
		guarded.TimeoutS, guarded.MaxEvents = generous.TimeoutS, generous.MaxEvents
		withRails := renderText(t, tc.name, guarded)
		if !bytes.Equal(plain, withRails) {
			t.Errorf("%s: output differs with guardrails enabled\n--- plain ---\n%s\n--- guarded ---\n%s",
				tc.name, plain, withRails)
		}
	}
}

// cellKinds are the failing cells the t-cell-kinds scenario runs: set
// by each TestCellFailureKindsThroughServe run before it posts, read by
// the scenario, which the registry holds once per process.
var (
	cellKinds         []cellKind
	cellKindsRegister sync.Once
)

type cellKind struct {
	kind string
	run  func() (Pattern1Point, error)
}

// TestCellFailureKindsThroughServe: a failed cell of a guarded sweep
// reaches the serve layer's failure_kinds by its type, never by its
// text. One cell per guardrail and one run too short to measure go
// through guardedGrid and POST /v1/run; the decoy cell's message carries
// every phrase the old text classifier keyed on and must still be
// "internal". Repeatable with -count=N: the scenario is registered once
// and reads this run's cells.
func TestCellFailureKindsThroughServe(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	cells := []cellKind{
		{serve.KindBudgetExceeded, func() (Pattern1Point, error) {
			return RunPattern1Checked(Pattern1Config{Nodes: 8, SizeMB: 2, TrainIters: 50, MaxEvents: 50})
		}},
		{serve.KindPanic, func() (Pattern1Point, error) { panic("saboteur: deliberate") }},
		{serve.KindTimeout, func() (Pattern1Point, error) {
			<-release // ignores its deadline: abandoned with sweep.ErrCellTimeout
			return Pattern1Point{}, nil
		}},
		{serve.KindBadRequest, func() (Pattern1Point, error) {
			_, err := RunScaleOutChecked(ScaleOutConfig{TrainIters: 1})
			return Pattern1Point{}, err
		}},
		{serve.KindInternal, func() (Pattern1Point, error) {
			return Pattern1Point{}, errors.New("panic: event budget exceeded, deadline exceeded")
		}},
	}
	cellKinds = cells
	cellKindsRegister.Do(func() {
		scenario.Register(scenario.New("t-cell-kinds", "test-only: one failing cell per failure kind",
			scenario.Params{}, guardKnobs,
			func(ctx context.Context, p scenario.Params) (*scenario.Result, error) {
				cells := cellKinds
				idx := make([]int, len(cells))
				for i := range idx {
					idx[i] = i
				}
				_, fails, err := guardedGrid(ctx, p, "t-cell-kinds/cells", idx, []int{0},
					func(i, _ int) (Pattern1Point, error) { return cells[i].run() })
				if err != nil {
					return nil, err
				}
				return &scenario.Result{Scenario: "t-cell-kinds", Params: p, Failures: fails}, nil
			}))
	})

	srv := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(bg)
	})
	c := &serve.Client{BaseURL: ts.URL}
	resp, _, err := c.Run(bg, serve.RunRequest{Scenario: "t-cell-kinds", Params: scenario.Params{TimeoutS: 0.2}})
	if err != nil {
		t.Fatalf("the run failed as a whole instead of reporting per-cell failures: %v", err)
	}
	if len(resp.Result.Failures) != len(cells) || len(resp.FailureKinds) != len(cells) {
		t.Fatalf("%d failures, %d kinds, want %d of each: %+v", len(resp.Result.Failures), len(resp.FailureKinds), len(cells), resp)
	}
	for i, f := range resp.Result.Failures {
		if got, want := resp.FailureKinds[i], cells[f.Cell].kind; got != want {
			t.Errorf("cell %d (%s): kind %q, want %q", f.Cell, f.Error, got, want)
		}
	}
}

// TestServeColdMissAllocations: one cold POST /v1/run of the serve-cold
// key stream, in process (the request BenchmarkServeColdMiss makes):
// Fig 5 at a fresh Transfers, run on the worker that dequeued it under
// one deadline, encoded and stored in a full cache with an eviction. It
// measures 72 mallocs with the collector held off, 77–78 under the race
// detector (which makes sync.Pool drop items at random); the ceiling
// clears both, and a per-request layer of sweeps, goroutines or timers
// back on the miss path (117 mallocs before) breaks it.
func TestServeColdMissAllocations(t *testing.T) {
	const cacheSize, runs, ceiling = 64, 100, 80
	bodies := make([][]byte, cacheSize+runs+1)
	for i := range bodies {
		body, err := json.Marshal(serve.RunRequest{Scenario: "fig5", Params: scenario.Params{Transfers: 20 + i}})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	srv := serve.New(serve.Config{CacheSize: cacheSize})
	t.Cleanup(func() { srv.Shutdown(bg) })
	h := srv.Handler()
	next := 0
	post := func() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/run", bytes.NewReader(bodies[next])))
		if got := rr.Header().Get("X-Cache"); got != "miss" {
			t.Fatalf("request %d: X-Cache %q (status %d), want miss", next, got, rr.Code)
		}
		next++
	}
	for range cacheSize { // fill the cache so every counted request evicts
		post()
	}
	if a := allocsWithoutGC(runs, post); a > ceiling {
		t.Errorf("one cold miss: %v mallocs, ceiling %d", a, ceiling)
	}
}
