package experiments

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/scenario"
	"simaibench/internal/trace"
)

// TestValidationCacheScopedToContext: validation measurements are
// shared only within one WithValidationCache context — the CLI's "run
// validation once for table2+table3+fig2" behavior — and re-measured
// for independent contexts, so library callers collecting run-to-run
// variance never see silently recycled results.
func TestValidationCacheScopedToContext(t *testing.T) {
	p := scenario.Params{TrainIters: 40, TimeScale: 0.01}

	ctx := WithValidationCache(bg)
	o1, m1, err := validationPair(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	o2, m2, err := validationPair(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if o1 != o2 || m1 != m2 {
		t.Fatal("same cache context should reuse the measured results")
	}

	o3, _, err := validationPair(WithValidationCache(bg), p)
	if err != nil {
		t.Fatal(err)
	}
	if o3 == o1 {
		t.Fatal("fresh cache context should re-measure, not reuse")
	}

	// No cache on the context at all: every call measures.
	o4, _, err := validationPair(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if o4 == o1 {
		t.Fatal("cache-less context should never reuse results")
	}
}

// sortedSpans returns a run's timeline in one total order, so two
// timelines compare as multisets of spans.
func sortedSpans(r *ValidationResult) []trace.Span {
	spans := r.Timeline.Spans()
	slices.SortFunc(spans, func(a, b trace.Span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Lane, b.Lane),
			cmp.Compare(a.End, b.End), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Label, b.Label))
	})
	return spans
}

// TestValidationPairConcurrentEqualsSequential: on the virtual clock the
// pair runs its two workflows side by side, and each result is what a
// direct RunValidation call on its own returns — counts, iteration
// statistics, makespan and every timeline span.
func TestValidationPairConcurrentEqualsSequential(t *testing.T) {
	p := scenario.Params{TrainIters: 120, TimeScale: 0.01, Clock: clock.KindVirtual}
	same := func(rep int, got, want *ValidationResult) {
		t.Helper()
		if got.Mode != want.Mode || got.Sim != want.Sim || got.Train != want.Train || got.MakespanS != want.MakespanS {
			t.Fatalf("repeat %d, %s: pair measured %+v, a run alone %+v", rep, want.Mode, *got, *want)
		}
		if !slices.Equal(sortedSpans(got), sortedSpans(want)) {
			t.Fatalf("repeat %d, %s: timelines differ", rep, want.Mode)
		}
	}
	for rep := 0; rep < 3; rep++ {
		orig, mini, err := validationPair(WithValidationCache(bg), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*ValidationResult{orig, mini} {
			want, err := RunValidation(bg, ValidationConfig{
				Mode: got.Mode, TrainIters: p.TrainIters, TimeScale: p.TimeScale, Clock: p.Clock})
			if err != nil {
				t.Fatal(err)
			}
			same(rep, got, want)
		}
		if orig.Mode != Original || mini.Mode != MiniApp {
			t.Fatalf("pair returned modes (%v, %v)", orig.Mode, mini.Mode)
		}
	}
}

// overlap counts how many runs of a stand-in runner are in flight at
// once and, when both is set, holds each run until a second one has
// started (or the wait times out).
type overlap struct {
	mu       sync.Mutex
	inFlight int
	peak     int
	both     chan struct{}
}

// rendezvous is an overlap that holds runs until two are in flight.
func rendezvous() overlap { return overlap{both: make(chan struct{})} }

// during brackets one run; seen is called as it starts, under the lock.
func (o *overlap) during(seen func()) {
	o.mu.Lock()
	o.inFlight++
	o.peak = max(o.peak, o.inFlight)
	seen()
	if o.inFlight == 2 && o.both != nil {
		select {
		case <-o.both:
		default:
			close(o.both)
		}
	}
	o.mu.Unlock()
	if o.both != nil {
		select {
		case <-o.both:
		case <-time.After(5 * time.Second):
		}
	}
	o.mu.Lock()
	o.inFlight--
	o.mu.Unlock()
}

// overlapRunner is a validationRunner over an overlap that records the
// order the modes started in and fails the modes it is told to.
type overlapRunner struct {
	overlap
	order []ValidationMode
	fail  map[ValidationMode]error
}

func (o *overlapRunner) run(_ context.Context, cfg ValidationConfig) (*ValidationResult, error) {
	o.during(func() { o.order = append(o.order, cfg.Mode) })
	if err := o.fail[cfg.Mode]; err != nil {
		return nil, err
	}
	return &ValidationResult{Mode: cfg.Mode}, nil
}

// TestValidationPairOverlapsOnlyOnVirtualClock: the choice between side
// by side and one after the other follows the clock kind and nothing
// else.
func TestValidationPairOverlapsOnlyOnVirtualClock(t *testing.T) {
	for _, kind := range []string{"", clock.KindVirtual} {
		o := &overlapRunner{overlap: rendezvous()}
		if _, _, err := validationPairVia(bg, scenario.Params{Clock: kind}, o.run); err != nil {
			t.Fatal(err)
		}
		if o.peak != 2 {
			t.Fatalf("clock %q: peak of %d runs in flight, want both at once", kind, o.peak)
		}
	}
	o := &overlapRunner{}
	if _, _, err := validationPairVia(bg, scenario.Params{Clock: clock.KindWall}, o.run); err != nil {
		t.Fatal(err)
	}
	if o.peak != 1 || !slices.Equal(o.order, []ValidationMode{Original, MiniApp}) {
		t.Fatalf("wall clock: peak %d, order %v; want Original then Mini-app, one at a time", o.peak, o.order)
	}
}

// TestValidationPairReturnsOriginalsError: when both runs fail the error
// text does not depend on which goroutine lost the race.
func TestValidationPairReturnsOriginalsError(t *testing.T) {
	origErr, miniErr := errors.New("original failed"), errors.New("mini-app failed")
	for rep := 0; rep < 20; rep++ {
		o := &overlapRunner{fail: map[ValidationMode]error{Original: origErr, MiniApp: miniErr}}
		if _, _, err := validationPairVia(WithValidationCache(bg), scenario.Params{}, o.run); err != origErr {
			t.Fatalf("both failed: got %v, want the Original's error", err)
		}
	}
	o := &overlapRunner{fail: map[ValidationMode]error{MiniApp: miniErr}}
	if _, _, err := validationPairVia(bg, scenario.Params{}, o.run); err != miniErr {
		t.Fatalf("Mini-app failed alone: got %v", err)
	}
}

// TestValidationPairReraisesPanic: a panic in the run that has its own
// goroutine surfaces on the caller's, where a guard can recover it.
func TestValidationPairReraisesPanic(t *testing.T) {
	run := func(_ context.Context, cfg ValidationConfig) (*ValidationResult, error) {
		if cfg.Mode == MiniApp {
			panic("mini-app blew up")
		}
		return &ValidationResult{Mode: cfg.Mode}, nil
	}
	defer func() {
		if p := recover(); p != "mini-app blew up" {
			t.Fatalf("recovered %v on the caller's goroutine, want the run's panic", p)
		}
	}()
	validationPairVia(bg, scenario.Params{}, run)
	t.Fatal("the panic was swallowed")
}

// TestValidationCacheMeasuresEachConfigOnce: callers asking for one
// configuration at the same time under one cache context share a single
// measurement, and a failed measurement is not kept.
func TestValidationCacheMeasuresEachConfigOnce(t *testing.T) {
	ctx := WithValidationCache(bg)
	p := scenario.Params{TrainIters: 7}
	o := &overlapRunner{overlap: rendezvous()}
	const callers = 8
	origs, minis := make([]*ValidationResult, callers), make([]*ValidationResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if origs[i], minis[i], err = validationPairVia(ctx, p, o.run); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(o.order) != 2 {
		t.Fatalf("%d callers of one pair started %d runs, want 2", callers, len(o.order))
	}
	for i := range origs {
		if origs[i] != origs[0] || minis[i] != minis[0] || origs[i] == nil || minis[i] == nil {
			t.Fatalf("caller %d got its own results", i)
		}
	}

	// A failure is handed to whoever waited on it and then forgotten.
	boom := errors.New("backend did not start")
	failing := &overlapRunner{fail: map[ValidationMode]error{Original: boom}}
	q := scenario.Params{TrainIters: 9}
	if _, _, err := validationPairVia(ctx, q, failing.run); err != boom {
		t.Fatalf("got %v, want the run's error", err)
	}
	healthy := &overlapRunner{}
	if _, _, err := validationPairVia(ctx, q, healthy.run); err != nil {
		t.Fatalf("the failure was cached: %v", err)
	}
	if !slices.Contains(healthy.order, Original) {
		t.Fatal("the failed configuration was not measured again")
	}
	if slices.Contains(healthy.order, MiniApp) {
		t.Fatal("the configuration that succeeded was measured twice")
	}
}

func TestHeadStep(t *testing.T) {
	if step, err := headStep("1200"); err != nil || step != 1200 {
		t.Fatalf("headStep(1200) = %d, %v", step, err)
	}
	for _, bad := range []string{"", "12x", "1.5", "\x00\x01"} {
		_, err := headStep(bad)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Fatalf("headStep(%q) error = %v, want one naming the value", bad, err)
		}
	}
}

// TestFig5RunAndEncodeBytes pins what a cold serving miss allocates for
// the cell work it runs: one fig5 run of the serve-cold key stream plus
// its JSON encode. It measured 10.1–10.7 KB per run, 11.6–13.0 KB
// under -race (go1.24.0, linux/amd64); the 20 KB ceiling is the -race
// figure plus half. It holds only while
// each of the 18 two-node cells adds its phases up in closed form — no
// des.Env, Model, Resource or transfer arena per cell — and the table
// encodes its rows without building a map per row.
func TestFig5RunAndEncodeBytes(t *testing.T) {
	fig5, ok := scenario.Lookup("fig5")
	if !ok {
		t.Fatal("fig5 not registered")
	}
	p := scenario.Params{Transfers: 150}
	runAndEncode := func() {
		res, err := fig5.Run(bg, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	runAndEncode() // warm: the registry, sync.Pools, encoding/json's type cache
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		runAndEncode()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / rounds; perRun > 20<<10 {
		t.Errorf("fig5 at Transfers 150 plus its encode allocates %d B per run, ceiling 20 KB", perRun)
	}
}
