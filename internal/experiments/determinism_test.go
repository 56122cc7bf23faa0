package experiments

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"simaibench/internal/clock"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/scenario"
	"simaibench/internal/sweep"
)

// The flat-callback harnesses (flat.go) must be semantically identical
// to the workflows they state as state machines: same metrics, bit for
// bit. These tests compare every reported field exactly, across the full
// backend grid, with the naive simulator of oracle_test.go running the
// same workflows as straight-line blocking processes on its own event
// list, resources and cost arithmetic. A divergence anywhere — engine,
// cost model, or rank state machine — fails here.

func TestPattern1MatchesProcessReference(t *testing.T) {
	for _, b := range datastore.Backends() {
		for _, size := range []float64{0.4, 8, 32} {
			cfg := Pattern1Config{Nodes: 4, Backend: b, SizeMB: size, TrainIters: 120}
			got := checked(t, RunPattern1Checked, cfg)
			want := oraclePattern1(cfg)
			if got != want {
				t.Errorf("%v %gMB: flat %+v != reference %+v", b, size, got, want)
			}
		}
	}
	// Off the paper's periods, where the polls nextPoll skips fall
	// differently among the writes.
	for _, periods := range [][2]int{{100, 3}, {50, 10}, {25, 7}, {10, 10}, {7, 3}, {3, 7}} {
		for _, b := range []datastore.Backend{datastore.Redis, datastore.FileSystem} {
			cfg := Pattern1Config{Nodes: 4, Backend: b, SizeMB: 8, TrainIters: 120,
				WritePeriod: periods[0], ReadPeriod: periods[1]}
			if got, want := checked(t, RunPattern1Checked, cfg), oraclePattern1(cfg); got != want {
				t.Errorf("%v, periods %v: flat %+v != reference %+v", b, periods, got, want)
			}
		}
	}
}

// TestNextPollMatchesPollChain: stagingRank.nextPoll must name the exact
// time at which the chain of per-poll events it stands for — wake, find
// nothing, After(period), wake again — would first transfer or stop, bit
// for bit. The chain below is that poll-every-period loop on a real Env.
// With a zero freshness gap (a solver rank) the chain is one After(period)
// long: sleep a period, write.
func TestNextPollMatchesPollChain(t *testing.T) {
	chain := func(r *stagingRank, now float64) (at float64, polls int) {
		env := des.NewEnv()
		at = -1.0
		var wake func()
		wake = func() {
			polls++
			if t := env.Now(); t-r.lastXfer < r.fresh && t < r.horizon {
				env.After(r.period, wake)
			} else {
				at = t
			}
		}
		env.At(now, func() { env.After(r.period, wake) })
		env.Run()
		return at, polls
	}
	check := func(r stagingRank, now float64) {
		t.Helper()
		want, polls := chain(&r, now)
		if got := r.nextPoll(now); got != want {
			t.Errorf("period=%v fresh=%v lastXfer=%v horizon=%v now=%v: nextPoll %v, the poll chain stops at %v",
				r.period, r.fresh, r.lastXfer, r.horizon, now, got, want)
		}
		if polls > 1 && r.fresh < r.period && r.lastXfer <= now {
			t.Errorf("%+v now=%v: %d polls although the freshness gap is shorter than a period", r, now, polls)
		}
	}

	// Pattern 1's periods: a read just done, the horizon far, between the
	// second and third idle poll, exactly on a poll, and already behind.
	p1 := stagingRank{period: 10 * 0.0633, fresh: 100 * 0.0325, lastXfer: 7.25}
	for _, horizon := range []float64{1e9, 7.3 + 2.5*p1.period, 7.3 + p1.period + p1.period, 7.3, 1} {
		p1.horizon = horizon
		check(p1, 7.3)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		r := stagingRank{period: 0.01 + 5*rng.Float64(), fresh: 0.01 + 20*rng.Float64()}
		switch i % 4 {
		case 0:
			r.fresh = r.period * rng.Float64() // never skips
		case 1:
			r.fresh = 0 // a solver rank
		}
		now := 100 * rng.Float64()
		r.lastXfer = now - 2*r.fresh*rng.Float64()
		r.horizon = now - 5 + 35*rng.Float64() // behind now one time in seven
		check(r, now)
		if r.fresh == 0 && r.nextPoll(now) != now+r.period {
			t.Errorf("period=%v now=%v: a zero freshness gap must be the plain After(period), got %v",
				r.period, now, r.nextPoll(now))
		}
	}
}

func TestPattern1MatchesReferenceAtScaleFS(t *testing.T) {
	// The file-system backend at scale is the contention-heavy case:
	// every rank funnels through one MDS queue, so any event-order
	// divergence shows up here first.
	if testing.Short() {
		t.Skip("contention case is slow in -short mode")
	}
	cfg := Pattern1Config{Nodes: 64, Backend: datastore.FileSystem, SizeMB: 8, TrainIters: 60}
	got := checked(t, RunPattern1Checked, cfg)
	want := oraclePattern1(cfg)
	if got != want {
		t.Errorf("fs@64: flat %+v != reference %+v", got, want)
	}
}

func TestFig5MatchesProcessReference(t *testing.T) {
	for _, b := range Pattern2Backends {
		for _, size := range []float64{1, 10, 128} {
			cfg := Fig5Config{Backend: b, SizeMB: size, Transfers: 25}
			got := checked(t, RunFig5Checked, cfg)
			want := oracleFig5(cfg)
			if got != want {
				t.Errorf("%v %gMB: flat %+v != reference %+v", b, size, got, want)
			}
		}
	}
}

func TestFig6MatchesProcessReference(t *testing.T) {
	for _, b := range Pattern2Backends {
		for _, size := range []float64{1, 10} {
			cfg := Fig6Config{Nodes: 16, Backend: b, SizeMB: size, TrainIters: 100}
			got := checked(t, RunFig6Checked, cfg)
			want := oracleFig6(cfg)
			if got != want {
				t.Errorf("%v %gMB: flat %+v != reference %+v", b, size, got, want)
			}
		}
	}
}

// TestFig6StopsWithTrainer: a Fig 6 cell simulates its trainer and
// nothing else, so it ends when the trainer's last period does —
// everything the point reports is final then — and only then: a cell
// whose trainer cannot finish inside the horizon cap still runs to the
// cap. oracleFig6 still runs the ensemble's writers to the cap; equal
// points are what show that leaving them out changes nothing.
func TestFig6StopsWithTrainer(t *testing.T) {
	// This cell's trainer executes 11 311 events and ends at t = 20.2 s
	// of the 189.9 s cap. With the writers the cell executed 67 417
	// events to that instant and 540 969 to the cap. The event budget is
	// the pin: the trainer's events fit it, and no writer's would.
	cfg := Fig6Config{Nodes: 128, Backend: datastore.FileSystem, SizeMB: 0.4, TrainIters: 300}
	want, err := RunFig6Checked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxEvents = 11_311
	got, err := RunFig6Checked(cfg)
	if err != nil {
		t.Fatalf("the run simulated more than its trainer: %v", err)
	}
	if got != want {
		t.Errorf("budgeted %+v != unbudgeted %+v", got, want)
	}
	if ref := oracleFig6(cfg); got != ref {
		t.Errorf("trainer-only run %+v != reference run with writers to the horizon %+v", got, ref)
	}

	// 128-node Redis completes 11 and 2 of its 30 periods inside the cap:
	// the partial-period point must be the one the full-horizon reference
	// reports.
	for _, size := range []float64{32, 128} {
		cfg := Fig6Config{Nodes: 128, Backend: datastore.Redis, SizeMB: size, TrainIters: 300}
		got, want := checked(t, RunFig6Checked, cfg), oracleFig6(cfg)
		if got != want {
			t.Errorf("redis %g MB: flat %+v != reference %+v", size, got, want)
		}
		// A trainer that finishes inside the cap reports at most
		// cap / TrainIters = 10 x TrainIterS per iteration.
		if capPerIter := 10 * cfg.withDefaults().TrainIterS; got.ExecPerIterS <= capPerIter {
			t.Errorf("redis %g MB: exec/iter %g <= %g, the cell is no longer truncated by the cap",
				size, got.ExecPerIterS, capPerIter)
		}
	}

	// No period at all: there is nothing to measure, and a zero point
	// would read as data.
	none := Fig6Config{Nodes: 8, Backend: datastore.Dragon, SizeMB: 1, TrainIters: 5, MaxEvents: 10_000}
	if pt, err := RunFig6Checked(none); err == nil ||
		!strings.Contains(err.Error(), "TrainIters = 5") || !strings.Contains(err.Error(), "ReadPeriod = 10") {
		t.Errorf("no periods: got %+v, %v; want an error naming TrainIters and ReadPeriod", pt, err)
	}
}

// TestScaleOutMatchesReference holds the shared deployment to the oracle
// at the shipped period pairs (scale-out's 10/10, Pattern 1's 100/10) and
// at 7/3, on every backend, bit for bit — with one named exception, the
// one observed case of stagingRank.nextPoll's tie-order caveat. The
// harness queues a trainer's next effective wake-up when its read
// completes; the oracle's trainer polls every period, so it queues the
// same wake-up one poll before it fires. An event of a rank on another
// clock that is queued in between for the bit-identical instant loses
// the tie in one run and wins it in the other, and at 7/3 on shared Redis
// that happens: from there on the two runs grant the service slots in a
// different order. Both are FIFO schedules of the same workload — the
// same transfers complete by the same time, at means that differ in the
// fourth digit.
func TestScaleOutMatchesReference(t *testing.T) {
	for _, periods := range [][2]int{{10, 10}, {100, 10}, {7, 3}} {
		for _, b := range datastore.Backends() {
			cfg := ScaleOutConfig{Tenants: 4, Backend: b, TrainIters: 150, WritePeriod: periods[0], ReadPeriod: periods[1]}
			got, want := checked(t, RunScaleOutChecked, cfg), oracleScaleOut(cfg)
			if periods != [2]int{7, 3} || b != datastore.Redis {
				if got != want {
					t.Errorf("%v, periods %v: flat %+v != reference %+v", b, periods, got, want)
				}
				continue
			}
			if got == want {
				t.Errorf("redis, periods 7/3: the harness now agrees with the poll-every-period reference bit for bit; " +
					"nextPoll's tie-order caveat (flat.go, ARCHITECTURE.md) has lost its one observed case — restate it")
			}
			if got.Writes != want.Writes || got.AggGBps != want.AggGBps {
				t.Errorf("redis, periods 7/3: nextPoll's tie-order caveat may reorder grants, not change what completes: "+
					"flat %d writes at %v GB/s, reference %d at %v", got.Writes, got.AggGBps, want.Writes, want.AggGBps)
			}
			for _, f := range [][2]float64{{got.WriteGBps, want.WriteGBps}, {got.ReadGBps, want.ReadGBps},
				{got.StageMeanS, want.StageMeanS}, {got.StageP50S, want.StageP50S}, {got.SharedWaitS, want.SharedWaitS}} {
				if rel := math.Abs(f[0]-f[1]) / f[1]; rel >= 0.005 {
					t.Errorf("redis, periods 7/3: flat %+v and reference %+v differ by %.2f %% in one field, "+
						"more than the tie order of nextPoll's caveat accounts for", got, want, 100*rel)
				}
			}
		}
	}
}

// TestSweepParallelismInvariant: the parallel sweep runner must produce
// results identical to serial execution, in the same order, at any
// worker count.
func TestSweepParallelismInvariant(t *testing.T) {
	prev := sweep.Workers
	defer func() { sweep.Workers = prev }()

	fig3 := func() []Pattern1Point {
		points, fails, err := pattern1Grid(bg, scenario.Params{SweepIters: 80}, "fig3", datastore.Backends(), 4)
		gridOK(t, fails, err)
		return points
	}
	sweep.Workers = 1
	serial := fig3()
	for _, workers := range []int{2, 8} {
		sweep.Workers = workers
		got := fig3()
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Errorf("workers=%d point %d: %+v != serial %+v", workers, i, got[i], serial[i])
			}
		}
	}
}

// --- Virtual-clock determinism (the PR 4 tentpole property) ---
//
// Under clock.Virtual, the real-mode artifacts must be bit-deterministic
// per seed: two runs of the same configuration render byte-identical
// tables, because every pad is a virtual-deadline handoff instead of a
// wall-clock race.

// renderScenarioText runs a registered scenario and renders it through
// the text reporter (the cmd/experiments path).
func renderScenarioText(t *testing.T, name string, p scenario.Params) []byte {
	t.Helper()
	s, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	res, err := s.Run(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	return renderResult(t, "text", res)
}

// renderResult renders one result through the named reporter.
func renderResult(t *testing.T, format string, res *scenario.Result) []byte {
	t.Helper()
	reporter, err := scenario.NewReporter(format)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reporter.Report(&buf, []*scenario.Result{res}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestVirtualValidationTablesDeterministic(t *testing.T) {
	p := scenario.Params{TrainIters: 150, TimeScale: 0.01, Clock: clock.KindVirtual}
	for _, name := range []string{"table2", "table3"} {
		a := renderScenarioText(t, name, p)
		b := renderScenarioText(t, name, p)
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs across two virtual runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", name, a, b)
		}
	}
}

func TestVirtualStreamingTablesDeterministic(t *testing.T) {
	p := scenario.Params{Clock: clock.KindVirtual}
	a := renderScenarioText(t, "streaming", p)
	b := renderScenarioText(t, "streaming", p)
	if !bytes.Equal(a, b) {
		t.Errorf("streaming differs across two virtual runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

func TestVirtualFig2Deterministic(t *testing.T) {
	p := scenario.Params{TrainIters: 120, TimeScale: 0.01, TimelineWindowS: 10, Clock: clock.KindVirtual}
	a := renderScenarioText(t, "fig2", p)
	b := renderScenarioText(t, "fig2", p)
	if !bytes.Equal(a, b) {
		t.Error("fig2 timelines differ across two virtual runs")
	}
}

// TestWallVirtualMakespanConsistency: the virtual clock must reproduce
// the wall-clock emulation's structure, not just run fast. Under load
// the wall clock lets the two components drift against each other: an
// iteration whose real compute outruns its pad runs long, so the solver
// reaches a different step by the time the trainer stages control/stop,
// and its step count is the first multiple of stopPollSteps after it
// sees the key. So the test asserts only what holds under any load: on
// both clocks the trainer runs TrainIters iterations, the solver stops
// at a stop poll, and each side's transport events follow from its
// steps; and since a wall iteration is padded to at least the duration
// the virtual one takes exactly, the wall run ends no earlier than the
// virtual trainer does.
func TestWallVirtualMakespanConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("a real-time wall-clock run")
	}
	cfg := ValidationConfig{
		Mode: MiniApp, TrainIters: 60, WritePeriod: 25, ReadPeriod: 5,
		PayloadBytes: 20_000, TimeScale: 0.05, Backend: datastore.NodeLocal,
		SimInitS: 0.2, TrainInitS: 0.4,
	}
	runs := map[string]*ValidationResult{}
	for _, clk := range []string{clock.KindVirtual, clock.KindWall} {
		cfg.Clock = clk
		r, err := RunValidation(bg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs[clk] = r
		if r.Train.Timesteps != cfg.TrainIters {
			t.Errorf("%s: %d train steps, want %d", clk, r.Train.Timesteps, cfg.TrainIters)
		}
		if s := r.Sim.Timesteps; s < stopPollSteps || s%stopPollSteps != 0 {
			t.Errorf("%s: solver stopped at step %d, not at a poll of %s", clk, s, keyStop)
		}
		// A snapshot is two arrays: the solver stages both every write
		// period, the trainer reads both of each fresh one, at most one
		// per read period.
		if got, want := r.Sim.TransportEvents, 2*(r.Sim.Timesteps/cfg.WritePeriod); got != want {
			t.Errorf("%s: %d solver transport events in %d steps, want %d", clk, got, r.Sim.Timesteps, want)
		}
		if e := r.Train.TransportEvents; e%2 != 0 || e > 2*(cfg.TrainIters/cfg.ReadPeriod) {
			t.Errorf("%s: %d trainer transport events, want an even count of at most %d",
				clk, e, 2*(cfg.TrainIters/cfg.ReadPeriod))
		}
	}
	var trainEnd float64 // the virtual trainer's last instant, emulated s
	for _, sp := range runs[clock.KindVirtual].Timeline.Spans() {
		if sp.Lane == "Training" {
			trainEnd = max(trainEnd, sp.End)
		}
	}
	// Each padded sleep is a whole number of nanoseconds, so a wall
	// iteration may fall short of its virtual twin by rounding alone.
	slack := 2e-9 * float64(cfg.TrainIters+1) / cfg.TimeScale
	if wall := runs[clock.KindWall].MakespanS; trainEnd == 0 || wall < trainEnd-slack {
		t.Errorf("wall makespan %.6f s < virtual trainer end %.6f s (emulated)", wall, trainEnd)
	}
}
