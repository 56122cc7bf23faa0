package simulation

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/config"
	"simaibench/internal/datastore"
	"simaibench/internal/trace"
)

func fastConfig(t *testing.T, runTime float64) config.SimulationConfig {
	t.Helper()
	js := `{"kernels":[{"name":"iter","mini_app_kernel":"AXPY","run_time":` +
		jsonFloat(runTime) + `,"data_size":[1024]}]}`
	c, err := config.ParseSimulation([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func jsonFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

func TestRunIterationPadsToRunTime(t *testing.T) {
	const target = 0.02
	sim, err := New("sim", fastConfig(t, target))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed < 3*target*0.9 {
		t.Fatalf("3 iterations took %v, want >= %v", elapsed, 3*target)
	}
	r := sim.Report()
	if r.Iterations != 3 {
		t.Fatalf("iterations = %d", r.Iterations)
	}
	if math.Abs(r.IterMean-target)/target > 0.5 {
		t.Fatalf("iter mean = %v, want ~%v", r.IterMean, target)
	}
}

// TestRunIterationAllocatesNothing: the validation solver's iteration —
// an AXPY padded to a lognormal run_time on the virtual clock — and a
// count-driven one allocate nothing once the kernels' buffers have grown.
func TestRunIterationAllocatesNothing(t *testing.T) {
	for name, js := range map[string]string{
		"time-driven":  `{"kernels":[{"name":"iter","mini_app_kernel":"AXPY","run_time":{"type":"lognormal","mean":0.0312,"std":0.0273},"data_size":[512],"device":"xpu"}]}`,
		"count-driven": `{"kernels":[{"name":"iter","mini_app_kernel":"MatMulSimple2D","run_count":3,"data_size":[32]}]}`,
	} {
		cfg, err := config.ParseSimulation([]byte(js))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New("sim", cfg, WithClock(clock.NewVirtual()), WithTimeScale(0.002))
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := sim.RunIteration(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: an iteration allocates %v times, want 0", name, allocs)
		}
	}
}

func TestIterationStatsLowStdForFixedRunTime(t *testing.T) {
	// Table 3: the mini-app "strictly maintains the iteration time close
	// to the provided value" — std must be tiny relative to the mean.
	sim, err := New("sim", fastConfig(t, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	r := sim.Report()
	if r.IterStd > r.IterMean*0.5 {
		t.Fatalf("fixed run_time should give low std: mean %v std %v", r.IterMean, r.IterStd)
	}
}

func TestTimeScaleShrinksWallTime(t *testing.T) {
	sim, err := New("sim", fastConfig(t, 0.5), WithTimeScale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	if time.Since(start).Seconds() > 0.5 {
		t.Fatal("time scale did not shrink wall time")
	}
	// Reported statistics stay in unscaled units.
	r := sim.Report()
	if math.Abs(r.IterMean-0.5) > 0.25 {
		t.Fatalf("unscaled iter mean = %v, want ~0.5", r.IterMean)
	}
}

func TestStochasticRunTime(t *testing.T) {
	js := `{"kernels":[{"name":"iter","mini_app_kernel":"AXPY",
		"run_time":{"type":"discrete","values":[0.001,0.003],"weights":[1,1]},
		"data_size":[256]}]}`
	c, err := config.ParseSimulation([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New("sim", c, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(30); err != nil {
		t.Fatal(err)
	}
	r := sim.Report()
	// Mean should land between the two support points.
	if r.IterMean < 0.001 || r.IterMean > 0.0045 {
		t.Fatalf("stochastic iter mean = %v", r.IterMean)
	}
	if r.IterStd < 0.0003 {
		t.Fatalf("stochastic run_time should show real variance, std = %v", r.IterStd)
	}
}

func TestRunCountDrivenKernel(t *testing.T) {
	js := `{"kernels":[{"name":"gemm","mini_app_kernel":"MatMulGeneral",
		"run_count":2,"data_size":[8,8,8]}]}`
	c, err := config.ParseSimulation([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New("sim", c)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(5); err != nil {
		t.Fatal(err)
	}
	if sim.Report().Iterations != 5 {
		t.Fatalf("iterations = %d", sim.Report().Iterations)
	}
}

func TestStagingThroughStore(t *testing.T) {
	mgr, info, err := datastore.StartBackend(datastore.NodeLocal, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	store, err := datastore.Connect(info)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	sim, err := New("sim", fastConfig(t, 0.001), WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(strings.Repeat("x", 10000))
	if err := sim.StageWrite("snap/1", payload); err != nil {
		t.Fatal(err)
	}
	got, err := sim.StageRead("snap/1")
	if err != nil || len(got) != len(payload) {
		t.Fatalf("read = %d bytes, %v", len(got), err)
	}
	ok, err := sim.Poll("snap/1")
	if err != nil || !ok {
		t.Fatalf("poll = %v,%v", ok, err)
	}
	r := sim.Report()
	if r.Writes != 1 || r.Reads != 1 {
		t.Fatalf("transport events = %d/%d, want 1/1", r.Writes, r.Reads)
	}
	if r.WriteGBps <= 0 || r.ReadGBps <= 0 {
		t.Fatalf("throughput not recorded: %v/%v", r.WriteGBps, r.ReadGBps)
	}
}

func TestStagingWithoutStoreFails(t *testing.T) {
	sim, err := New("sim", fastConfig(t, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.StageWrite("k", nil); err == nil {
		t.Fatal("stage write without store succeeded")
	}
	if _, err := sim.StageRead("k"); err == nil {
		t.Fatal("stage read without store succeeded")
	}
}

func TestReadMissingKeySurfacesNotStaged(t *testing.T) {
	mgr, info, err := datastore.StartBackend(datastore.NodeLocal, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	store, _ := datastore.Connect(info)
	defer store.Close()
	sim, _ := New("sim", fastConfig(t, 0.001), WithStore(store))
	if _, err := sim.StageRead("ghost"); !errors.Is(err, datastore.ErrNotStaged) {
		t.Fatalf("err = %v, want ErrNotStaged", err)
	}
	// Failed reads must not count as transport events.
	if sim.Report().Reads != 0 {
		t.Fatal("failed read counted as event")
	}
}

func TestTimelineSpans(t *testing.T) {
	tl := trace.New()
	mgr, info, err := datastore.StartBackend(datastore.NodeLocal, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	store, _ := datastore.Connect(info)
	defer store.Close()
	sim, err := New("sim", fastConfig(t, 0.002),
		WithStore(store), WithTimeline(tl, "Simulation"))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(3)
	sim.StageWrite("k", []byte("v"))
	kinds := map[trace.Kind]int{}
	for _, s := range tl.Spans() {
		if s.Lane == "Simulation" {
			kinds[s.Kind]++
		}
	}
	if kinds[trace.KindCompute] != 3 || kinds[trace.KindTransfer] != 1 {
		t.Fatalf("spans by kind = %v, want 3 compute and 1 transfer", kinds)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := New("sim", config.SimulationConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestDeterministicSeedFromName(t *testing.T) {
	// Identical names give identical seeds, hence identical sampled
	// run_time sequences. Targets sit far above scheduler noise and the
	// tolerance is half the support gap, so only genuine seed divergence
	// can fail this.
	js := `{"kernels":[{"name":"i","mini_app_kernel":"AXPY",
		"run_time":{"type":"discrete","values":[0.004,0.012],"weights":[1,1]},"data_size":[64]}]}`
	c, _ := config.ParseSimulation([]byte(js))
	run := func() float64 {
		sim, _ := New("same-name", c)
		sim.Run(12)
		return sim.Report().IterMean
	}
	a, b := run(), run()
	if math.Abs(a-b) > 0.004 {
		t.Fatalf("same-name sims diverge: %v vs %v", a, b)
	}
}
