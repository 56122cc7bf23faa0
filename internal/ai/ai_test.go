package ai

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/config"
	"simaibench/internal/datastore"
	"simaibench/internal/mpi"
	"simaibench/internal/nn"
	"simaibench/internal/trace"
)

func smallAIConfig() config.AIConfig {
	return config.AIConfig{Layers: []int{8, 16, 4}, LR: 0.01, Batch: 8}
}

// train runs n iterations of tr, returning the last loss.
func train(tr *Trainer, n int) (float64, error) {
	var loss float64
	for range n {
		var err error
		if loss, err = tr.TrainIteration(); err != nil {
			return loss, err
		}
	}
	return loss, nil
}

func TestPropertyFloat64Codec(t *testing.T) {
	f := func(xs []float64) bool {
		got := DecodeFloat64s(EncodeFloat64s(xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrainIterationRuns(t *testing.T) {
	tr, err := New("ai", smallAIConfig())
	if err != nil {
		t.Fatal(err)
	}
	loss, err := tr.TrainIteration()
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("loss = %v", loss)
	}
	r := tr.Report()
	if r.Iterations != 1 || r.LastLoss != loss {
		t.Fatalf("report = %+v", r)
	}
}

func TestTrainingLearnsOnSyntheticTask(t *testing.T) {
	tr, err := New("ai", config.AIConfig{Layers: []int{4, 32, 2}, LR: 0.05, Batch: 32}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	first, err := tr.TrainIteration()
	if err != nil {
		t.Fatal(err)
	}
	last, err := train(tr, 300)
	if err != nil {
		t.Fatal(err)
	}
	if last > first*0.5 {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestRunTimePadding(t *testing.T) {
	cfg := smallAIConfig()
	rt := config.DistSpec{Type: "fixed", Value: 0.02}
	cfg.RunTime = &rt
	tr, err := New("ai", cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := train(tr, 3); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start).Seconds(); el < 0.05 {
		t.Fatalf("3 padded iterations took %v, want >= 0.06", el)
	}
	r := tr.Report()
	if math.Abs(r.IterMean-0.02)/0.02 > 0.5 {
		t.Fatalf("iter mean = %v, want ~0.02", r.IterMean)
	}
}

// TestTimeScale measures the host, not only the code: two iterations of
// a 0.5 s run_time at scale 0.01 sleep 10 ms of real time in all and must
// end within 0.5 s of wall time, which a host too loaded to schedule the
// test for that long fails.
func TestTimeScale(t *testing.T) {
	cfg := smallAIConfig()
	rt := config.DistSpec{Type: "fixed", Value: 0.5}
	cfg.RunTime = &rt
	tr, err := New("ai", cfg, WithTimeScale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	train(tr, 2)
	if time.Since(start).Seconds() > 0.5 {
		t.Fatal("time scale ignored")
	}
}

func TestUpdateLoaderFromStore(t *testing.T) {
	mgr, info, err := datastore.StartBackend(datastore.NodeLocal, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	store, _ := datastore.Connect(info)
	defer store.Close()

	tr, err := New("ai", smallAIConfig(), WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	// Stage 10 full samples (80 floats at input width 8) + a ragged tail.
	data := make([]float64, 83)
	for i := range data {
		data[i] = float64(i)
	}
	store.StageWrite("snap", EncodeFloat64s(data))
	if err := tr.UpdateLoader("snap"); err != nil {
		t.Fatal(err)
	}
	if tr.LoaderSize() != 10 {
		t.Fatalf("loader = %d samples, want 10 (tail dropped)", tr.LoaderSize())
	}
	r := tr.Report()
	if r.Reads != 1 || r.ReadGBps <= 0 {
		t.Fatalf("read stats = %+v", r)
	}
	// Training then consumes real staged data.
	if _, err := tr.TrainIteration(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateLoaderMissingKey(t *testing.T) {
	mgr, info, _ := datastore.StartBackend(datastore.NodeLocal, t.TempDir())
	defer mgr.Stop()
	store, _ := datastore.Connect(info)
	defer store.Close()
	tr, _ := New("ai", smallAIConfig(), WithStore(store))
	if err := tr.UpdateLoader("missing"); err == nil {
		t.Fatal("missing key loaded")
	}
	if tr.Report().Reads != 0 {
		t.Fatal("failed read counted")
	}
}

func TestUpdateLoaderWithoutStore(t *testing.T) {
	tr, _ := New("ai", smallAIConfig())
	if err := tr.UpdateLoader("k"); err == nil {
		t.Fatal("loader update without store succeeded")
	}
}

func TestLoaderBounded(t *testing.T) {
	mgr, info, _ := datastore.StartBackend(datastore.NodeLocal, t.TempDir())
	defer mgr.Stop()
	store, _ := datastore.Connect(info)
	defer store.Close()
	tr, _ := New("ai", smallAIConfig(), WithStore(store))
	big := make([]float64, 8*40000) // 40k samples
	store.StageWrite("big", EncodeFloat64s(big))
	tr.UpdateLoader("big")
	tr.UpdateLoader("big")
	if tr.LoaderSize() > 65536 {
		t.Fatalf("loader unbounded: %d", tr.LoaderSize())
	}
}

func TestDDPMatchesSequentialAveragedGradients(t *testing.T) {
	// 2-rank DDP with known per-rank batches must equal a serial step on
	// the averaged gradient. We verify via the public invariant: the
	// all-reduced gradient equals the mean of per-rank gradients.
	const ranks = 2
	w := mpi.NewWorld(ranks)
	grads := make([][]float64, ranks)
	var ddpGrad []float64
	w.Run(func(c *mpi.Comm) {
		rng := rand.New(rand.NewSource(33))
		model, _ := nn.NewMLP([]int{3, 4, 1}, rng)
		x := [][]float64{{float64(c.Rank() + 1), 2, 3}}
		y := [][]float64{{1}}
		model.ZeroGrad()
		_, g := new(nn.MSE).Loss(model.Forward(x), y)
		model.Backward(g)
		// Save local gradient before reduction.
		local := append([]float64(nil), model.Params()[0].Grad...)
		grads[c.Rank()] = local
		// DDP reduction.
		c.AllReduce(mpi.Sum, model.Params()[0].Grad)
		for i := range model.Params()[0].Grad {
			model.Params()[0].Grad[i] /= ranks
		}
		if c.Rank() == 0 {
			ddpGrad = append([]float64(nil), model.Params()[0].Grad...)
		}
	})
	for i := range ddpGrad {
		want := (grads[0][i] + grads[1][i]) / 2
		if math.Abs(ddpGrad[i]-want) > 1e-12 {
			t.Fatalf("ddp grad[%d] = %v, want %v", i, ddpGrad[i], want)
		}
	}
}

func TestTimelineSpans(t *testing.T) {
	tl := trace.New()
	tr, _ := New("ai", smallAIConfig(), WithTimeline(tl, "Training"))
	train(tr, 4)
	spans := tl.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	for _, s := range spans {
		if s.Lane != "Training" || s.Kind != trace.KindCompute {
			t.Fatalf("span %+v, want a Training compute span", s)
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := New("ai", config.AIConfig{Layers: []int{3}}); err != nil {
		return
	}
	t.Fatal("invalid config accepted")
}

// stagedTrainer is a trainer padding each step to 61 ms on a virtual
// clock, on a node-local deployment of its own with 50 standard-normal
// samples staged under "snap".
func stagedTrainer(t *testing.T) *Trainer {
	t.Helper()
	mgr, info, err := datastore.StartBackend(datastore.NodeLocal, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Stop() })
	store, err := datastore.Connect(info)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 8*50)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	if err := store.StageWrite("snap", EncodeFloat64s(vals)); err != nil {
		t.Fatal(err)
	}
	rt := config.DistSpec{Type: "fixed", Value: 0.061}
	tr, err := New("ai", config.AIConfig{Layers: []int{8, 16, 8}, LR: 0.01, Batch: 16, RunTime: &rt},
		WithStore(store), WithSeed(8), WithClock(clock.NewVirtual()))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTrainerLossSequencePinned: the losses of three synthetic and three
// loader-fed steps are the bits the allocating trainer (a fresh batch,
// activations and gradients per step) produced — the reused buffers
// change where numbers live, not one of them. No golden holds a loss.
func TestTrainerLossSequencePinned(t *testing.T) {
	tr := stagedTrainer(t)
	want := []uint64{0x3fde7d81913743b6, 0x3fe05d4edfe8354c, 0x3fe29f201daf449d,
		0x3fdb265f1c718d23, 0x3fd4a6d80ebb3155, 0x3fe0543d29f5dccb}
	for i, w := range want {
		if i == 3 {
			if err := tr.UpdateLoader("snap"); err != nil {
				t.Fatal(err)
			}
		}
		loss, err := tr.TrainIteration()
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(loss); got != w {
			t.Fatalf("step %d: loss %v (%#x), want %v (%#x)", i, loss, got, math.Float64frombits(w), w)
		}
	}
}

// TestTrainIterationAllocatesNothing: a padded step on the virtual clock
// allocates nothing, whether the batch is synthetic or drawn from the
// loader.
func TestTrainIterationAllocatesNothing(t *testing.T) {
	for _, fed := range []bool{false, true} {
		tr := stagedTrainer(t)
		if fed {
			if err := tr.UpdateLoader("snap"); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := tr.TrainIteration(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("loader fed %v: a training step allocates %v times, want 0", fed, allocs)
		}
	}
}

func TestLoaderDropsNonFiniteRows(t *testing.T) {
	mgr, info, _ := datastore.StartBackend(datastore.NodeLocal, t.TempDir())
	defer mgr.Stop()
	store, _ := datastore.Connect(info)
	defer store.Close()
	tr, _ := New("ai", smallAIConfig(), WithStore(store))
	vals := make([]float64, 24) // 3 rows at width 8
	vals[3] = math.NaN()        // poisons row 0
	vals[17] = math.Inf(1)      // poisons row 2
	store.StageWrite("dirty", EncodeFloat64s(vals))
	tr.UpdateLoader("dirty")
	if tr.LoaderSize() != 1 {
		t.Fatalf("loader kept %d rows, want 1 (non-finite rows dropped)", tr.LoaderSize())
	}
}

// refTargets is the per-output loop sampleBatch ran before it shared the
// two parity sums, kept as the oracle: y[j] = tanh(s/len(row)), where s
// starts at +0 and adds row[k] when k+j is even and subtracts it when
// odd, in k order.
func refTargets(row, y []float64) {
	for j := range y {
		s := 0.0
		for k, v := range row {
			if (k+j)%2 == 0 {
				s += v
			} else {
				s -= v
			}
		}
		y[j] = math.Tanh(s / float64(len(row)))
	}
}

// TestTargetsMatchOracle: over input and output widths of both
// parities, synthetic batches and loader-fed ones — including rows whose
// signed sums are ±0 and rows of signed zeros — every target is the
// oracle's bit for bit.
func TestTargetsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	negZero := math.Copysign(0, -1)
	for _, in := range []int{1, 2, 3, 4, 8} {
		for _, out := range []int{1, 2, 3, 8} {
			tr, err := New("ai", config.AIConfig{Layers: []int{in, 4, out}, Batch: 16}, WithSeed(int64(in*10+out)))
			if err != nil {
				t.Fatal(err)
			}
			var rows []float64
			for r := 0; r < 64; r++ {
				for k := 0; k < in; k++ {
					v := rng.NormFloat64()
					switch r % 4 {
					case 0: // pairs cancel: both parity sums are exactly zero
						v = float64(1 + k/2)
					case 1:
						v = []float64{0, negZero}[rng.Intn(2)]
					}
					rows = append(rows, v)
				}
			}
			want := make([]float64, out)
			for fed := range 2 {
				if fed == 1 {
					tr.loader.ingest(EncodeFloat64s(rows))
				}
				for range 4 {
					xs, ys := tr.sampleBatch()
					for i, x := range xs {
						refTargets(x, want)
						for j := range want {
							if math.Float64bits(ys[i][j]) != math.Float64bits(want[j]) {
								t.Fatalf("in %d out %d fed %d: target %d of row %v = %v, oracle %v", in, out, fed, j, x, ys[i][j], want[j])
							}
						}
					}
				}
			}
		}
	}
}
