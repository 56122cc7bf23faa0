// Package ai implements the paper's AI class (§3.4): a training/inference
// component built on the nn substrate with distributed data-parallel
// semantics (gradient all-reduce over the MPI runtime, the stand-in for
// PyTorch DDP), a data loader fed from the DataStore, and the same
// run_time/run_count execution control as the Simulation class.
package ai

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/config"
	"simaibench/internal/datastore"
	"simaibench/internal/dist"
	"simaibench/internal/mpi"
	"simaibench/internal/nn"
	"simaibench/internal/spin"
	"simaibench/internal/stats"
	"simaibench/internal/trace"
)

// EncodeFloat64s serializes training arrays for staging (little-endian),
// the wire format simulation snapshots use.
func EncodeFloat64s(xs []float64) []byte {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf
}

// DecodeFloat64s is the inverse of EncodeFloat64s.
func DecodeFloat64s(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

// Option customizes a Trainer.
type Option func(*Trainer)

// WithStore attaches the data-transport client.
func WithStore(s datastore.Store) Option { return func(t *Trainer) { t.store = s } }

// WithComm enables DDP over the communicator: gradients are all-reduced
// and averaged across ranks each step.
func WithComm(c *mpi.Comm) Option { return func(t *Trainer) { t.comm = c } }

// WithTimeline attaches a trace timeline.
func WithTimeline(tl *trace.Timeline, lane string) Option {
	return func(t *Trainer) { t.timeline, t.lane = tl, lane }
}

// WithSeed fixes the model-init and data RNG seed.
func WithSeed(seed int64) Option { return func(t *Trainer) { t.seed = &seed } }

// WithTimeScale scales emulated durations like simulation.WithTimeScale.
func WithTimeScale(f float64) Option { return func(t *Trainer) { t.timeScale = f } }

// WithClock runs the trainer against the given emulation clock, exactly
// as simulation.WithClock does for the solver: padding and timestamps
// come from the clock, while the real DDP step still executes (in zero
// virtual time under a clock.Virtual).
func WithClock(c clock.Clock) Option {
	return func(t *Trainer) { t.now, t.sleep = c.Now, c.Sleep }
}

// Trainer is one AI component instance.
type Trainer struct {
	name      string
	cfg       config.AIConfig
	model     *nn.MLP
	loss      nn.MSE
	opt       nn.SGD
	store     datastore.Store
	comm      *mpi.Comm
	timeline  *trace.Timeline
	lane      string
	rng       *rand.Rand
	seed      *int64
	timeScale float64
	runTime   dist.Sampler

	// loader holds the most recently staged training samples.
	loader loader
	// raw is UpdateLoader's read buffer, passed back to every read.
	raw []byte
	// xs, ys and synth are sampleBatch's minibatch, allocated once: xs
	// rows alias the loader's ring or synth (synthetic inputs), ys rows
	// are the targets.
	xs, ys [][]float64
	synth  []float64

	iterStats stats.Welford
	lossStats stats.Welford
	lastLoss  float64
	readStats stats.Welford
	readTput  stats.Throughput
	reads     int
	iters     int

	start time.Time
	now   func() time.Time
	sleep func(time.Duration)
}

// New builds a trainer from a validated config.
func New(name string, cfg config.AIConfig, opts ...Option) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Trainer{
		name:      name,
		cfg:       cfg,
		timeScale: 1,
		now:       time.Now,
		sleep:     spin.Sleep,
	}
	for _, o := range opts {
		o(t)
	}
	seed := int64(7)
	if t.seed != nil {
		seed = *t.seed
	}
	t.rng = rand.New(rand.NewSource(seed))
	model, err := nn.NewMLP(cfg.Layers, t.rng)
	if err != nil {
		return nil, err
	}
	t.model = model
	t.loader.w = t.inDim()
	b, in, out := t.batchSize(), t.inDim(), t.outDim()
	t.xs, t.synth = make([][]float64, b), make([]float64, b*in)
	t.ys = make([][]float64, b)
	targets := make([]float64, b*out)
	for i := range t.ys {
		t.ys[i] = targets[i*out : (i+1)*out : (i+1)*out]
	}
	lr := cfg.LR
	if lr == 0 {
		lr = 0.01
	}
	t.opt = nn.SGD{LR: lr}
	if cfg.RunTime != nil {
		if t.runTime, err = cfg.RunTime.Sampler(); err != nil {
			return nil, err
		}
	}
	t.start = t.now()
	return t, nil
}

// Name returns the component name.
func (t *Trainer) Name() string { return t.name }

// Model exposes the underlying network (weight inspection in tests).
func (t *Trainer) Model() *nn.MLP { return t.model }

// Elapsed returns wall seconds since construction.
func (t *Trainer) Elapsed() float64 { return t.now().Sub(t.start).Seconds() }

// batchSize returns the configured batch (default 16).
func (t *Trainer) batchSize() int {
	if t.cfg.Batch > 0 {
		return t.cfg.Batch
	}
	return 16
}

// inDim / outDim are the model's input and output widths.
func (t *Trainer) inDim() int  { return t.cfg.Layers[0] }
func (t *Trainer) outDim() int { return t.cfg.Layers[len(t.cfg.Layers)-1] }

// UpdateLoader reads a staged array and appends its samples to the data
// loader, recording the transfer (the trainer-side "read" of the
// one-to-one pattern). The staged array is reshaped into rows of the
// model's input width; short tails and non-finite rows are dropped, and
// beyond maxSamples rows the oldest are evicted first. The staged bytes
// are read into the trainer's own buffer and decoded straight into the
// loader's ring: once both have grown, nothing is allocated per update.
func (t *Trainer) UpdateLoader(key string) error {
	if t.store == nil {
		return fmt.Errorf("ai %s: no data store attached", t.name)
	}
	start := t.now()
	raw, err := t.store.StageReadInto(key, t.raw)
	if err != nil {
		return err
	}
	t.raw = raw
	dur := t.now().Sub(start).Seconds()
	t.readStats.Add(dur)
	t.readTput.Add(int64(len(raw)), dur)
	t.reads++
	if t.timeline != nil {
		// Timeline coordinates are emulated (unscaled) seconds.
		end := t.Elapsed() / t.timeScale
		t.timeline.AddSpan(t.lane, trace.KindTransfer, end-dur/t.timeScale, end, "read "+key)
	}
	t.loader.ingest(raw)
	return nil
}

// Poll checks whether a key is staged.
func (t *Trainer) Poll(key string) (bool, error) {
	if t.store == nil {
		return false, fmt.Errorf("ai %s: no data store attached", t.name)
	}
	return t.store.Poll(key)
}

// LoaderSize reports the number of buffered training samples.
func (t *Trainer) LoaderSize() int { return t.loader.n }

// sampleBatch draws a minibatch from the loader (synthetic data when the
// loader is empty, so training can begin before the first snapshot — the
// original GNN warm-starts the same way). Targets are a fixed smooth
// function of the inputs, giving the optimizer a real signal.
//
// The batch is the trainer's own, rewritten by every call. Rows drawn
// from the loader alias its ring: they are valid until the next
// UpdateLoader on the same goroutine, which may overwrite them.
func (t *Trainer) sampleBatch() (xs, ys [][]float64) {
	in := t.inDim()
	for i := range t.xs {
		var row []float64
		if n := t.loader.n; n > 0 {
			row = t.loader.row(t.rng.Intn(n))
		} else {
			row = t.synth[i*in : (i+1)*in : (i+1)*in]
			for j := range row {
				row[j] = t.rng.NormFloat64()
			}
		}
		t.xs[i] = row
		// Target j is tanh of the row's mean with alternating signs,
		// + where k+j is even: one sum serves every even j and one every
		// odd j, each added up from +0 in k order.
		even, odd := 0.0, 0.0
		for k, v := range row {
			if k%2 == 0 {
				even, odd = even+v, odd-v
			} else {
				even, odd = even-v, odd+v
			}
		}
		te, to := math.Tanh(even/float64(len(row))), math.Tanh(odd/float64(len(row)))
		y := t.ys[i]
		for j := range y {
			y[j] = te
			if j%2 == 1 {
				y[j] = to
			}
		}
	}
	return t.xs, t.ys
}

// TrainIteration performs one real DDP step: forward, MSE loss,
// backward, gradient all-reduce (when a communicator is attached), SGD
// update — then pads to the sampled run_time so the iteration matches
// the profiled duration (0.061 s for the paper's GNN). Batch, activations
// and gradients live in buffers the trainer and its model reuse, so
// without a communicator or timeline a step allocates nothing.
func (t *Trainer) TrainIteration() (float64, error) {
	iterStart := t.now()
	var target float64
	if t.runTime != nil {
		target = t.runTime.Sample(t.rng) * t.timeScale
	}
	xs, ys := t.sampleBatch()
	t.model.ZeroGrad()
	pred := t.model.Forward(xs)
	loss, grad := t.loss.Loss(pred, ys)
	t.model.Backward(grad)
	if t.comm != nil && t.comm.Size() > 1 {
		t.allReduceGrads()
	}
	t.opt.Step(t.model.Params())
	if target > 0 {
		if rem := target - t.now().Sub(iterStart).Seconds(); rem > 0 {
			t.sleep(time.Duration(rem * float64(time.Second)))
		}
	}
	dur := t.now().Sub(iterStart).Seconds()
	t.iterStats.Add(dur / t.timeScale)
	t.lossStats.Add(loss)
	t.lastLoss = loss
	t.iters++
	if t.timeline != nil {
		end := t.Elapsed() / t.timeScale
		t.timeline.AddSpan(t.lane, trace.KindCompute, end-dur/t.timeScale, end, "train")
	}
	return loss, nil
}

// allReduceGrads averages gradients across ranks — the communication
// PyTorch DDP hides inside loss.backward(), made explicit here.
func (t *Trainer) allReduceGrads() {
	for _, p := range t.model.Params() {
		t.comm.AllReduce(mpi.Sum, p.Grad)
		inv := 1.0 / float64(t.comm.Size())
		for i := range p.Grad {
			p.Grad[i] *= inv
		}
	}
}

// Train runs n iterations, returning the final loss.
func (t *Trainer) Train(n int) (float64, error) {
	var loss float64
	var err error
	for i := 0; i < n; i++ {
		if loss, err = t.TrainIteration(); err != nil {
			return loss, err
		}
	}
	return loss, nil
}

// Report mirrors simulation.Report for the trainer side.
type Report struct {
	Name       string
	Iterations int
	IterMean   float64
	IterStd    float64
	Reads      int
	ReadMean   float64
	ReadGBps   float64
	LossMean   float64
	LastLoss   float64
}

// Report returns current statistics.
func (t *Trainer) Report() Report {
	return Report{
		Name:       t.name,
		Iterations: t.iters,
		IterMean:   t.iterStats.Mean(),
		IterStd:    t.iterStats.Std(),
		Reads:      t.reads,
		ReadMean:   t.readStats.Mean(),
		ReadGBps:   t.readTput.MeanGBps(),
		LossMean:   t.lossStats.Mean(),
		LastLoss:   t.lastLoss,
	}
}
