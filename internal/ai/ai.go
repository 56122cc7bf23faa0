// Package ai implements the paper's AI class (§3.4): a training
// component built on the nn substrate, a data loader fed from the
// DataStore, and the same run_time/run_count execution control as the
// Simulation class. Each trainer steps one rank's model: no gradient
// all-reduce runs.
package ai

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"simaibench/internal/clock"
	"simaibench/internal/config"
	"simaibench/internal/datastore"
	"simaibench/internal/dist"
	"simaibench/internal/nn"
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

// WithTimeline attaches a trace timeline.
func WithTimeline(tl *trace.Timeline, lane string) Option {
	return func(t *Trainer) { t.lane.Timeline, t.lane.Name = tl, lane }
}

// WithSeed fixes the model-init and data RNG seed.
func WithSeed(seed int64) Option { return func(t *Trainer) { t.seed = &seed } }

// WithTimeScale scales emulated durations like simulation.WithTimeScale.
func WithTimeScale(f float64) Option { return func(t *Trainer) { t.lane.Scale = f } }

// WithClock runs the trainer against the given emulation clock, exactly
// as simulation.WithClock does for the solver: padding and timestamps
// come from the clock, while the real training step still executes (in
// zero virtual time under a clock.Virtual).
func WithClock(c clock.Clock) Option {
	return func(t *Trainer) { t.lane.Clock = c }
}

// Trainer is one AI component instance.
type Trainer struct {
	name    string
	cfg     config.AIConfig
	model   *nn.MLP
	loss    nn.MSE
	opt     nn.SGD
	store   datastore.Store
	lane    trace.Lane
	rng     *rand.Rand
	seed    *int64
	runTime dist.Sampler

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
}

// New builds a trainer from a validated config.
func New(name string, cfg config.AIConfig, opts ...Option) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Trainer{name: name, cfg: cfg, lane: trace.Lane{Clock: clock.Wall, Scale: 1}}
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
	t.lane.Start = t.lane.Clock.Now()
	return t, nil
}

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
	start := t.lane.Clock.Now()
	raw, err := t.store.StageReadInto(key, t.raw)
	if err != nil {
		return err
	}
	t.raw = raw
	dur := t.lane.Measure(start, trace.KindTransfer, "read ", key)
	t.readStats.Add(dur)
	t.readTput.Add(int64(len(raw)), dur)
	t.loader.ingest(raw)
	return nil
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

// TrainIteration performs one real training step: forward, MSE loss,
// backward, SGD update — then pads to the sampled run_time so the
// iteration matches the profiled duration (0.061 s for the paper's GNN).
// Batch, activations and gradients live in buffers the trainer and its
// model reuse, so without a timeline a step allocates nothing.
func (t *Trainer) TrainIteration() (float64, error) {
	iterStart := t.lane.Clock.Now()
	var target float64
	if t.runTime != nil {
		target = t.runTime.Sample(t.rng)
	}
	xs, ys := t.sampleBatch()
	t.model.ZeroGrad()
	pred := t.model.Forward(xs)
	loss, grad := t.loss.Loss(pred, ys)
	t.model.Backward(grad)
	t.opt.Step(t.model.Params())
	t.lane.Pad(iterStart, target)
	dur := t.lane.Measure(iterStart, trace.KindCompute, "train", "")
	t.iterStats.Add(dur / t.lane.Scale)
	t.lossStats.Add(loss)
	t.lastLoss = loss
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
		Iterations: int(t.iterStats.N()),
		IterMean:   t.iterStats.Mean(),
		IterStd:    t.iterStats.Std(),
		Reads:      int(t.readStats.N()),
		ReadMean:   t.readStats.Mean(),
		ReadGBps:   t.readTput.MeanGBps(),
		LossMean:   t.lossStats.Mean(),
		LastLoss:   t.lastLoss,
	}
}
