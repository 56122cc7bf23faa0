// Package simulation implements the paper's Simulation class (§3.3): a
// configurable component that emulates a scientific solver as a sequence
// of kernels, each characterized by a deterministic or stochastic
// run_time (or run_count), a data size and a device, with tight
// integration to the data-transport layer through stage_read/stage_write.
//
// Timing emulation: each iteration executes its kernels for real (so the
// process exhibits genuine compute and memory behaviour) and is then
// padded to the sampled run_time, reproducing the original application's
// makespan — the property the paper validates in Tables 2/3 and Fig 2.
package simulation

import (
	"fmt"
	"math/rand"

	"simaibench/internal/clock"
	"simaibench/internal/config"
	"simaibench/internal/datastore"
	"simaibench/internal/dist"
	"simaibench/internal/kernels"
	"simaibench/internal/mpi"
	"simaibench/internal/stats"
	"simaibench/internal/trace"
)

// Option customizes a Simulation.
type Option func(*Simulation)

// WithStore attaches a data-transport client for staging.
func WithStore(s datastore.Store) Option { return func(sim *Simulation) { sim.store = s } }

// WithComm attaches an MPI communicator (for collective kernels and
// rank-aware staging keys).
func WithComm(c *mpi.Comm) Option { return func(sim *Simulation) { sim.comm = c } }

// WithTimeline attaches a trace timeline (Fig 2 rendering).
func WithTimeline(tl *trace.Timeline, lane string) Option {
	return func(sim *Simulation) { sim.lane.Timeline, sim.lane.Name = tl, lane }
}

// WithSeed fixes the RNG seed (default: derived from the name).
func WithSeed(seed int64) Option { return func(sim *Simulation) { sim.seed = &seed } }

// WithTimeScale scales all emulated durations by f (0 < f <= 1 shrinks
// them) so tests and demos can run a 10,000-iteration workflow in
// milliseconds without changing its structure.
func WithTimeScale(f float64) Option { return func(sim *Simulation) { sim.lane.Scale = f } }

// WithClock runs the component against the given emulation clock: all
// iteration padding and timestamps come from it. The default is the
// wall clock (genuine-compute mode); a clock.Virtual makes every pad
// free and deterministic. Under a virtual clock the kernels still
// execute for real — their work simply occupies zero virtual time, and
// the pad covers the whole sampled run_time.
func WithClock(c clock.Clock) Option {
	return func(sim *Simulation) { sim.lane.Clock = c }
}

// boundKernel is a compiled kernel spec with the execution context every
// one of its runs shares (the component's communicator and RNG, the
// spec's device), built once so an iteration allocates nothing.
type boundKernel struct {
	spec     config.KernelSpec
	kernel   kernels.Kernel
	runTime  dist.Sampler // nil if count-driven
	runCount dist.Sampler // nil if time-driven
	ctx      kernels.Context
}

// Simulation is one emulated solver component.
type Simulation struct {
	name    string
	kernels []boundKernel
	store   datastore.Store
	comm    *mpi.Comm
	lane    trace.Lane
	rng     *rand.Rand
	seed    *int64

	iterStats  stats.Welford
	writeStats stats.Welford
	readStats  stats.Welford
	writeTput  stats.Throughput
	readTput   stats.Throughput
}

// New compiles a validated configuration into a runnable component.
func New(name string, cfg config.SimulationConfig, opts ...Option) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := &Simulation{name: name, lane: trace.Lane{Clock: clock.Wall, Scale: 1}}
	for _, o := range opts {
		o(sim)
	}
	seed := int64(1)
	if sim.seed != nil {
		seed = *sim.seed
	} else {
		for _, c := range name {
			seed = seed*31 + int64(c)
		}
	}
	sim.rng = rand.New(rand.NewSource(seed))
	for _, ks := range cfg.Kernels {
		k, err := kernels.New(ks.Kernel)
		if err != nil {
			return nil, err
		}
		dev, err := kernels.ParseDevice(ks.Device)
		if err != nil {
			return nil, err
		}
		bk := boundKernel{spec: ks, kernel: k,
			ctx: kernels.Context{Comm: sim.comm, Rng: sim.rng, Device: dev}}
		if ks.RunTime != nil {
			if bk.runTime, err = ks.RunTime.Sampler(); err != nil {
				return nil, err
			}
		}
		if ks.RunCount != nil {
			if bk.runCount, err = ks.RunCount.Sampler(); err != nil {
				return nil, err
			}
		}
		sim.kernels = append(sim.kernels, bk)
	}
	sim.lane.Start = sim.lane.Clock.Now()
	return sim, nil
}

// RunIteration executes one solver iteration: every configured kernel
// runs once (time-driven kernels are padded to their sampled run_time,
// count-driven kernels run the sampled number of times). The iteration
// duration is recorded for Table-3-style statistics. The kernels reuse
// their buffers, so a compute-kernel iteration without a timeline
// allocates nothing.
func (s *Simulation) RunIteration() error {
	iterStart := s.lane.Clock.Now()
	for i := range s.kernels {
		bk := &s.kernels[i]
		switch {
		case bk.runTime != nil:
			target := bk.runTime.Sample(s.rng)
			kStart := s.lane.Clock.Now()
			if err := bk.kernel.Run(&bk.ctx, bk.spec.DataSize); err != nil {
				return fmt.Errorf("simulation %s: kernel %s: %w", s.name, bk.spec.Name, err)
			}
			s.lane.Pad(kStart, target)
		default:
			n := int(bk.runCount.Sample(s.rng))
			if n < 1 {
				n = 1
			}
			for j := 0; j < n; j++ {
				if err := bk.kernel.Run(&bk.ctx, bk.spec.DataSize); err != nil {
					return fmt.Errorf("simulation %s: kernel %s: %w", s.name, bk.spec.Name, err)
				}
			}
		}
	}
	dur := s.lane.Measure(iterStart, trace.KindCompute, "iter", "")
	s.iterStats.Add(dur / s.lane.Scale) // report unscaled statistics
	return nil
}

// Run executes n iterations.
func (s *Simulation) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.RunIteration(); err != nil {
			return err
		}
	}
	return nil
}

// StageWrite publishes value through the attached store, recording the
// transfer duration and throughput (a Fig 3 "write" event).
func (s *Simulation) StageWrite(key string, value []byte) error {
	if s.store == nil {
		return fmt.Errorf("simulation %s: no data store attached", s.name)
	}
	start := s.lane.Clock.Now()
	if err := s.store.StageWrite(key, value); err != nil {
		return err
	}
	dur := s.lane.Measure(start, trace.KindTransfer, "write ", key)
	s.writeStats.Add(dur)
	s.writeTput.Add(int64(len(value)), dur)
	return nil
}

// StageRead fetches a staged value, recording the transfer (a "read"
// event).
func (s *Simulation) StageRead(key string) ([]byte, error) {
	if s.store == nil {
		return nil, fmt.Errorf("simulation %s: no data store attached", s.name)
	}
	start := s.lane.Clock.Now()
	v, err := s.store.StageRead(key)
	if err != nil {
		return nil, err
	}
	dur := s.lane.Measure(start, trace.KindTransfer, "read ", key)
	s.readStats.Add(dur)
	s.readTput.Add(int64(len(v)), dur)
	return v, nil
}

// Report is a snapshot of component statistics, the raw material of
// Tables 2 and 3.
type Report struct {
	Name       string
	Iterations int
	IterMean   float64
	IterStd    float64
	Writes     int
	Reads      int
	WriteMean  float64
	ReadMean   float64
	WriteGBps  float64
	ReadGBps   float64
}

// Report returns current statistics.
func (s *Simulation) Report() Report {
	return Report{
		Name:       s.name,
		Iterations: int(s.iterStats.N()),
		IterMean:   s.iterStats.Mean(),
		IterStd:    s.iterStats.Std(),
		Writes:     int(s.writeStats.N()),
		Reads:      int(s.readStats.N()),
		WriteMean:  s.writeStats.Mean(),
		ReadMean:   s.readStats.Mean(),
		WriteGBps:  s.writeTput.MeanGBps(),
		ReadGBps:   s.readTput.MeanGBps(),
	}
}
