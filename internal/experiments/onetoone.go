package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"simaibench/internal/ai"
	"simaibench/internal/clock"
	"simaibench/internal/config"
	"simaibench/internal/datastore"
	"simaibench/internal/simulation"
	"simaibench/internal/trace"
	"simaibench/internal/workflow"
)

// OneToOneConfig drives one real-stack run of the paper's first
// workload (§4.1): a co-located solver and trainer exchanging real bytes
// through a real backend, the trainer steering the solver to stop. It is
// the wall/virtual-clock twin of the DES harness in colocated.go, and
// the one statement of that workflow under the validation scenarios,
// the simaibench CLI and examples/nekrs-ml. There are no defaults: every
// count and the time scale must be set.
type OneToOneConfig struct {
	// Backend is deployed for the run and torn down after it.
	Backend datastore.Backend
	// Sim and AI configure the two components (Listing 2 schema).
	Sim config.SimulationConfig
	AI  config.AIConfig
	// TrainIters: training iterations before the trainer stops the
	// workflow.
	TrainIters int
	// WritePeriod: solver iterations between snapshots.
	WritePeriod int
	// ReadPeriod: training iterations between polls for a new snapshot.
	ReadPeriod int
	// ArrayBytes: the size of each array a snapshot stages, in staging
	// order. Array i is the first ArrayBytes[i] bytes of one standard-
	// normal float64 payload (random bytes would decode to NaNs the
	// trainer's loader drops), so each needs room for one float64.
	ArrayBytes []int
	// TimeScale compresses every emulated duration.
	TimeScale float64
	// SimInitS / TrainInitS: emulated initialization before each
	// component's first iteration (the gray areas of Fig 2); 0 skips it.
	SimInitS   float64
	TrainInitS float64
	// Seed fixes the solver (Seed), trainer (Seed+7) and payload
	// (Seed+100) random streams.
	Seed int64
	// Clock is the emulation time domain: clock.KindVirtual (also "")
	// or clock.KindWall.
	Clock string
}

// validate rejects the values that would otherwise hang (a period of 0
// panics one component and leaves the other waiting for it) or stage
// nothing, naming the knob — the field, and the flag every front-end
// gives it.
func (c OneToOneConfig) validate() error {
	for _, k := range []struct {
		name string
		v    int
	}{
		{"TrainIters (-train-iters)", c.TrainIters},
		{"WritePeriod (-write-period)", c.WritePeriod},
		{"ReadPeriod (-read-period)", c.ReadPeriod},
	} {
		if k.v < 1 {
			return fmt.Errorf("one-to-one: %s = %d, want at least 1", k.name, k.v)
		}
	}
	if len(c.ArrayBytes) == 0 {
		return errors.New("one-to-one: ArrayBytes is empty, want at least one staged array")
	}
	for i, n := range c.ArrayBytes {
		if n < 8 {
			return fmt.Errorf("one-to-one: ArrayBytes[%d] (-payload-mb) = %d bytes, want at least 8 (one float64)", i, n)
		}
	}
	if !(c.TimeScale > 0) || math.IsInf(c.TimeScale, 0) {
		return fmt.Errorf("one-to-one: TimeScale (-time-scale) = %v, want a finite positive factor", c.TimeScale)
	}
	return nil
}

// OneToOneResult is what a run leaves behind: both component reports,
// the timeline they recorded (lanes "Simulation" and "Training",
// emulated seconds) and the unscaled workflow duration.
type OneToOneResult struct {
	Sim       simulation.Report
	Train     ai.Report
	Timeline  *trace.Timeline
	MakespanS float64
}

// The control protocol. The solver publishes the step of its newest
// snapshot under keyHead; the trainer stages keyStop after its last
// iteration. Both are metadata written raw through the store, so the
// components do not count them as data-transport events.
const (
	keyHead = "control/head"
	keyStop = "control/stop"
	// stopPollSteps: solver iterations between looks at keyStop and at
	// its context.
	stopPollSteps = 10
)

// dataKey names array i of the snapshot taken at step. The first two
// are the inputs and targets of the validation workflow (each snapshot
// is two transport events on each side, which is how the original's ~2
// events per write period arise).
func dataKey(step, i int) string {
	if names := [...]string{"x", "y"}; i < len(names) {
		return fmt.Sprintf("data/%d/%s", step, names[i])
	}
	return fmt.Sprintf("data/%d/%d", step, i)
}

// headStep parses the head pointer the simulation publishes under
// keyHead: the decimal step of its newest snapshot. A corrupt pointer is
// an error naming its value, not step 0 and a misleading ErrNotStaged
// for data/0/x.
func headStep(head string) (int, error) {
	step, err := strconv.Atoi(head)
	if err != nil {
		return 0, fmt.Errorf("head pointer %s = %q is not a step number: %w", keyHead, head, err)
	}
	return step, nil
}

// stagedArrays builds the arrays of one snapshot: prefixes of a single
// payload of standard-normal float64s in the staging wire format.
func stagedArrays(seed int64, sizes []int) [][]byte {
	longest := 0
	for _, n := range sizes {
		longest = max(longest, n)
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, longest/8)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	payload := ai.EncodeFloat64s(vals)
	arrays := make([][]byte, len(sizes))
	for i, n := range sizes {
		arrays[i] = payload[:min(n, len(payload))]
	}
	return arrays
}

// RunOneToOne executes the one-to-one workflow on the real stack — the
// structure of §4.1.1. Both components run against the configured
// emulation clock: under the virtual clock all padding is free (the run
// completes as fast as its real compute and staging allow,
// deterministically per seed); under the wall clock this is the paper's
// genuine real-time emulation. A failing component or a cancelled ctx
// stops the other at its next poll; a backend that dies mid-run is an
// error naming the key that could not be reached.
func RunOneToOne(ctx context.Context, cfg OneToOneConfig) (OneToOneResult, error) {
	if err := cfg.validate(); err != nil {
		return OneToOneResult{}, err
	}
	clk, err := clock.FromKind(cfg.Clock)
	if err != nil {
		return OneToOneResult{}, err
	}
	mgr, info, err := datastore.StartBackend(cfg.Backend, "")
	if err != nil {
		return OneToOneResult{}, err
	}
	defer mgr.Stop()
	return runOneToOne(ctx, cfg, clk, func() (datastore.Store, error) { return datastore.Connect(info) })
}

// runOneToOne is RunOneToOne on a deployment the caller owns; connect
// opens one client per component (tests wrap it to inject faults).
func runOneToOne(ctx context.Context, cfg OneToOneConfig, clk clock.Clock, connect func() (datastore.Store, error)) (OneToOneResult, error) {
	res := OneToOneResult{Timeline: trace.New()}
	tl, scale := res.Timeline, cfg.TimeScale
	start := clk.Now()
	elapsed := func() float64 { return clk.Now().Sub(start).Seconds() / scale }
	// initialize spends a component's emulated start-up time.
	initialize := func(lane string, initS float64) {
		if initS > 0 {
			clk.Sleep(time.Duration(initS * scale * float64(time.Second)))
			tl.AddSpan(lane, trace.KindInit, 0, elapsed(), "init")
		}
	}

	solver := func(ctx workflow.Ctx) error {
		store, err := connect()
		if err != nil {
			return err
		}
		defer store.Close()
		sim, err := simulation.New("sim", cfg.Sim,
			simulation.WithStore(store),
			simulation.WithTimeline(tl, "Simulation"),
			simulation.WithSeed(cfg.Seed),
			simulation.WithTimeScale(scale),
			simulation.WithClock(clk))
		if err != nil {
			return err
		}
		initialize("Simulation", cfg.SimInitS)
		arrays := stagedArrays(cfg.Seed+100, cfg.ArrayBytes)
		for step := 1; ; step++ {
			if err := sim.RunIteration(); err != nil {
				return err
			}
			if step%cfg.WritePeriod == 0 {
				for i, a := range arrays {
					key := dataKey(step, i)
					if err := sim.StageWrite(key, a); err != nil {
						return fmt.Errorf("write %s: %w", key, err)
					}
				}
				if err := store.StageWrite(keyHead, []byte(strconv.Itoa(step))); err != nil {
					return fmt.Errorf("write %s: %w", keyHead, err)
				}
			}
			if step%stopPollSteps == 0 {
				stop, err := store.Poll(keyStop)
				if err != nil {
					return fmt.Errorf("poll %s: %w", keyStop, err)
				}
				if stop {
					break
				}
				if ctx.Err() != nil {
					return ctx.Err()
				}
			}
		}
		res.Sim = sim.Report()
		return nil
	}

	trainer := func(ctx workflow.Ctx) error {
		store, err := connect()
		if err != nil {
			return err
		}
		defer store.Close()
		tr, err := ai.New("train", cfg.AI,
			ai.WithStore(store),
			ai.WithTimeline(tl, "Training"),
			ai.WithSeed(cfg.Seed+7),
			ai.WithTimeScale(scale),
			ai.WithClock(clk))
		if err != nil {
			return err
		}
		initialize("Training", cfg.TrainInitS)
		lastHead := ""
		for i := 1; i <= cfg.TrainIters; i++ {
			if _, err := tr.TrainIteration(); err != nil {
				return err
			}
			if i%cfg.ReadPeriod == 0 {
				head, err := store.StageRead(keyHead)
				if errors.Is(err, datastore.ErrNotStaged) {
					continue // no snapshot yet
				}
				if err != nil {
					return fmt.Errorf("read %s: %w", keyHead, err)
				}
				if string(head) == lastHead {
					continue // no new snapshot
				}
				lastHead = string(head)
				step, err := headStep(lastHead)
				if err != nil {
					return err
				}
				for a := range cfg.ArrayBytes {
					key := dataKey(step, a)
					if err := tr.UpdateLoader(key); err != nil {
						return fmt.Errorf("read %s: %w", key, err)
					}
				}
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		// Steer the workflow: tell the simulation to stop.
		if err := store.StageWrite(keyStop, []byte("1")); err != nil {
			return fmt.Errorf("write %s: %w", keyStop, err)
		}
		res.Train = tr.Report()
		return nil
	}

	w := workflow.New("one-to-one", workflow.WithClock(clk))
	for _, c := range []workflow.Component{{Name: "sim", Body: solver}, {Name: "train", Body: trainer}} {
		if err := w.Register(c); err != nil {
			return OneToOneResult{}, err
		}
	}
	if err := w.Launch(ctx); err != nil {
		return OneToOneResult{}, err
	}
	res.MakespanS = elapsed()
	return res, nil
}
