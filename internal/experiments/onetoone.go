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

// OneToOneConfig drives one real-stack run of the paper's coupled
// workflows: solvers and a trainer exchanging real bytes through a real
// backend, the trainer steering the solvers to stop. With Ensemble 0 or
// 1 it is the first workload (§4.1), one co-located solver and trainer,
// the wall/virtual-clock twin of the DES harness in colocated.go; above
// 1 it is the second (§4.2), an ensemble of solvers feeding one trainer.
// It is the one statement of that loop under the validation scenarios,
// the simaibench CLI, examples/nekrs-ml and examples/ensemble-surrogate.
// There are no defaults: every count and the time scale must be set.
type OneToOneConfig struct {
	// Backend is deployed for the run and torn down after it.
	Backend datastore.Backend
	// Sim and AI configure the components (Listing 2 schema).
	Sim config.SimulationConfig
	AI  config.AIConfig
	// Ensemble: solver components. 0 or 1 is one solver, whose trainer
	// skips a read period with no new snapshot. Above 1, member m stages
	// under the key prefix "member<m>/" with its own head pointer, and
	// the trainer blocks each read period until every member's head has
	// moved, then reads every member's arrays. On the wall clock with
	// more components than cores, yield-spun pads delay each network
	// round trip by milliseconds, so the run takes longer than it pads
	// to and the members stage several snapshots per read period; the
	// trainer removes all of them in one Clean, so memory stays bounded.
	Ensemble int
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
	// Seed fixes the solver (Seed; ensemble member m, Seed+m), trainer
	// (Seed+7) and payload (Seed+100) random streams. Every member
	// stages the same payload.
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
	if c.Ensemble < 0 {
		return fmt.Errorf("one-to-one: Ensemble (-members) = %d, want 0 or more", c.Ensemble)
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

// OneToOneResult is what a run leaves behind: the solver's and the
// trainer's reports (for an ensemble, Sim is member 0's), the timeline
// they recorded (lanes "Simulation", or "Simulation <m>" per member, and
// "Training"; emulated seconds) and the unscaled workflow duration.
type OneToOneResult struct {
	Sim       simulation.Report
	Train     ai.Report
	Timeline  *trace.Timeline
	MakespanS float64
}

// The control protocol. Each solver publishes the step of its newest
// snapshot under its key prefix + keyHead; the trainer stages keyStop,
// which every solver polls, after its last iteration. Both are metadata
// written raw through the store, so the components do not count them as
// data-transport events.
const (
	keyHead = "control/head"
	keyStop = "control/stop"
	// stopPollSteps: solver iterations between looks at keyStop and at
	// its context.
	stopPollSteps = 10
	// ensemblePollS: emulated seconds an ensemble's trainer sleeps
	// between looks at a member head that has not moved.
	ensemblePollS = 0.01
)

// member is one solver component: its name, timeline lane, key prefix
// and seed. A lone solver is "sim" on lane "Simulation" with no prefix.
type member struct {
	name, lane, prefix string
	seed               int64
}

// members lists the run's solver components.
func (c OneToOneConfig) members() []member {
	if c.Ensemble <= 1 {
		return []member{{"sim", "Simulation", "", c.Seed}}
	}
	ms := make([]member, c.Ensemble)
	for m := range ms {
		ms[m] = member{fmt.Sprintf("sim%d", m), fmt.Sprintf("Simulation %d", m), fmt.Sprintf("member%d/", m), c.Seed + int64(m)}
	}
	return ms
}

// dataKey names array i of the snapshot a solver with key prefix
// prefix took at step. The first two are the inputs and targets of the
// validation workflow (each snapshot is two transport events on each
// side, which is how the original's ~2 events per write period arise).
func dataKey(prefix string, step, i int) string {
	if names := [...]string{"x", "y"}; i < len(names) {
		return fmt.Sprintf("%sdata/%d/%s", prefix, step, names[i])
	}
	return fmt.Sprintf("%sdata/%d/%d", prefix, step, i)
}

// headStep parses a head pointer: the decimal step of a solver's newest
// snapshot. A corrupt pointer is an error naming its value, not step 0
// and a misleading ErrNotStaged for data/0/x.
func headStep(head string) (int, error) {
	step, err := strconv.Atoi(head)
	if err != nil {
		return 0, fmt.Errorf("head pointer %q is not a step number: %w", head, err)
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

// staleKeys appends to keys what the trainer's clean_staged_data
// removes for one solver once it has consumed the snapshot the solver
// with key prefix prefix took at step: the arrays of that snapshot and
// of every older one it skipped — each step after cleaned, to step, that
// is a multiple of the write period. The solver only writes past step
// once it has published head step, so nothing it still writes is named,
// and once they are removed the backend holds only what is yet to be
// read (letting the mini-Redis recycle the dropped values).
func staleKeys(keys []string, cfg OneToOneConfig, prefix string, cleaned, step int) []string {
	for s := (cleaned/cfg.WritePeriod + 1) * cfg.WritePeriod; s <= step; s += cfg.WritePeriod {
		for a := range cfg.ArrayBytes {
			keys = append(keys, dataKey(prefix, s, a))
		}
	}
	return keys
}

// RunOneToOne executes the workflow on the real stack — the structure
// of §4.1.1, or with an Ensemble the many-to-one pattern of §4.2. Every
// component runs against the configured emulation clock: under the
// virtual clock all padding is free (the run completes as fast as its
// real compute and staging allow, deterministically per seed); under the
// wall clock this is the paper's genuine real-time emulation. A failing
// component or a cancelled ctx stops the others at their next poll; a
// backend that dies mid-run is an error naming the key that could not
// be reached.
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
	run := trace.Lane{Clock: clk, Scale: scale, Timeline: tl, Start: clk.Now()}
	// initialize spends a component's emulated start-up time, recorded
	// on its lane from the workflow's start.
	initialize := func(lane string, initS float64) {
		if initS > 0 {
			l := run
			l.Name = lane
			l.Pad(clk.Now(), initS)
			l.Measure(l.Start, trace.KindInit, "init", "")
		}
	}
	members := cfg.members()
	sims := make([]simulation.Report, len(members))
	arrays := stagedArrays(cfg.Seed+100, cfg.ArrayBytes)

	solver := func(ctx workflow.Ctx, idx int, m member) error {
		store, err := connect()
		if err != nil {
			return err
		}
		defer store.Close()
		sim, err := simulation.New(m.name, cfg.Sim,
			simulation.WithStore(store),
			simulation.WithTimeline(tl, m.lane),
			simulation.WithSeed(m.seed),
			simulation.WithTimeScale(scale),
			simulation.WithClock(clk))
		if err != nil {
			return err
		}
		initialize(m.lane, cfg.SimInitS)
		head := m.prefix + keyHead
		for step := 1; ; step++ {
			if err := sim.RunIteration(); err != nil {
				return err
			}
			if step%cfg.WritePeriod == 0 {
				for i, a := range arrays {
					key := dataKey(m.prefix, step, i)
					if err := sim.StageWrite(key, a); err != nil {
						return fmt.Errorf("write %s: %w", key, err)
					}
				}
				if err := store.StageWrite(head, []byte(strconv.Itoa(step))); err != nil {
					return fmt.Errorf("write %s: %w", head, err)
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
		sims[idx] = sim.Report()
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
		// Per member: the head poll's read buffer, the head last
		// consumed, and the newest snapshot step removed; then the keys
		// a read period removes.
		heads := make([][]byte, len(members))
		last := make([]string, len(members))
		cleaned := make([]int, len(members))
		var stale []string
		poll := time.Duration(ensemblePollS * scale * float64(time.Second))
	iterations:
		for i := 1; i <= cfg.TrainIters; i++ {
			if _, err := tr.TrainIteration(); err != nil {
				return err
			}
			if i%cfg.ReadPeriod == 0 {
				// A lone solver's trainer skips a period with no new
				// snapshot (ErrNotStaged is "not yet"); an ensemble's
				// polls until every member's head has moved (§4.2).
				for m, mb := range members {
					for key := mb.prefix + keyHead; ; clk.Sleep(poll) {
						var err error
						heads[m], err = store.StageReadInto(key, heads[m])
						if err != nil && !errors.Is(err, datastore.ErrNotStaged) {
							return fmt.Errorf("read %s: %w", key, err)
						}
						if err == nil && string(heads[m]) != last[m] {
							break
						}
						if len(members) == 1 {
							continue iterations
						}
						if ctx.Err() != nil {
							return ctx.Err()
						}
					}
				}
				stale = stale[:0]
				for m, mb := range members {
					last[m] = string(heads[m])
					step, err := headStep(last[m])
					if err != nil {
						return fmt.Errorf("read %s: %w", mb.prefix+keyHead, err)
					}
					for a := range cfg.ArrayBytes {
						key := dataKey(mb.prefix, step, a)
						if err := tr.UpdateLoader(key); err != nil {
							return fmt.Errorf("read %s: %w", key, err)
						}
					}
					stale = staleKeys(stale, cfg, mb.prefix, cleaned[m], step)
					cleaned[m] = step
				}
				// One Clean a period, whatever the backlog: a trainer
				// that paid a round trip per skipped snapshot would fall
				// further behind its members each period. The removal
				// goes through the store, so it is no transport event.
				if err := store.Clean(stale...); err != nil {
					return fmt.Errorf("clean %s and %d more: %w", stale[0], len(stale)-1, err)
				}
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		// Steer the workflow: tell the solvers to stop.
		if err := store.StageWrite(keyStop, []byte("1")); err != nil {
			return fmt.Errorf("write %s: %w", keyStop, err)
		}
		res.Train = tr.Report()
		return nil
	}

	w := workflow.New("one-to-one", workflow.WithClock(clk))
	if err := w.Register(workflow.Component{Name: "train", Body: trainer}); err != nil {
		return OneToOneResult{}, err
	}
	for i, m := range members {
		body := func(ctx workflow.Ctx) error { return solver(ctx, i, m) }
		if err := w.Register(workflow.Component{Name: m.name, Body: body}); err != nil {
			return OneToOneResult{}, err
		}
	}
	if err := w.Launch(ctx); err != nil {
		return OneToOneResult{}, err
	}
	res.Sim, res.MakespanS = sims[0], clk.Now().Sub(run.Start).Seconds()/scale
	return res, nil
}
