// Package faults is the deterministic fault-injection layer of the
// simulated-scale experiments: seeded, dist-driven node-crash timelines
// driven as ordinary events through a des.Env, plus the recovery-policy
// vocabulary (fail-stop, checkpoint/restart) the resilience scenarios
// sweep.
//
// Design rules:
//
//   - Determinism: every node draws its crashes from its own
//     math/rand stream, seeded from (Profile.Seed, node). Two runs with
//     equal profiles produce bit-identical fault timelines, and — the
//     property the optimal-checkpoint-interval sweeps rely on — the
//     crash timeline is invariant under changes to the recovery
//     configuration, so sweeping the checkpoint cadence compares
//     policies against the *same* disturbances.
//   - Nothing when healthy: a profile with crashes disabled
//     schedules zero events, so a resilient harness running a healthy
//     profile replays the exact event sequence of its fault-free
//     counterpart (pinned by the scale-out equivalence contract test).
//   - The injector owns the cluster.NodeSet: crash/repair transitions
//     flow through it, and workload-side machines read availability
//     through the accessors instead of keeping shadow state.
package faults

import (
	"math"
	"math/rand"

	"simaibench/internal/cluster"
	"simaibench/internal/des"
	"simaibench/internal/dist"
)

// Policy selects the recovery strategy of a resilient campaign.
type Policy int

// The recovery policies the resilience scenarios compare.
const (
	// FailStop restarts lost work from the beginning of the run: no
	// checkpoints, maximal wasted work — the baseline.
	FailStop Policy = iota
	// CheckpointRestart persists state through the datastore backend at
	// a configurable cadence and restarts from the last durable
	// checkpoint.
	CheckpointRestart
)

// String returns the config name.
func (p Policy) String() string {
	if p == CheckpointRestart {
		return "checkpoint-restart"
	}
	return "fail-stop"
}

// Recovery configures how a resilient campaign reacts to disturbances.
type Recovery struct {
	// Policy selects fail-stop or checkpoint/restart.
	Policy Policy
	// CkptIntervalS is the checkpoint cadence in virtual seconds
	// (checkpoint/restart only; <= 0 disables checkpointing, degrading
	// the policy to fail-stop).
	CkptIntervalS float64
	// CkptSizeMB sizes one checkpoint write/read per rank.
	CkptSizeMB float64
}

// Profile describes the disturbance statistics of one campaign. The
// zero value injects nothing.
type Profile struct {
	// Seed roots every disturbance stream; equal seeds give equal
	// timelines.
	Seed int64
	// MTBFS is the per-node mean time between crashes (exponential
	// inter-arrivals). 0, negative or +Inf disables crashes.
	MTBFS float64
	// RepairS is the node repair/reboot time after a crash.
	RepairS float64
	// Until bounds the crash streams: no new crash begins at or after
	// this virtual time (0 = unbounded). The repair of a crash that
	// began before the bound still completes, so a bounded campaign
	// ends with every node up. Bounding keeps the last event of a
	// faulty run near the workload's own end, which keeps delivered-
	// throughput denominators comparable to a healthy run.
	Until float64
}

// CrashesEnabled reports whether the profile injects node crashes.
func (p Profile) CrashesEnabled() bool { return p.MTBFS > 0 && !math.IsInf(p.MTBFS, 1) }

// Hooks are the workload-side callbacks an Injector drives. Any field
// may be nil. Hooks run flat on the scheduler goroutine at the virtual
// time of the transition, after the injector's NodeSet has been
// updated.
type Hooks struct {
	// Crash fires when a node goes down.
	Crash func(node int)
	// Repair fires when a node comes back up.
	Repair func(node int)
}

// Injector drives a Profile's crash timelines against a des.Env.
// Construct with New, wire the workload through Hooks and the
// accessors, then Start before running the environment.
type Injector struct {
	env   *des.Env
	nodes *cluster.NodeSet
	prof  Profile
	hooks Hooks
}

// New builds an injector for spec's nodes. The injector owns the
// returned NodeSet view (see NodeSet); it schedules nothing until
// Start.
func New(env *des.Env, spec cluster.Spec, prof Profile, hooks Hooks) *Injector {
	return &Injector{env: env, nodes: cluster.NewNodeSet(spec), prof: prof, hooks: hooks}
}

// nodeRNG returns the seeded crash stream of one node; streams are
// independent across nodes. (The constant terms are what the seed
// formula always added for the crash stream: changing them moves every
// pinned crash timeline.)
func (in *Injector) nodeRNG(node int64) *rand.Rand {
	return rand.New(rand.NewSource(in.prof.Seed*1000003 + 7368787 + node*1000000007 + 1))
}

// scheduleStart arms a crash after d, honouring the Until bound: a start
// that would land at or past the bound is dropped (and with it the rest
// of that stream — every later draw would land past the bound too).
func (in *Injector) scheduleStart(d float64, fn func()) {
	if in.prof.Until > 0 && in.env.Now()+d >= in.prof.Until {
		return
	}
	in.env.After(d, fn)
}

// Start schedules every node's first crash. A healthy profile schedules
// nothing at all.
func (in *Injector) Start() {
	if in.prof.CrashesEnabled() {
		mtbf := dist.Exponential{MeanV: in.prof.MTBFS}
		for n := 0; n < in.nodes.Nodes(); n++ {
			n := n
			rng := in.nodeRNG(int64(n))
			var crash func()
			crash = func() {
				if !in.nodes.Fail(n) {
					// Already down (cannot happen with crash/repair on one
					// stream, but stay safe): draw again.
					in.scheduleStart(mtbf.Sample(rng), crash)
					return
				}
				if in.hooks.Crash != nil {
					in.hooks.Crash(n)
				}
				in.env.After(in.prof.RepairS, func() {
					in.nodes.Restore(n)
					if in.hooks.Repair != nil {
						in.hooks.Repair(n)
					}
					in.scheduleStart(mtbf.Sample(rng), crash)
				})
			}
			in.scheduleStart(mtbf.Sample(rng), crash)
		}
	}
}

// NodeSet exposes the injector's availability state: workload machines
// read placement decisions from it (and must not mutate it).
func (in *Injector) NodeSet() *cluster.NodeSet { return in.nodes }

// NodeUp reports whether node is currently available.
func (in *Injector) NodeUp(node int) bool { return in.nodes.Up(node) }

// Crashes reports the number of node crashes injected so far.
func (in *Injector) Crashes() int { return in.nodes.Fails() }
