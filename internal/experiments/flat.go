package experiments

import (
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/stats"
)

// Flat rank runners: the workflow components of the simulated-scale
// experiments as callback state machines on the scheduler goroutine,
// every closure built once at construction so steady-state iterations
// allocate nothing. The same components are written out a second time as
// straight-line blocking loops in the test-only oracle (oracle_test.go),
// which polls every period and runs every cell to its horizon, and the
// machines here are held bit-equal to it. stagingRank — every solver and
// trainer rank of Pattern 1, scale-out and resilience — schedules only
// the polls that do something, at bit-identical times and in the same
// relative order among ranks as a loop that polled every period
// (nextPoll says what that order rests on;
// TestPattern1MatchesProcessReference and TestScaleOutMatchesReference
// hold it against the oracle). The rule is ARCHITECTURE.md's "Run until
// the observables are decided": an event nothing reported depends on is
// not scheduled. A rank a fault can interrupt also carries a fault layer
// (rankFaults, resilience.go); a healthy rank carries none.

// xferStarter is what a rank machine needs from its transfer op: both
// the single-tenant LocalXfer and the multi-tenant SharedXfer satisfy
// it, so one state machine serves both deployment modes.
type xferStarter interface{ Start() }

// stagingRank is one staging rank: wake at a poll, transfer when a
// fresh snapshot can exist (a freshness gap has passed since the last
// transfer began — never a wait for a solver rank, whose gap is zero),
// record stats when the transfer is done, schedule the next poll that
// does anything while the check falls before the horizon.
type stagingRank struct {
	env      *des.Env
	period   float64 // poll period: a solver's write period, a trainer's read period
	fresh    float64 // freshness gap: a trainer's write period, 0 for a solver
	horizon  float64
	lastXfer float64 // when the last transfer began
	bytes    int64
	time     *stats.Welford    // optional
	tput     *stats.Throughput // optional
	samples  *[]float64        // optional per-op latency sink (scale-out p50)
	xfer     xferStarter
	wake     func()
	faults   *rankFaults // nil: nothing interrupts this rank
}

type rankConfig struct {
	backend datastore.Backend
	node    int
	sizeMB  float64
	// write makes the transfer a stage_write (a solver rank); otherwise
	// it is a stage_read.
	write bool
	// shared routes the transfer through the multi-tenant shared
	// deployment (costmodel.NewSharedLocalWrite/Read).
	shared  bool
	period  float64
	fresh   float64
	horizon float64
	bytes   int64
	time    *stats.Welford
	tput    *stats.Throughput
	samples *[]float64
	// faults, when set, attaches the fault layer; stagger phases the
	// layer's first checkpoint.
	faults  *faultState
	stagger float64
}

// initRank initializes a slab-allocated rank in place and schedules its
// first poll directly. Scheduling it at construction instead of through
// a time-zero warm-up event preserves the relative order of every rank's
// wake-ups (ranks are constructed in a fixed order either way), so event
// interleaving — and therefore every reported metric — is unchanged.
func initRank(r *stagingRank, env *des.Env, model *costmodel.Model, cfg rankConfig) {
	*r = stagingRank{
		env: env, period: cfg.period, fresh: cfg.fresh, horizon: cfg.horizon,
		lastXfer: -cfg.fresh, bytes: cfg.bytes, time: cfg.time, tput: cfg.tput, samples: cfg.samples,
	}
	r.wake = func() {
		now := r.env.Now()
		if now-r.lastXfer < r.fresh {
			// No new snapshot staged yet. nextPoll lands on such a poll
			// only once the horizon is behind it: the rank is done.
			return
		}
		if r.faults != nil {
			r.faults.started()
		}
		r.lastXfer = now
		r.xfer.Start()
	}
	done := func() {
		if r.faults != nil && !r.faults.landed() {
			return
		}
		now := r.env.Now()
		d := now - r.lastXfer
		if r.time != nil {
			r.time.Add(d)
		}
		if r.tput != nil {
			r.tput.Add(r.bytes, d)
		}
		if r.samples != nil {
			*r.samples = append(*r.samples, d)
		}
		r.arm()
	}
	switch {
	case cfg.shared && cfg.write:
		r.xfer = model.NewSharedLocalWrite(cfg.backend, cfg.node, cfg.sizeMB, done)
	case cfg.shared:
		r.xfer = model.NewSharedLocalRead(cfg.backend, cfg.node, cfg.sizeMB, done)
	case cfg.write:
		r.xfer = model.NewLocalWrite(cfg.backend, cfg.node, cfg.sizeMB, done)
	default:
		r.xfer = model.NewLocalRead(cfg.backend, cfg.node, cfg.sizeMB, done)
	}
	if cfg.faults != nil {
		cfg.faults.attach(r, cfg) // arms the first poll through its Hold
	} else {
		r.arm()
	}
}

// arm schedules the rank's next poll unless the horizon has passed.
func (r *stagingRank) arm() {
	now := r.env.Now()
	if now >= r.horizon {
		return
	}
	if r.faults != nil {
		r.faults.wake.At(r.nextPoll(now))
	} else {
		r.env.At(r.nextPoll(now), r.wake)
	}
}

// nextPoll returns the time of the first poll after now that does
// anything: it transfers (a freshness gap has passed since lastXfer) or
// it is the poll that finds the horizon behind it and stops the rank. The
// polls in between would each read the clock, compare and reschedule
// themselves, so they are not scheduled. The poll clock advances by the
// same repeated addition those polls would have performed — After(d) is
// At(now+d) — so the wake-up lands on the bit-identical float. With a
// zero freshness gap the first step is always the answer: a solver
// rank's nextPoll is After(period).
//
// Order among simultaneous wake-ups: ranks that left the same instant on
// the same poll clock (the bulk-synchronous case — every tie these
// workloads produce by construction) are scheduled here in the order
// their per-poll chains would have carried forward, so they fire in the
// same order. The wake-up does get its sequence number earlier than the
// last skipped poll would have issued it, so a bit-exact tie with an
// event of a rank on a different clock, scheduled in between, would
// resolve the other way; the oracle comparisons and the goldens are what
// say no shipped number sees one (TestScaleOutMatchesReference names the
// one off-default cell that does).
func (r *stagingRank) nextPoll(now float64) float64 {
	t := now + r.period
	for t-r.lastXfer < r.fresh && t < r.horizon {
		t += r.period
	}
	return t
}
