package experiments

import (
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/stats"
)

// Flat rank runners: the workflow components of the simulated-scale
// experiments as callback state machines on the scheduler goroutine.
// Every rank of a kind — all the solvers, or all the trainers, of a run —
// is a row of one rankTable, which is the des.Handler of every rank's
// wake-up and of every transfer it completes, so a cell builds a few
// slices per table and steady-state iterations allocate nothing. The same
// components are written out a second time as straight-line blocking
// loops in the test-only oracle (oracle_test.go), which polls every
// period and runs every cell to its horizon, and the machines here are
// held bit-equal to it. A rank — every solver and trainer rank of Pattern
// 1, scale-out and resilience — schedules only the polls that do
// something, at bit-identical times and in the same relative order among
// ranks as a loop that polled every period (nextPoll says what that order
// rests on; TestPattern1MatchesProcessReference and
// TestScaleOutMatchesReference hold it against the oracle). The rule is
// ARCHITECTURE.md's "Run until the observables are decided": an event
// nothing reported depends on is not scheduled. Ranks a fault can
// interrupt also carry a fault layer per row (rankFaults, resilience.go);
// a healthy table carries none.

// rankTable is one kind of staging rank, row by row: wake at a poll,
// transfer when a fresh snapshot can exist (a freshness gap has passed
// since the row's last transfer began — never a wait for a solver rank,
// whose gap is zero), record stats when the transfer is done, schedule
// the next poll that does anything while the check falls before the
// horizon. Rows sit perNode to a node, from node 0 up.
type rankTable struct {
	env     *des.Env
	period  float64 // poll period: a solver's write period, a trainer's read period
	fresh   float64 // freshness gap: a trainer's write period, 0 for a solver
	horizon float64
	bytes   int64
	perNode int
	time    *stats.Welford    // optional
	tput    *stats.Throughput // optional
	samples *[]float64        // optional per-op latency sink (scale-out p50)
	xfer    *costmodel.XferTable
	// lastXfer[row] is when the row's last transfer began.
	lastXfer []float64
	faults   []rankFaults // per row; nil: nothing interrupts these ranks
}

type rankConfig struct {
	backend datastore.Backend
	sizeMB  float64
	// write makes the transfer a stage_write (a solver rank); otherwise
	// it is a stage_read.
	write bool
	// shared routes the transfer through the multi-tenant shared
	// deployment.
	shared  bool
	period  float64
	fresh   float64
	horizon float64
	bytes   int64
	time    *stats.Welford
	tput    *stats.Throughput
	samples *[]float64
	// faults, when set, gives every row the fault layer.
	faults *faultState
}

// newRankTable builds n ranks, perNode to a node, and their transfers.
// It schedules nothing: start arms each row.
func newRankTable(env *des.Env, model *costmodel.Model, cfg rankConfig, n, perNode int) *rankTable {
	t := &rankTable{
		env: env, period: cfg.period, fresh: cfg.fresh, horizon: cfg.horizon, bytes: cfg.bytes,
		perNode: perNode, time: cfg.time, tput: cfg.tput, samples: cfg.samples,
		lastXfer: make([]float64, n),
	}
	for i := range t.lastXfer {
		t.lastXfer[i] = -cfg.fresh
	}
	t.xfer = model.NewXferTable(cfg.backend, n, perNode, cfg.sizeMB, !cfg.write, cfg.shared, t)
	if cfg.faults != nil {
		cfg.faults.attach(t, cfg.write)
	}
	return t
}

// start schedules row's first poll (and, through its fault layer, its
// first checkpoint). Scheduling it at construction instead of through a
// time-zero warm-up event preserves the relative order of every rank's
// wake-ups (ranks are started in a fixed order either way), so event
// interleaving — and therefore every reported metric — is unchanged.
func (t *rankTable) start(row int32) {
	if t.faults != nil {
		t.faults[row].start()
	} else {
		t.arm(row)
	}
}

// Fire is row's wake-up when row is negative (^row names the rank) and
// the completion of its transfer otherwise.
func (t *rankTable) Fire(row int32) {
	if row < 0 {
		t.wake(^row)
	} else {
		t.landed(row)
	}
}

func (t *rankTable) wake(row int32) {
	now := t.env.Now()
	if now-t.lastXfer[row] < t.fresh {
		// No new snapshot staged yet. nextPoll lands on such a poll only
		// once the horizon is behind it: the rank is done.
		return
	}
	if t.faults != nil {
		t.faults[row].started()
	}
	t.lastXfer[row] = now
	t.xfer.Start(row)
}

func (t *rankTable) landed(row int32) {
	if t.faults != nil && !t.faults[row].landed() {
		return
	}
	d := t.env.Now() - t.lastXfer[row]
	if t.time != nil {
		t.time.Add(d)
	}
	if t.tput != nil {
		t.tput.Add(t.bytes, d)
	}
	if t.samples != nil {
		*t.samples = append(*t.samples, d)
	}
	t.arm(row)
}

// arm schedules row's next poll unless the horizon has passed.
func (t *rankTable) arm(row int32) {
	now := t.env.Now()
	if now >= t.horizon {
		return
	}
	if t.faults != nil {
		t.faults[row].wake.At(t.nextPoll(row, now))
	} else {
		t.env.AtRow(t.nextPoll(row, now), t, ^row)
	}
}

// nextPoll returns the time of row's first poll after now that does
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
func (t *rankTable) nextPoll(row int32, now float64) float64 {
	at := now + t.period
	for at-t.lastXfer[row] < t.fresh && at < t.horizon {
		at += t.period
	}
	return at
}
