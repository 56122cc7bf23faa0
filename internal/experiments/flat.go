package experiments

import (
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/stats"
)

// Flat rank runners: the workflow components of the simulated-scale
// experiments as callback state machines. Each rank used to be a spawned
// goroutine process (one goroutine + one channel handoff pair per
// event); these structs run the same loops flat on the scheduler
// goroutine, building every closure once at construction so steady-state
// iterations allocate nothing. simWriter, fig5Pair and fig6Trainer are
// exact CPS transforms of the old process bodies — same schedule calls
// in the same order — so event order and reported metrics are
// bit-identical. aiReader promises less and delivers the same: it
// schedules the same *effective* events (a poll that reads, or the last
// poll before the horizon) at bit-identical times with the same relative
// order among ranks, and never schedules the idle polls in between (see
// nextPoll for what "same order" rests on).
// TestPattern1MatchesProcessReference holds that promise: its process
// reference still polls every read period.
//
// The rule both departures follow is in ARCHITECTURE.md ("Run until the
// observables are decided"): an event nothing reported depends on is not
// scheduled.

// xferStarter is what a rank machine needs from its transfer op: both
// the single-tenant LocalXfer and the multi-tenant SharedXfer satisfy
// it, so one state machine serves both deployment modes.
type xferStarter interface{ Start() }

// simWriter replays the simulation rank: sleep one write period, stage a
// snapshot locally, record stats (when sinks are set), repeat while the
// wake-up check falls before the horizon.
type simWriter struct {
	env     *des.Env
	period  float64
	horizon float64
	start   float64
	bytes   int64
	time    *stats.Welford    // optional
	tput    *stats.Throughput // optional
	samples *[]float64        // optional per-op latency sink (scale-out p50)
	xfer    xferStarter
	wake    func()
}

// newSimWriter builds the rank and schedules its first activation; the
// sweeps that build hundreds of ranks preallocate them in a slab and
// call initSimWriter directly.
func newSimWriter(env *des.Env, model *costmodel.Model, cfg simWriterConfig) *simWriter {
	w := &simWriter{}
	initSimWriter(w, env, model, cfg)
	return w
}

// initSimWriter initializes a (possibly slab-allocated) rank in place
// and schedules its first wake-up directly. Scheduling the first
// After(period) at construction instead of through a time-zero warm-up
// event preserves the relative order of every rank's wake-ups (ranks
// are constructed in a fixed order either way), so event interleaving —
// and therefore every reported metric — is unchanged.
func initSimWriter(w *simWriter, env *des.Env, model *costmodel.Model, cfg simWriterConfig) {
	*w = simWriter{
		env:     env,
		period:  cfg.period,
		horizon: cfg.horizon,
		bytes:   cfg.bytes,
		time:    cfg.time,
		tput:    cfg.tput,
		samples: cfg.samples,
	}
	w.wake = func() {
		w.start = w.env.Now()
		w.xfer.Start()
	}
	done := func() {
		now := w.env.Now()
		d := now - w.start
		if w.time != nil {
			w.time.Add(d)
		}
		if w.tput != nil {
			w.tput.Add(w.bytes, d)
		}
		if w.samples != nil {
			*w.samples = append(*w.samples, d)
		}
		if now < w.horizon {
			w.env.After(w.period, w.wake)
		}
	}
	if cfg.shared {
		w.xfer = model.NewSharedLocalWrite(cfg.backend, cfg.node, cfg.sizeMB, done)
	} else {
		w.xfer = model.NewLocalWrite(cfg.backend, cfg.node, cfg.sizeMB, done)
	}
	if env.Now() < w.horizon {
		env.After(w.period, w.wake)
	}
}

type simWriterConfig struct {
	backend datastore.Backend
	node    int
	sizeMB  float64
	period  float64
	horizon float64
	bytes   int64
	time    *stats.Welford
	tput    *stats.Throughput
	samples *[]float64
	// shared routes the write through the multi-tenant shared
	// deployment (costmodel.NewSharedLocalWrite).
	shared bool
}

// aiReader replays the trainer rank of Pattern 1: poll every read
// period, read only when a fresh snapshot exists (once per write
// period), record stats. Polls that would find nothing are skipped, not
// executed (nextPoll).
type aiReader struct {
	env         *des.Env
	readPeriod  float64
	writePeriod float64
	horizon     float64
	lastRead    float64
	start       float64
	bytes       int64
	time        *stats.Welford    // optional
	tput        *stats.Throughput // optional
	xfer        xferStarter
	wake        func()
}

type aiReaderConfig struct {
	backend     datastore.Backend
	node        int
	sizeMB      float64
	readPeriod  float64
	writePeriod float64
	horizon     float64
	bytes       int64
	time        *stats.Welford
	tput        *stats.Throughput
	// shared routes the read through the multi-tenant shared deployment
	// (costmodel.NewSharedLocalRead).
	shared bool
}

func newAIReader(env *des.Env, model *costmodel.Model, cfg aiReaderConfig) *aiReader {
	r := &aiReader{}
	initAIReader(r, env, model, cfg)
	return r
}

// initAIReader initializes a (possibly slab-allocated) trainer rank in
// place, scheduling its first poll directly like initSimWriter.
func initAIReader(r *aiReader, env *des.Env, model *costmodel.Model, cfg aiReaderConfig) {
	*r = aiReader{
		env: env, readPeriod: cfg.readPeriod, writePeriod: cfg.writePeriod, horizon: cfg.horizon,
		lastRead: -cfg.writePeriod, bytes: cfg.bytes, time: cfg.time, tput: cfg.tput,
	}
	r.wake = func() {
		now := r.env.Now()
		if now-r.lastRead < r.writePeriod {
			// No new snapshot staged yet. nextPoll lands on such a poll
			// only once the horizon is behind it: the rank is done.
			return
		}
		r.lastRead = now
		r.start = now
		r.xfer.Start()
	}
	done := func() {
		now := r.env.Now()
		d := now - r.start
		if r.time != nil {
			r.time.Add(d)
		}
		if r.tput != nil {
			r.tput.Add(r.bytes, d)
		}
		if now < r.horizon {
			r.env.At(r.nextPoll(now), r.wake)
		}
	}
	if cfg.shared {
		r.xfer = model.NewSharedLocalRead(cfg.backend, cfg.node, cfg.sizeMB, done)
	} else {
		r.xfer = model.NewLocalRead(cfg.backend, cfg.node, cfg.sizeMB, done)
	}
	if env.Now() < r.horizon {
		env.At(r.nextPoll(env.Now()), r.wake)
	}
}

// nextPoll returns the time of the first poll after now that does
// anything: it reads (a write period has passed since lastRead) or it is
// the poll that finds the horizon behind it and stops the rank. The polls
// in between would each read the clock, compare and reschedule
// themselves, so they are not scheduled. The poll clock advances by the
// same repeated addition those polls would have performed — After(d) is
// At(now+d) — so the wake-up lands on the bit-identical float.
//
// Order among simultaneous wake-ups: ranks that left the same instant on
// the same poll clock (the bulk-synchronous case — every tie these
// workloads produce by construction) are scheduled here in the order
// their per-poll chains would have carried forward, so they fire in the
// same order. The wake-up does get its sequence number earlier than the
// last skipped poll would have issued it, so a bit-exact tie with an
// event of a rank on a different clock, scheduled in between, would
// resolve the other way; the process-reference tests and the goldens
// are what say no reported number sees one.
func (r *aiReader) nextPoll(now float64) float64 {
	t := now + r.readPeriod
	for t-r.lastRead < r.writePeriod && t < r.horizon {
		t += r.readPeriod
	}
	return t
}

// fig5Pair replays the 2-node point-to-point loop: a local write on node
// 0 followed by a non-local read, a fixed number of times.
type fig5Pair struct {
	env        *des.Env
	transfers  int
	i          int
	bytes      int64
	writeStart float64
	readStart  float64
	writeTput  *stats.Throughput
	readTput   *stats.Throughput
	write      *costmodel.LocalXfer
	read       *costmodel.RemoteXfer
	beginWrite func()
}

func newFig5Pair(env *des.Env, model *costmodel.Model, backend datastore.Backend, sizeMB float64,
	transfers int, bytes int64, writeTput, readTput *stats.Throughput) *fig5Pair {
	p := &fig5Pair{
		env: env, transfers: transfers, bytes: bytes,
		writeTput: writeTput, readTput: readTput,
	}
	p.beginWrite = func() {
		p.writeStart = p.env.Now()
		p.write.Start()
	}
	p.write = model.NewLocalWrite(backend, 0, sizeMB, func() {
		p.writeTput.Add(p.bytes, p.env.Now()-p.writeStart)
		p.readStart = p.env.Now()
		p.read.Start()
	})
	p.read = model.NewRemoteRead(backend, sizeMB, func() {
		p.readTput.Add(p.bytes, p.env.Now()-p.readStart)
		p.i++
		if p.i < p.transfers {
			p.beginWrite()
		}
	})
	env.At(env.Now(), func() {
		if p.transfers > 0 {
			p.beginWrite()
		}
	})
	return p
}

// fig6Trainer replays the many-to-one trainer: compute for a read
// period, then a blocking ensemble read of the whole ensemble, tracking
// per-period progress so exec/iter stays correct when a slow backend
// does not finish within the horizon. Its last period stops the
// environment: it is the only rank of its harness that reports anything.
type fig6Trainer struct {
	env              *des.Env
	periods          int
	i                int
	sleepS           float64
	fetchStart       float64
	fetchTime        *stats.Welford
	lastPeriodEnd    *float64
	completedPeriods *int
	fetch            *costmodel.EnsembleFetch
	wake             func()
}

type fig6TrainerConfig struct {
	backend          datastore.Backend
	nodes            int
	sizeMB           float64
	periods          int
	sleepS           float64
	fetchTime        *stats.Welford
	lastPeriodEnd    *float64
	completedPeriods *int
}

func newFig6Trainer(env *des.Env, model *costmodel.Model, cfg fig6TrainerConfig) *fig6Trainer {
	t := &fig6Trainer{
		env: env, periods: cfg.periods, sleepS: cfg.sleepS,
		fetchTime: cfg.fetchTime, lastPeriodEnd: cfg.lastPeriodEnd, completedPeriods: cfg.completedPeriods,
	}
	t.wake = func() {
		t.fetchStart = t.env.Now()
		t.fetch.Start()
	}
	t.fetch = model.NewEnsembleFetch(cfg.backend, cfg.nodes, cfg.sizeMB, func() {
		now := t.env.Now()
		t.fetchTime.Add(now - t.fetchStart)
		*t.lastPeriodEnd = now
		*t.completedPeriods++
		t.i++
		if t.i < t.periods {
			t.env.After(t.sleepS, t.wake)
		} else {
			// Everything Fig 6 reports was final three lines up, and the
			// writers still running record nothing: end the run here
			// instead of at the horizon cap.
			t.env.Stop()
		}
	})
	env.At(env.Now(), func() {
		if t.periods > 0 {
			t.env.After(t.sleepS, t.wake)
		}
	})
	return t
}
