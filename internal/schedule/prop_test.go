package schedule

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/des"
	"simaibench/internal/faults"
	"simaibench/internal/loadgen"
)

// streamCase is one small seeded campaign: a facility of a few nodes,
// one or two job batches (the second submitted mid-run, its arrivals
// interleaved with the first's), a policy, an optional crash profile
// and a restart budget. Arrival and service times sit on a coarse grid
// half the time, so simultaneous arrivals, completions and equal policy
// keys (broken only by Job.ID) are common.
type streamCase struct {
	nodes       int
	batches     [][]loadgen.Job
	second      float64 // virtual time the second batch is submitted at
	pol         Policy
	prof        faults.Profile
	maxRestarts int
}

// drawCase draws a streamCase from seed. The batches are shuffled, so
// Submit never sees its jobs in arrival order.
func drawCase(seed int64, pol Policy, faulty bool) streamCase {
	r := rand.New(rand.NewSource(seed))
	c := streamCase{nodes: 1 + r.Intn(8), pol: pol}
	grid := r.Intn(2) == 0
	at := func(x float64) float64 {
		if grid {
			return math.Round(x)
		}
		return x
	}
	id := 0
	batch := func(n int, from float64) []loadgen.Job {
		jobs := make([]loadgen.Job, n)
		t := from
		for i := range jobs {
			t += r.ExpFloat64() * 4
			service := max(at(1+r.ExpFloat64()*10), 1)
			jobs[i] = loadgen.Job{
				ID: id, Tenant: r.Intn(3), Class: "t",
				ArriveS: at(t), Nodes: 1 + r.Intn(c.nodes), ServiceS: service,
				DeadlineS: at(t) + at(r.Float64()*3*service),
			}
			id++
		}
		r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		return jobs
	}
	c.batches = [][]loadgen.Job{batch(1+r.Intn(16), 0)}
	if r.Intn(2) == 0 {
		// No later than the first batch's last arrival: once every
		// submitted job has retired the run stops (OnComplete).
		last := 0.0
		for _, j := range c.batches[0] {
			last = max(last, j.ArriveS)
		}
		c.second = at(r.Float64() * last)
		c.batches = append(c.batches, batch(1+r.Intn(12), c.second))
	}
	if faulty {
		c.prof = faults.Profile{Seed: r.Int63n(1 << 20), MTBFS: 40 + r.Float64()*200, RepairS: 1 + r.Float64()*20}
		c.maxRestarts = []int{0, -1, 1, 2}[r.Intn(4)]
	}
	return c
}

// jobs returns every job of the case.
func (c streamCase) jobs() []loadgen.Job { return slices.Concat(c.batches...) }

// start builds the scheduler on env and submits the case's batches:
// the first now, the second from an event at c.second.
func (c streamCase) start(t testing.TB, env *des.Env) *Scheduler {
	t.Helper()
	s, err := New(env, cluster.Aurora(c.nodes), Config{
		Policy: c.pol, Faults: c.prof, MaxRestarts: c.maxRestarts, OnComplete: env.Stop,
	})
	if err != nil {
		t.Fatal(err)
	}
	submit(t, env, c, s.Submit)
	return s
}

// submit hands the case's batches to a Submit function, the second one
// mid-run.
func submit(t testing.TB, env *des.Env, c streamCase, fn func([]loadgen.Job) error) {
	t.Helper()
	if err := fn(c.batches[0]); err != nil {
		t.Fatal(err)
	}
	if len(c.batches) > 1 {
		env.At(c.second, func() {
			if err := fn(c.batches[1]); err != nil {
				t.Error(err)
			}
		})
	}
}

// stepInstants runs env one virtual instant at a time until done,
// calling observe after each instant.
func stepInstants(t testing.TB, env *des.Env, done func() bool, observe func()) {
	t.Helper()
	env.SetGuard(des.Guard{MaxEvents: 1_000_000})
	for !done() {
		next, ok := env.NextT()
		if !ok {
			t.Fatal("event queue drained with jobs unfinished")
		}
		env.RunUntil(next)
		if err := env.Err(); err != nil {
			t.Fatal(err)
		}
		observe()
	}
}

// audit checks a scheduler's invariants after every virtual instant and
// integrates its node states over time.
type audit struct {
	s                  *Scheduler
	budget             int // effective restart budget
	seen               map[int]*Queued
	last               float64
	occ, free, down    int     // node counts since last
	occS, freeS, downS float64 // their integrals up to last
	placements         []placement
	placedAt           map[int]float64 // job id -> start of the placement last recorded
}

// placement is one entry of a placement trace: a job, when it started
// and on which nodes.
type placement struct {
	id    int
	t     float64
	nodes []int
}

func newAudit(s *Scheduler) *audit {
	return &audit{
		s: s, budget: max(s.cfg.MaxRestarts, 0), seen: map[int]*Queued{},
		free: s.spec.Nodes, placedAt: map[int]float64{},
	}
}

// observe runs after each instant: no node is double-booked or held
// while down, the free count matches the nodes, no queued or running
// job is past its restart budget, and new placements join the trace.
func (a *audit) observe(t testing.TB) {
	t.Helper()
	s, now := a.s, a.s.env.Now()
	dt := now - a.last
	a.occS += float64(a.occ) * dt
	a.freeS += float64(a.free) * dt
	a.downS += float64(a.down) * dt
	a.last = now
	a.occ, a.free, a.down = 0, 0, 0
	held := 0
	for n, q := range s.occupant {
		up := s.inj.NodeUp(n)
		switch {
		case q != nil:
			a.occ++
			if !up {
				t.Fatalf("t=%v: node %d is down but held by job %d", now, n, q.Job.ID)
			}
			if q.nodes[0] != n {
				continue // count each running job once, at its first node
			}
			held += len(q.nodes)
			if len(q.nodes) != q.Job.Nodes {
				t.Fatalf("t=%v: job %d holds %d nodes, asked for %d", now, q.Job.ID, len(q.nodes), q.Job.Nodes)
			}
			for _, m := range q.nodes {
				if s.occupant[m] != q {
					t.Fatalf("t=%v: job %d lists node %d, which job %v occupies", now, q.Job.ID, m, s.occupant[m])
				}
			}
			a.see(t, q)
			if start, ok := a.placedAt[q.Job.ID]; !ok || start != q.startS {
				a.placedAt[q.Job.ID] = q.startS
				a.placements = append(a.placements, placement{q.Job.ID, q.startS, slices.Clone(q.nodes)})
			}
		case up:
			a.free++
		default:
			a.down++
		}
	}
	if held != a.occ {
		t.Fatalf("t=%v: running jobs list %d nodes, %d are occupied: a node is double-booked", now, held, a.occ)
	}
	if a.free != s.freeUp {
		t.Fatalf("t=%v: %d nodes free and up, scheduler counts %d", now, a.free, s.freeUp)
	}
	for _, q := range s.pending {
		a.see(t, q)
	}
}

func (a *audit) see(t testing.TB, q *Queued) {
	t.Helper()
	if q.Restarts > a.budget {
		t.Fatalf("job %d queued or running after %d restarts, budget %d", q.Job.ID, q.Restarts, a.budget)
	}
	a.seen[q.Job.ID] = q
}

// finish checks the run's outcome against the jobs it was given: every
// job completed or was dropped (once past its budget), and node-seconds
// are conserved: the completed jobs' footprints, the wasted
// node-seconds and the integrated idle and down node-seconds add up to
// the facility's nodes × elapsed time, and busy node-seconds equal the
// integrated occupancy.
func (a *audit) finish(t testing.TB, jobs []loadgen.Job) {
	t.Helper()
	m := a.s.Metrics()
	if len(a.seen) != len(jobs) {
		t.Fatalf("saw %d of %d jobs queued or running", len(a.seen), len(jobs))
	}
	completed, dropped, restarts, useful := 0, 0, 0, 0.0
	for _, q := range a.seen {
		restarts += q.Restarts
		switch {
		case q.Restarts > a.budget+1:
			t.Fatalf("job %d restarted %d times, budget %d", q.Job.ID, q.Restarts, a.budget)
		case q.Restarts > a.budget:
			dropped++
		default:
			completed++
			useful += float64(q.Job.Nodes) * q.Job.ServiceS
		}
	}
	if m.Completed != completed || m.Dropped != dropped || m.Restarts != restarts {
		t.Fatalf("metrics count %d completed, %d dropped, %d restarts; jobs show %d, %d, %d",
			m.Completed, m.Dropped, m.Restarts, completed, dropped, restarts)
	}
	if m.Completed+m.Dropped != len(jobs) {
		t.Fatalf("%d completed + %d dropped != %d jobs", m.Completed, m.Dropped, len(jobs))
	}
	total := float64(a.s.spec.Nodes) * a.last
	tol := 1e-9 * max(total, 1)
	if m.WastedNodeS < 0 || (a.s.cfg.Faults == faults.Profile{}) && m.WastedNodeS != 0 {
		t.Fatalf("wasted node-seconds %v", m.WastedNodeS)
	}
	if math.Abs(m.BusyNodeS-a.occS) > tol {
		t.Fatalf("busy node-seconds %v, integrated occupancy %v", m.BusyNodeS, a.occS)
	}
	if sum := useful + m.WastedNodeS + a.freeS + a.downS; math.Abs(sum-total) > tol {
		t.Fatalf("useful %v + wasted %v + idle %v + down %v = %v, want nodes × time = %v",
			useful, m.WastedNodeS, a.freeS, a.downS, sum, total)
	}
}

// runAudited runs one case to completion under the audit.
func runAudited(t testing.TB, c streamCase) *audit {
	t.Helper()
	env := des.NewEnv()
	s := c.start(t, env)
	a := newAudit(s)
	stepInstants(t, env, s.Done, func() { a.observe(t) })
	a.finish(t, c.jobs())
	return a
}

// TestSchedulerInvariants drives seeded small streams through every
// policy, with and without node crashes, and checks the invariants
// after every virtual instant: no node double-booked, every job
// completed or dropped, node-seconds conserved, restart budget kept.
func TestSchedulerInvariants(t *testing.T) {
	draws := 1000
	if testing.Short() {
		draws = 100
	}
	crashed := 0
	for seed := int64(0); seed < int64(draws); seed++ {
		for _, pol := range Policies() {
			for _, faulty := range []bool{false, true} {
				func() {
					defer logCase(t, seed, pol, faulty)
					crashed += runAudited(t, drawCase(seed, pol, faulty)).s.Metrics().Restarts
				}()
			}
		}
	}
	if crashed == 0 {
		t.Fatal("no draw evicted a job: the crash profiles are too mild to test the restart path")
	}
}

// logCase names the failing draw; defer it around a case so a Fatal
// deep in a check still reports which one.
func logCase(t testing.TB, seed int64, pol Policy, faulty bool) {
	if t.Failed() {
		t.Logf("failing case: drawCase(%d, %s, %v)", seed, pol.Name(), faulty)
	}
}
