package schedule

import (
	"cmp"
	"slices"
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/des"
	"simaibench/internal/faults"
	"simaibench/internal/loadgen"
)

// refScheduler is the order oracle: the scheduler as it was before the
// pending queue was indexed. Every arrival is its own closure, the
// pending queue is a plain slice, each decision scans it linearly under
// Policy.Less and removes the pick in place. It records every placement.
type refScheduler struct {
	env      *des.Env
	pol      Policy
	budget   int
	nodes    int
	inj      *faults.Injector
	occupant []*refJob
	freeUp   int
	pending  []*refJob
	left     int
	trace    []placement
}

// refJob is one job in the oracle: Policy.Less reads its Queued.
type refJob struct {
	q     Queued
	nodes []int
	hold  *des.Hold
}

func newRefScheduler(env *des.Env, c streamCase) *refScheduler {
	r := &refScheduler{env: env, pol: c.pol, budget: c.maxRestarts, nodes: c.nodes,
		occupant: make([]*refJob, c.nodes), freeUp: c.nodes}
	if r.budget == 0 {
		r.budget = DefaultMaxRestarts
	}
	r.inj = faults.New(env, cluster.Aurora(c.nodes), c.prof, faults.Hooks{Crash: r.onCrash, Repair: r.onRepair})
	r.inj.Start()
	return r
}

func (r *refScheduler) submit(jobs []loadgen.Job) error {
	for _, j := range jobs {
		r.left++
		r.env.At(j.ArriveS, func() {
			rj := &refJob{q: Queued{Job: j}}
			rj.hold = des.NewHold(r.env, func() { r.complete(rj) })
			r.pending = append(r.pending, rj)
			r.try()
		})
	}
	return nil
}

func (r *refScheduler) try() {
	now := r.env.Now()
	for len(r.pending) > 0 {
		best := 0
		for i := 1; i < len(r.pending); i++ {
			if r.pol.Less(&r.pending[i].q, &r.pending[best].q, now) {
				best = i
			}
		}
		rj := r.pending[best]
		if rj.q.Job.Nodes > r.freeUp {
			return
		}
		r.pending = append(r.pending[:best], r.pending[best+1:]...)
		rj.nodes = nil
		for n := 0; n < r.nodes && len(rj.nodes) < rj.q.Job.Nodes; n++ {
			if r.occupant[n] == nil && r.inj.NodeUp(n) {
				rj.nodes = append(rj.nodes, n)
				r.occupant[n] = rj
			}
		}
		r.freeUp -= len(rj.nodes)
		r.trace = append(r.trace, placement{rj.q.Job.ID, now, rj.nodes})
		rj.hold.After(rj.q.Job.ServiceS)
	}
}

func (r *refScheduler) release(rj *refJob, down int) {
	for _, n := range rj.nodes {
		r.occupant[n] = nil
		if n != down && r.inj.NodeUp(n) {
			r.freeUp++
		}
	}
}

func (r *refScheduler) complete(rj *refJob) {
	r.release(rj, -1)
	r.left--
	if r.left == 0 {
		r.env.Stop()
	}
	r.try()
}

func (r *refScheduler) onCrash(node int) {
	rj := r.occupant[node]
	if rj == nil {
		r.freeUp--
		return
	}
	rj.hold.Cancel()
	r.release(rj, node)
	rj.q.Restarts++
	if rj.q.Restarts > r.budget || r.budget < 0 {
		r.left--
		if r.left == 0 {
			r.env.Stop()
		}
	} else {
		r.pending = append(r.pending, rj)
	}
	r.try()
}

func (r *refScheduler) onRepair(node int) {
	if r.occupant[node] == nil {
		r.freeUp++
	}
	r.try()
}

// byStart orders a placement trace by start time, then first node: two
// placements that start together hold disjoint nodes.
func byStart(a, b placement) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	return cmp.Compare(a.nodes[0], b.nodes[0])
}

// checkOrder runs c through the scheduler and through the oracle and
// requires the same placement trace: job, start time and node set.
func checkOrder(t testing.TB, c streamCase) {
	t.Helper()
	want := func() []placement {
		env := des.NewEnv()
		r := newRefScheduler(env, c)
		submit(t, env, c, r.submit)
		env.SetGuard(des.Guard{MaxEvents: 1_000_000})
		env.Run()
		if r.left != 0 {
			t.Fatalf("oracle stopped with %d jobs left", r.left)
		}
		return r.trace
	}()
	got := runAudited(t, c).placements
	slices.SortFunc(want, byStart)
	slices.SortFunc(got, byStart)
	if !slices.EqualFunc(got, want, func(a, b placement) bool {
		return a.id == b.id && a.t == b.t && slices.Equal(a.nodes, b.nodes)
	}) {
		for i := range min(len(got), len(want)) {
			if g, w := got[i], want[i]; g.id != w.id || g.t != w.t || !slices.Equal(g.nodes, w.nodes) {
				t.Fatalf("placement %d: got job %d at %v on %v, oracle places job %d at %v on %v",
					i, g.id, g.t, g.nodes, w.id, w.t, w.nodes)
			}
		}
		t.Fatalf("%d placements, oracle makes %d", len(got), len(want))
	}
}

// TestSchedulerMatchesOrderOracle holds the scheduler's placement trace
// equal to the linear-scan oracle's for every policy, with and without
// crashes, over shuffled batches and two Submit calls that interleave
// in time.
func TestSchedulerMatchesOrderOracle(t *testing.T) {
	draws := 500
	if testing.Short() {
		draws = 50
	}
	for seed := int64(0); seed < int64(draws); seed++ {
		for _, pol := range Policies() {
			for _, faulty := range []bool{false, true} {
				func() {
					defer logCase(t, seed, pol, faulty)
					checkOrder(t, drawCase(seed, pol, faulty))
				}()
			}
		}
	}
}

// FuzzSchedulerOrder walks the oracle comparison beyond the seeded
// draws of TestSchedulerMatchesOrderOracle.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add(int64(1), uint8(0), false)
	f.Add(int64(7), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, policy uint8, faulty bool) {
		pols := Policies()
		checkOrder(t, drawCase(seed, pols[int(policy)%len(pols)], faulty))
	})
}

// TestHermodOrderChangesBetweenEvents pins why Hermod keeps the linear
// scan: a 20 s job that has waited 30 s scores 400/50 = 8 against a
// fresh 10 s job's 10, yet 10 s later they score 6.67 against 5. An
// order fixed when the fresh job arrived would place the wrong one when
// the facility frees up.
func TestHermodOrderChangesBetweenEvents(t *testing.T) {
	long, short := &Queued{Job: job(1, 0, 20, 1)}, &Queued{Job: job(2, 30, 10, 1)}
	if !Hermod().Less(long, short, 30) {
		t.Error("at t=30 the waited 20 s job (score 8) must precede the fresh 10 s job (10)")
	}
	if !Hermod().Less(short, long, 40) {
		t.Error("at t=40 the 10 s job (score 5) must precede the 20 s job (6.67)")
	}
	// A warm-up job holds the one node until t=40; the 20 s job queues
	// at 0, the 10 s job at 30.
	c := streamCase{nodes: 1, pol: Hermod(), batches: [][]loadgen.Job{{
		job(0, 0, 40, 1), long.Job, short.Job,
	}}}
	got := runAudited(t, c).placements
	want := []placement{{0, 0, []int{0}}, {2, 40, []int{0}}, {1, 50, []int{0}}}
	if !slices.EqualFunc(got, want, func(a, b placement) bool { return a.id == b.id && a.t == b.t }) {
		t.Fatalf("placements %v, want %v", got, want)
	}
	checkOrder(t, c)
}
