package schedule

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"simaibench/internal/cluster"
	"simaibench/internal/des"
	"simaibench/internal/faults"
	"simaibench/internal/loadgen"
	"simaibench/internal/stats"
)

// DefaultMaxRestarts is the per-job restart budget applied when
// Config.MaxRestarts is zero: a job evicted by node crashes more than
// this many times is dropped instead of re-queued, so a crash-looping
// job cannot pin the facility forever (the run-guardrail discipline of
// the sweep layer, applied per job).
const DefaultMaxRestarts = 16

// Queued is one job's scheduler-side state: the immutable workload
// description plus the mutable placement bookkeeping. Policies read
// the exported fields from Less; everything else is owned by the
// Scheduler.
type Queued struct {
	// Job is the workload description from the load generator.
	Job loadgen.Job
	// Restarts counts crash evictions suffered so far; it is compared
	// against the per-job restart budget.
	Restarts int

	firstStartS float64 // first placement time, -1 while never placed
	startS      float64 // current placement time
	nodes       []int   // currently held node indices; capacity Job.Nodes
}

// Config parameterizes a Scheduler run.
type Config struct {
	// Policy orders the pending queue; nil defaults to FIFO.
	Policy Policy
	// Faults is the disturbance profile driven against the facility;
	// the zero value injects nothing and costs nothing.
	Faults faults.Profile
	// MaxRestarts is the per-job crash-eviction budget: 0 means
	// DefaultMaxRestarts, negative means drop on the first eviction.
	MaxRestarts int
	// OnComplete fires when every submitted job has completed or been
	// dropped. A faulty campaign sets this to env.Stop — the injector's
	// disturbance streams never drain on their own.
	OnComplete func()
}

// Scheduler is the facility-global scheduler: it owns the free/busy
// state of a cluster partition (availability delegated to a
// faults.Injector and its cluster.NodeSet), a pending queue ordered by
// a pluggable Policy, and the DES events that move jobs through
// arrival → placement → completion, with crash evictions and repairs
// interleaved by the injector. All state is mutated only from the
// des.Env scheduler goroutine.
type Scheduler struct {
	env  *des.Env
	spec cluster.Spec
	cfg  Config
	inj  *faults.Injector

	occupant []*Queued   // node index -> running job, nil when free
	holds    []*des.Hold // node index -> completion of the job placed from it
	freeUp   int         // nodes both up and unoccupied

	pending   []*Queued // a binary heap under Policy.Less when ordered
	ordered   bool      // the policy's order does not depend on now
	submitted int
	finished  int

	m Metrics
}

// New builds a scheduler over spec's nodes, constructing (and
// starting) the fault injector for cfg.Faults. Jobs enter via Submit;
// the caller then runs the environment.
func New(env *des.Env, spec cluster.Spec, cfg Config) (*Scheduler, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = FIFO()
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = DefaultMaxRestarts
	}
	s := &Scheduler{
		env:      env,
		spec:     spec,
		cfg:      cfg,
		occupant: make([]*Queued, spec.Nodes),
		holds:    make([]*des.Hold, spec.Nodes),
		freeUp:   spec.Nodes,
	}
	switch cfg.Policy.(type) {
	case fifoPolicy, edfPolicy, srptPolicy:
		s.ordered = true
	}
	s.m.tenant = map[int]*stats.Welford{}
	s.inj = faults.New(env, spec, cfg.Faults, faults.Hooks{
		Crash:  s.onCrash,
		Repair: s.onRepair,
	})
	s.inj.Start()
	return s, nil
}

// Submit schedules the arrival events for an open-loop job stream.
// Every job must fit the facility (1 <= Nodes <= spec.Nodes) and have
// positive service time; otherwise nothing is scheduled and an error
// names the offender. Submit may be called once or many times, before
// or during a run, as long as arrivals are not in the past. It
// allocates one Queued slab, one node slab and one arrival callback:
// arrival events fire in stable (ArriveS, batch index) order, so each
// takes the next job of the batch stable-sorted by ArriveS.
func (s *Scheduler) Submit(jobs []loadgen.Job) error {
	width := 0
	for _, j := range jobs {
		if j.Nodes < 1 || j.Nodes > s.spec.Nodes {
			return fmt.Errorf("schedule: job %d requests %d nodes on a %d-node facility",
				j.ID, j.Nodes, s.spec.Nodes)
		}
		if !(j.ServiceS > 0) {
			return fmt.Errorf("schedule: job %d has service time %v", j.ID, j.ServiceS)
		}
		if !(j.ArriveS >= s.env.Now()) {
			return fmt.Errorf("schedule: job %d arrives in the past (%v < now %v)",
				j.ID, j.ArriveS, s.env.Now())
		}
		width += j.Nodes
	}
	qs, nodes := make([]Queued, len(jobs)), make([]int, width)
	for i, j := range jobs {
		qs[i] = Queued{Job: j, firstStartS: -1, nodes: nodes[:0:j.Nodes]}
		nodes = nodes[j.Nodes:]
	}
	slices.SortStableFunc(qs, func(a, b Queued) int { return cmp.Compare(a.Job.ArriveS, b.Job.ArriveS) })
	arrive := func() {
		s.enqueue(&qs[0])
		qs = qs[1:]
		s.trySchedule()
	}
	for _, j := range jobs {
		s.env.At(j.ArriveS, arrive)
	}
	s.submitted += len(jobs)
	return nil
}

// enqueue adds q to the pending queue, sifted up the heap when ordered.
func (s *Scheduler) enqueue(q *Queued) {
	s.pending = append(s.pending, q)
	for i := len(s.pending) - 1; s.ordered && i > 0 && s.less(i, (i-1)/2); i = (i - 1) / 2 {
		s.pending[i], s.pending[(i-1)/2] = s.pending[(i-1)/2], s.pending[i]
	}
}

// less is the heap order: an ordered policy's Less ignores now.
func (s *Scheduler) less(i, j int) bool { return s.cfg.Policy.Less(s.pending[i], s.pending[j], 0) }

// trySchedule drains the pending queue in policy order: repeatedly
// pick the least job under Policy.Less and place it if it fits the
// free capacity, stopping at the first job that does not fit (strict
// priority with head-of-line blocking, no backfill — uniform across
// policies so a comparison isolates the ordering). The least job is the
// heap's root, or found by a linear scan (Hermod's order moves with
// now); it is unique (Less breaks ties on Job.ID), so swapping it with
// the last entry to remove it cannot change a later pick.
func (s *Scheduler) trySchedule() {
	now := s.env.Now()
	for len(s.pending) > 0 {
		best := 0
		for i := 1; !s.ordered && i < len(s.pending); i++ {
			if s.cfg.Policy.Less(s.pending[i], s.pending[best], now) {
				best = i
			}
		}
		q := s.pending[best]
		if q.Job.Nodes > s.freeUp {
			return
		}
		last := len(s.pending) - 1
		s.pending[best], s.pending[last] = s.pending[last], nil
		s.pending = s.pending[:last]
		for i, c := 0, 1; s.ordered && c < last; i, c = c, 2*c+1 {
			if c+1 < last && s.less(c+1, c) {
				c++
			}
			if !s.less(c, i) {
				break
			}
			s.pending[i], s.pending[c] = s.pending[c], s.pending[i]
		}
		s.place(q, now)
	}
}

// place assigns the lowest-indexed free up nodes to q and arms the
// completion hold of its first node, built on that node's first use.
func (s *Scheduler) place(q *Queued, now float64) {
	for n := 0; n < s.spec.Nodes && len(q.nodes) < q.Job.Nodes; n++ {
		if s.occupant[n] == nil && s.inj.NodeUp(n) {
			q.nodes = append(q.nodes, n)
			s.occupant[n] = q
		}
	}
	s.freeUp -= len(q.nodes)
	q.startS = now
	if q.firstStartS < 0 {
		q.firstStartS = now
		s.m.Wait.Add(now - q.Job.ArriveS)
	}
	first := q.nodes[0]
	if s.holds[first] == nil {
		s.holds[first] = des.NewHold(s.env, func() { s.complete(s.occupant[first]) })
	}
	s.holds[first].After(q.Job.ServiceS)
}

// release returns q's nodes to the pool; down (a node index, or -1)
// is excluded from the free count because it just crashed.
func (s *Scheduler) release(q *Queued, down int) {
	for _, n := range q.nodes {
		s.occupant[n] = nil
		if n != down && s.inj.NodeUp(n) {
			s.freeUp++
		}
	}
	q.nodes = q.nodes[:0]
}

// complete retires a job whose hold fired: record metrics, free its
// nodes, and give the queue a placement opportunity.
func (s *Scheduler) complete(q *Queued) {
	now := s.env.Now()
	width := float64(len(q.nodes))
	s.release(q, -1)
	s.m.BusyNodeS += (now - q.startS) * width
	s.m.Completed++
	slowdown := (now - q.Job.ArriveS) / q.Job.ServiceS
	s.m.Slowdown.Add(slowdown)
	if now > q.Job.DeadlineS {
		s.m.DeadlineMisses++
	}
	t := s.m.tenant[q.Job.Tenant]
	if t == nil {
		t = &stats.Welford{}
		s.m.tenant[q.Job.Tenant] = t
	}
	t.Add(slowdown)
	s.m.LastCompletionS = now
	s.finishOne()
	s.trySchedule()
}

// finishOne advances the completion count and fires OnComplete when
// the last submitted job retires.
func (s *Scheduler) finishOne() {
	s.finished++
	if s.finished == s.submitted && s.cfg.OnComplete != nil {
		s.cfg.OnComplete()
	}
}

// onCrash is the injector's Crash hook: evict the occupant (fail-stop,
// its accumulated work is wasted), cancel its completion, and re-queue
// it — or drop it once past the restart budget. An unoccupied crashed
// node just leaves the free pool.
func (s *Scheduler) onCrash(node int) {
	q := s.occupant[node]
	if q == nil {
		s.freeUp--
		return
	}
	now := s.env.Now()
	width := float64(len(q.nodes))
	s.holds[q.nodes[0]].Cancel()
	s.release(q, node)
	lost := (now - q.startS) * width
	s.m.BusyNodeS += lost
	s.m.WastedNodeS += lost
	q.Restarts++
	s.m.Restarts++
	if q.Restarts > s.cfg.MaxRestarts || s.cfg.MaxRestarts < 0 {
		s.m.Dropped++
		s.finishOne()
	} else {
		s.enqueue(q)
	}
	s.trySchedule()
}

// onRepair is the injector's Repair hook: the node re-enters the free
// pool (it was evicted at crash time, so it is never occupied here)
// and the queue gets a placement opportunity.
func (s *Scheduler) onRepair(node int) {
	if s.occupant[node] == nil {
		s.freeUp++
	}
	s.trySchedule()
}

// Done reports whether every submitted job has completed or been
// dropped.
func (s *Scheduler) Done() bool { return s.finished == s.submitted }

// QueueLen returns the current pending-queue length.
func (s *Scheduler) QueueLen() int { return len(s.pending) }

// Injector exposes the fault injector (crash counts, NodeSet view)
// for reporting.
func (s *Scheduler) Injector() *faults.Injector { return s.inj }

// Metrics returns the live metrics accumulator.
func (s *Scheduler) Metrics() *Metrics { return &s.m }

// Metrics aggregates one campaign run: queueing-delay and slowdown
// digests over completed jobs (dropped jobs contribute to Dropped
// only), facility node-second accounting, and per-tenant slowdown
// means for the fairness index.
type Metrics struct {
	// Wait collects queueing delays (first placement − arrival).
	Wait stats.Digest
	// Slowdown collects (completion − arrival) / nominal service.
	Slowdown stats.Digest
	// Completed, Dropped, Restarts and DeadlineMisses count job
	// outcomes; Restarts counts crash evictions across all jobs.
	Completed, Dropped, Restarts, DeadlineMisses int
	// BusyNodeS is occupied node-seconds (including work later lost to
	// crashes); WastedNodeS is the lost subset.
	BusyNodeS, WastedNodeS float64
	// LastCompletionS is the virtual time of the last completion — the
	// campaign makespan for utilization purposes.
	LastCompletionS float64

	tenant map[int]*stats.Welford
}

// TenantMeanSlowdowns returns each tenant's mean slowdown in tenant-id
// order (tenants with no completed jobs are absent).
func (m *Metrics) TenantMeanSlowdowns() []float64 {
	ids := make([]int, 0, len(m.tenant))
	for id := range m.tenant {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]float64, 0, len(ids))
	for _, id := range ids {
		out = append(out, m.tenant[id].Mean())
	}
	return out
}

// JainFairness returns Jain's index over the per-tenant mean
// slowdowns: 1.0 when every tenant experiences equal service quality.
func (m *Metrics) JainFairness() float64 { return stats.Jain(m.TenantMeanSlowdowns()) }

// Utilization returns delivered facility utilization: busy
// node-seconds over nodes × makespan (0 before any completion).
func (m *Metrics) Utilization(nodes int) float64 {
	if m.LastCompletionS <= 0 || nodes <= 0 {
		return 0
	}
	return m.BusyNodeS / (float64(nodes) * m.LastCompletionS)
}
