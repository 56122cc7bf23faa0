package schedule

import (
	"math"
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/des"
	"simaibench/internal/faults"
	"simaibench/internal/loadgen"
)

// job builds a hand-crafted workload entry for micro-scenarios.
func job(id int, arrive, service float64, nodes int) loadgen.Job {
	return loadgen.Job{
		ID: id, Tenant: id % 4, Class: "t",
		ArriveS: arrive, Nodes: nodes,
		ServiceS: service, DeadlineS: arrive + 2*service,
	}
}

// run executes one campaign to completion and returns its metrics.
func run(t *testing.T, pol Policy, jobs []loadgen.Job, nodes int, prof faults.Profile) *Metrics {
	t.Helper()
	env := des.NewEnv()
	env.SetGuard(des.Guard{MaxEvents: 5_000_000})
	spec := cluster.Aurora(nodes)
	var s *Scheduler
	s, err := New(env, spec, Config{Policy: pol, Faults: prof, OnComplete: env.Stop})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	env.Run()
	if err := env.Err(); err != nil {
		t.Fatalf("guard tripped: %v", err)
	}
	if !s.Done() {
		t.Fatalf("run ended with %d pending jobs", s.QueueLen())
	}
	return s.Metrics()
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := ParsePolicy(name)
		if err != nil || p.Name() != name {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParsePolicy("lottery"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestPolicyOrdering pins the micro-scenario that separates arrival
// order from size-aware order: a warmup job holds the whole 2-node
// facility until t=5, behind which one wide 100s job and two 1s jobs
// queue up. FIFO lets the wide job block the short ones for the full
// 100s; every size- or deadline-aware policy runs the short ones first.
func TestPolicyOrdering(t *testing.T) {
	jobs := []loadgen.Job{
		job(0, 0, 5, 2),   // warmup: occupies the facility until t=5
		job(1, 1, 100, 2), // wide long job
		job(2, 2, 1, 1),
		job(3, 3, 1, 1),
	}
	maxWait := func(pol Policy) float64 {
		return run(t, pol, jobs, 2, faults.Profile{}).Wait.Max()
	}
	if got := maxWait(FIFO()); got != 103 {
		t.Errorf("FIFO max wait %v, want 103 (short jobs starve behind the wide one)", got)
	}
	for _, pol := range []Policy{EDF(), SRPT(), Hermod()} {
		if got := maxWait(pol); got != 5 {
			t.Errorf("%s max wait %v, want 5 (short jobs bypass the wide one)", pol.Name(), got)
		}
	}
}

// TestHealthyRunConservation checks node-second accounting on a
// fault-free run: busy node-seconds equal the workload's exact
// footprint, nothing is wasted, and utilization is a proper fraction.
func TestHealthyRunConservation(t *testing.T) {
	cfg := loadgen.Config{
		Seed: 5, RatePerS: 0.4, Jobs: 300, Tenants: 6,
		Classes: loadgen.DefaultClasses(),
	}
	jobs, err := loadgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, j := range jobs {
		want += float64(j.Nodes) * j.ServiceS
	}
	m := run(t, SRPT(), jobs, 64, faults.Profile{})
	if m.Completed != 300 || m.Dropped != 0 || m.Restarts != 0 {
		t.Fatalf("outcomes: %+v", m)
	}
	if math.Abs(m.BusyNodeS-want) > 1e-6*want {
		t.Errorf("busy node-seconds %v, want %v", m.BusyNodeS, want)
	}
	if m.WastedNodeS != 0 {
		t.Errorf("wasted node-seconds %v on a healthy run", m.WastedNodeS)
	}
	if u := m.Utilization(64); !(u > 0 && u <= 1) {
		t.Errorf("utilization %v out of range", u)
	}
	if f := m.JainFairness(); !(f > 0 && f <= 1) {
		t.Errorf("fairness %v out of range", f)
	}
	if n := len(m.TenantMeanSlowdowns()); n != 6 {
		t.Errorf("%d tenant means, want 6", n)
	}
}

// TestDeterministicRuns pins bit-reproducibility: two runs of the same
// faulty campaign agree on every metric, including tail quantiles.
func TestDeterministicRuns(t *testing.T) {
	cfg := loadgen.Config{
		Seed: 9, RatePerS: 0.5, Jobs: 200, Tenants: 4,
		Classes: loadgen.DefaultClasses(),
	}
	jobs, err := loadgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := faults.Profile{Seed: 3, MTBFS: 2000, RepairS: 60}
	a := run(t, Hermod(), jobs, 32, prof)
	b := run(t, Hermod(), jobs, 32, prof)
	if a.Completed != b.Completed || a.Dropped != b.Dropped ||
		a.Restarts != b.Restarts || a.BusyNodeS != b.BusyNodeS ||
		a.LastCompletionS != b.LastCompletionS {
		t.Fatalf("metrics differ: %+v vs %+v", a, b)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if a.Slowdown.Quantile(q) != b.Slowdown.Quantile(q) {
			t.Fatalf("q=%v slowdown differs", q)
		}
	}
}

// TestSizeAwarePoliciesBeatFIFOUnderOverload is the differentiation
// contract of the campaign scenario: at offered load 1.2 the p99
// slowdown of SRPT and the Hermod hybrid must be strictly below FIFO.
func TestSizeAwarePoliciesBeatFIFOUnderOverload(t *testing.T) {
	cfg := loadgen.Config{
		Seed: 1, Jobs: 500, Tenants: 8,
		Classes: loadgen.DefaultClasses(),
	}
	cfg.RatePerS = cfg.RateForLoad(1.2, 64)
	jobs, err := loadgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fifo := run(t, FIFO(), jobs, 64, faults.Profile{})
	for _, pol := range []Policy{SRPT(), Hermod()} {
		m := run(t, pol, jobs, 64, faults.Profile{})
		if !(m.Slowdown.P99() < fifo.Slowdown.P99()) {
			t.Errorf("%s p99 slowdown %v not below FIFO's %v",
				pol.Name(), m.Slowdown.P99(), fifo.Slowdown.P99())
		}
	}
}

// TestCrashEvictionRequeues drives a crash-heavy profile and checks
// the fail-stop restart path: work is evicted and re-run, every job
// still retires, and the waste shows up in the accounting.
func TestCrashEvictionRequeues(t *testing.T) {
	jobs := make([]loadgen.Job, 20)
	for i := range jobs {
		jobs[i] = job(i, float64(i)*5, 30, 2)
	}
	prof := faults.Profile{Seed: 11, MTBFS: 200, RepairS: 10}
	m := run(t, FIFO(), jobs, 4, prof)
	if m.Restarts == 0 {
		t.Fatal("crash-heavy profile caused no evictions; weaken MTBF")
	}
	if m.Completed+m.Dropped != 20 {
		t.Fatalf("completed %d + dropped %d != 20", m.Completed, m.Dropped)
	}
	if m.WastedNodeS <= 0 || m.WastedNodeS >= m.BusyNodeS {
		t.Errorf("wasted %v vs busy %v", m.WastedNodeS, m.BusyNodeS)
	}
}

// TestRestartBudgetDrops sets a negative budget (drop on first
// eviction) under the same crashy profile: evicted jobs are dropped,
// not re-queued, and the run still terminates cleanly.
func TestRestartBudgetDrops(t *testing.T) {
	jobs := make([]loadgen.Job, 20)
	for i := range jobs {
		jobs[i] = job(i, float64(i)*5, 30, 2)
	}
	env := des.NewEnv()
	s, err := New(env, cluster.Aurora(4), Config{
		Policy:      FIFO(),
		Faults:      faults.Profile{Seed: 11, MTBFS: 200, RepairS: 10},
		MaxRestarts: -1,
		OnComplete:  env.Stop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	env.Run()
	m := s.Metrics()
	if m.Dropped == 0 {
		t.Fatal("no drops under a drop-on-first-eviction budget")
	}
	if m.Dropped != m.Restarts {
		t.Errorf("dropped %d != evictions %d under zero budget", m.Dropped, m.Restarts)
	}
	if !s.Done() {
		t.Fatal("run did not drain")
	}
}

func TestSubmitValidates(t *testing.T) {
	env := des.NewEnv()
	s, err := New(env, cluster.Aurora(4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]loadgen.Job{
		"too wide":     job(0, 0, 10, 5),
		"zero nodes":   {ID: 1, ArriveS: 0, Nodes: 0, ServiceS: 1},
		"zero service": {ID: 2, ArriveS: 0, Nodes: 1, ServiceS: 0},
		"NaN service":  {ID: 3, ArriveS: 0, Nodes: 1, ServiceS: math.NaN()},
		"NaN arrival":  {ID: 4, ArriveS: math.NaN(), Nodes: 1, ServiceS: 1},
	} {
		if err := s.Submit([]loadgen.Job{bad}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if s.submitted != 0 {
		t.Fatalf("rejected submissions still counted: %d", s.submitted)
	}
}
