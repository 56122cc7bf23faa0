// Package loadgen is the open-loop traffic source of the facility-scale
// campaign scenarios: a stochastic arrival process that submits workflow
// jobs to the global scheduler (internal/schedule) the way real users
// submit to a shared cluster — independent of how fast the facility
// drains them. Everything before this package is closed-loop (N tenants
// launched at t=0 and re-issuing work as soon as the previous finishes);
// an open-loop stream is what exposes queueing delay, slowdown tails
// and fairness under overload, the service-level observables a paper
// table of per-run makespans cannot show.
//
// The arrival process is a non-homogeneous Poisson stream — a base rate
// modulated by a diurnal sine and bursty episodes — realized by Lewis &
// Shedler thinning. Jobs are drawn from a weighted mix of classes shaped
// after this repo's scenario families (validation-, scale-out- and
// resilience-like workflows), each with its own node-count, service-time
// and deadline-slack samplers.
//
// Determinism follows the fault-injection layer's stream discipline:
// every stochastic axis (arrival thinning, burst windows, class mix,
// tenant assignment, per-class attributes) draws from its own rng
// stream seeded from (Config.Seed, axis). Two Generate calls with equal
// configs return bit-identical job lists, and — since generation never
// sees the scheduler — the arrival timeline is invariant under
// scheduling-policy choice, so a policy sweep judges every policy
// against the same offered traffic.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"

	"simaibench/internal/dist"
)

// Class is one job species of the facility mix: a relative weight plus
// the samplers that shape its members.
type Class struct {
	// Name labels the class in job records and reports.
	Name string
	// Weight is the class's relative share of arrivals (> 0).
	Weight float64
	// Nodes samples the node-count request (rounded to the nearest
	// integer, floored at 1).
	Nodes dist.Sampler
	// ServiceS samples the nominal service time in virtual seconds: how
	// long the job occupies its nodes once placed, absent disturbances.
	ServiceS dist.Sampler
	// SlackS samples the deadline slack: a job arriving at t with
	// service s is due at t + s + slack (the EDF policy's input).
	SlackS dist.Sampler
}

// validate reports a misconfigured class.
func (c Class) validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("loadgen: class with empty name")
	case !(c.Weight > 0) || math.IsInf(c.Weight, 0):
		return fmt.Errorf("loadgen: class %s weight %v", c.Name, c.Weight)
	case c.Nodes == nil || c.ServiceS == nil || c.SlackS == nil:
		return fmt.Errorf("loadgen: class %s has nil samplers", c.Name)
	}
	return nil
}

// NodeSeconds returns the class's expected footprint per job,
// E[nodes]·E[service] node-seconds — the quantity capacity planning
// divides the facility's node count by. (Node count and service time
// are drawn independently, so the product of means is the mean of the
// product.)
func (c Class) NodeSeconds() float64 { return c.Nodes.Mean() * c.ServiceS.Mean() }

// Config describes one open-loop arrival campaign. The zero value is
// invalid; fill RatePerS, Jobs and Classes (or use DefaultClasses) and
// Validate.
type Config struct {
	// Seed roots every stochastic axis; equal seeds give bit-identical
	// job lists.
	Seed int64
	// RatePerS is the base mean arrival rate in jobs per virtual second.
	RatePerS float64
	// Jobs is the number of arrivals to generate.
	Jobs int
	// Tenants spreads jobs over this many submitting tenants (round
	// numbers drawn uniformly from their own stream); < 1 means 1.
	Tenants int
	// DiurnalAmp is the amplitude of the sinusoidal rate modulation in
	// [0, 1): λ(t) scales by 1 + DiurnalAmp·sin(2πt/DiurnalPeriodS).
	// 0 disables the diurnal axis.
	DiurnalAmp float64
	// DiurnalPeriodS is the modulation period (required when
	// DiurnalAmp > 0).
	DiurnalPeriodS float64
	// BurstFactor multiplies the rate during burst episodes (>= 1;
	// 1 disables the bursty axis).
	BurstFactor float64
	// BurstMTBS is the mean gap between burst episodes (exponential,
	// drawn on the burst stream).
	BurstMTBS float64
	// BurstDurS is the episode duration.
	BurstDurS float64
	// Classes is the weighted job mix.
	Classes []Class
}

// Validate reports configuration errors: degenerate rates, modulation
// parameters outside their domains, or a malformed class mix. Generate
// calls it, so misconfiguration fails fast instead of producing NaN
// arrival times.
func (c Config) Validate() error {
	if !(c.RatePerS > 0) || math.IsInf(c.RatePerS, 0) {
		return fmt.Errorf("loadgen: arrival rate must be finite and > 0, got %v", c.RatePerS)
	}
	if c.Jobs < 1 {
		return fmt.Errorf("loadgen: %d jobs", c.Jobs)
	}
	if c.DiurnalAmp < 0 || c.DiurnalAmp >= 1 || math.IsNaN(c.DiurnalAmp) {
		return fmt.Errorf("loadgen: diurnal amplitude %v outside [0, 1)", c.DiurnalAmp)
	}
	if c.DiurnalAmp > 0 && !(c.DiurnalPeriodS > 0) {
		return fmt.Errorf("loadgen: diurnal period %v with amplitude %v", c.DiurnalPeriodS, c.DiurnalAmp)
	}
	if c.BurstFactor != 0 && c.BurstFactor < 1 {
		return fmt.Errorf("loadgen: burst factor %v < 1", c.BurstFactor)
	}
	if c.BurstFactor > 1 && (!(c.BurstMTBS > 0) || !(c.BurstDurS > 0)) {
		return fmt.Errorf("loadgen: burst factor %v needs positive MTBS and duration", c.BurstFactor)
	}
	if len(c.Classes) == 0 {
		return fmt.Errorf("loadgen: no job classes")
	}
	for _, cl := range c.Classes {
		if err := cl.validate(); err != nil {
			return err
		}
	}
	return nil
}

// NodeSecondsPerJob returns the expected facility footprint of one
// arrival under the weighted class mix.
func (c Config) NodeSecondsPerJob() float64 {
	var total, weight float64
	for _, cl := range c.Classes {
		total += cl.Weight * cl.NodeSeconds()
		weight += cl.Weight
	}
	if weight == 0 {
		return 0
	}
	return total / weight
}

// RateForLoad returns the base arrival rate that offers the given
// utilization on a facility of the given size under this config's class
// mix — how the campaign scenario turns "0.7× capacity" into jobs per
// second.
func (c Config) RateForLoad(load float64, facilityNodes int) float64 {
	ns := c.NodeSecondsPerJob()
	if ns <= 0 {
		return 0
	}
	return load * float64(facilityNodes) / ns
}

// Job is one generated arrival: the vocabulary the global scheduler
// consumes.
type Job struct {
	// ID numbers jobs in arrival order, 0-based.
	ID int
	// Tenant identifies the submitting tenant (0-based), the fairness
	// dimension of the campaign reports.
	Tenant int
	// Class names the job's species.
	Class string
	// ArriveS is the submission time in virtual seconds.
	ArriveS float64
	// Nodes is the node-count request (>= 1).
	Nodes int
	// ServiceS is the nominal service time once placed.
	ServiceS float64
	// DeadlineS is the absolute due time: ArriveS + ServiceS + slack.
	DeadlineS float64
}

// Stream axes: every stochastic dimension draws from its own rand
// stream seeded from (Seed, axis), so e.g. reweighting the class mix
// cannot shift arrival instants and raising the rate cannot change
// which class (or size) the i-th job gets.
const (
	axisArrival = 1 + iota // thinning candidates + accept draws
	axisBurst              // burst-window gaps
	axisClass              // class mix picks
	axisTenant             // tenant assignment
	axisAttrs              // base for per-class attribute streams (axisAttrs+i)
)

// axisRNG returns the seeded stream for one axis, independent across
// axes and seeds (same mixing constants as the fault injector's
// per-node streams).
func axisRNG(seed int64, axis int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + axis*7368787 + 1))
}

// Generate realizes the campaign: cfg.Jobs arrivals in increasing
// ArriveS order. Bit-deterministic per config; see the package comment
// for the stream discipline.
func Generate(cfg Config) ([]Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tenants := cfg.Tenants
	if tenants < 1 {
		tenants = 1
	}
	burstFactor := cfg.BurstFactor
	if burstFactor < 1 {
		burstFactor = 1
	}

	arrivalRNG := axisRNG(cfg.Seed, axisArrival)
	burstRNG := axisRNG(cfg.Seed, axisBurst)
	classRNG := axisRNG(cfg.Seed, axisClass)
	tenantRNG := axisRNG(cfg.Seed, axisTenant)
	attrRNG := make([]*rand.Rand, len(cfg.Classes))
	for i := range cfg.Classes {
		attrRNG[i] = axisRNG(cfg.Seed, axisAttrs+int64(i))
	}

	var cumWeight []float64
	total := 0.0
	for _, cl := range cfg.Classes {
		total += cl.Weight
		cumWeight = append(cumWeight, total)
	}

	// Burst windows are generated lazily along the (monotone) candidate
	// clock: gap ~ Exp(BurstMTBS) after the previous window ends.
	burstStart, burstEnd := math.Inf(1), math.Inf(1)
	if burstFactor > 1 {
		burstStart = burstRNG.ExpFloat64() * cfg.BurstMTBS
		burstEnd = burstStart + cfg.BurstDurS
	}
	inBurst := func(t float64) bool {
		for t >= burstEnd {
			burstStart = burstEnd + burstRNG.ExpFloat64()*cfg.BurstMTBS
			burstEnd = burstStart + cfg.BurstDurS
		}
		return t >= burstStart
	}
	// Thinning: candidates at the envelope rate λmax, accepted with
	// probability λ(t)/λmax.
	rateMax := cfg.RatePerS * (1 + cfg.DiurnalAmp) * burstFactor
	rateAt := func(t float64) float64 {
		r := cfg.RatePerS
		if cfg.DiurnalAmp > 0 {
			r *= 1 + cfg.DiurnalAmp*math.Sin(2*math.Pi*t/cfg.DiurnalPeriodS)
		}
		if burstFactor > 1 && inBurst(t) {
			r *= burstFactor
		}
		return r
	}

	jobs := make([]Job, 0, cfg.Jobs)
	now := 0.0
	for len(jobs) < cfg.Jobs {
		now += arrivalRNG.ExpFloat64() / rateMax
		if arrivalRNG.Float64()*rateMax > rateAt(now) {
			continue // thinned candidate
		}
		u := classRNG.Float64() * total
		ci := 0
		for ci < len(cumWeight)-1 && u >= cumWeight[ci] {
			ci++
		}
		cl := cfg.Classes[ci]
		rng := attrRNG[ci]
		nodes := int(math.Round(cl.Nodes.Sample(rng)))
		if nodes < 1 {
			nodes = 1
		}
		service := cl.ServiceS.Sample(rng)
		if service <= 0 {
			service = cl.ServiceS.Mean()
		}
		slack := cl.SlackS.Sample(rng)
		if slack < 0 {
			slack = 0
		}
		jobs = append(jobs, Job{
			ID:        len(jobs),
			Tenant:    tenantRNG.Intn(tenants),
			Class:     cl.Name,
			ArriveS:   now,
			Nodes:     nodes,
			ServiceS:  service,
			DeadlineS: now + service + slack,
		})
	}
	return jobs, nil
}

// Signature folds a job list into a 64-bit FNV-1a digest of every
// arrival's (time, tenant, class, nodes, service, deadline) — the
// cheap equality witness the campaign scenario records per sweep cell
// so tests can assert that arrival timelines are invariant across
// scheduling policies.
func Signature(jobs []Job) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	for _, j := range jobs {
		mix(math.Float64bits(j.ArriveS))
		mix(uint64(j.Tenant))
		mix(uint64(len(j.Class)))
		for _, b := range []byte(j.Class) {
			h ^= uint64(b)
			h *= prime64
		}
		mix(uint64(j.Nodes))
		mix(math.Float64bits(j.ServiceS))
		mix(math.Float64bits(j.DeadlineS))
	}
	return h
}

// DefaultClasses returns the facility mix the campaign scenario offers:
// a numerous validation-shaped small class, a moderate scale-out-shaped
// class, and a rare resilience-shaped large class — the classic
// many-small / few-large cluster mix whose size variance is exactly
// what separates size-aware policies from FIFO under overload. Shapes
// are built through the dist constructor-error contract; the fixed
// parameters below cannot fail, hence no error return.
func DefaultClasses() []Class {
	mustLogNormal := func(mean, std float64) dist.Sampler {
		s, err := dist.NewLogNormal(mean, std)
		if err != nil {
			panic(err)
		}
		return s
	}
	mustExp := func(mean float64) dist.Sampler {
		s, err := dist.NewExponential(mean)
		if err != nil {
			panic(err)
		}
		return s
	}
	mustDiscrete := func(values []float64) dist.Sampler {
		s, err := dist.NewDiscrete(values, nil)
		if err != nil {
			panic(err)
		}
		return s
	}
	return []Class{
		{
			// Short single-node validation workflows (the table2 family):
			// the bulk of the traffic, latency-sensitive.
			Name:     "table2",
			Weight:   0.6,
			Nodes:    dist.Fixed(1),
			ServiceS: mustLogNormal(12, 6),
			SlackS:   mustExp(30),
		},
		{
			// Multi-node staging workflows (the scale-out family).
			Name:     "scale-out",
			Weight:   0.3,
			Nodes:    mustDiscrete([]float64{2, 4, 8}),
			ServiceS: mustLogNormal(30, 15),
			SlackS:   mustExp(90),
		},
		{
			// Long wide checkpointed campaigns (the resilience family):
			// rare, but each occupies a large block for a long time.
			Name:     "resilience",
			Weight:   0.1,
			Nodes:    mustDiscrete([]float64{4, 8, 16}),
			ServiceS: mustLogNormal(90, 45),
			SlackS:   mustExp(300),
		},
	}
}
