// Package dist provides the sampling distributions behind the config
// schema's run_time / run_count parameters: a kernel's per-iteration
// duration is either a fixed number or drawn from a discrete, normal or
// log-normal PDF (the paper's deterministic-or-stochastic kernel
// characterization, §3.4). Samplers are pure: all randomness comes from
// the caller's *rand.Rand, so simulations stay reproducible under a
// fixed seed.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Sampler draws values from a distribution. Mean returns the analytic
// expectation, used for validation and for sizing deterministic runs.
type Sampler interface {
	Sample(rng *rand.Rand) float64
	Mean() float64
}

// Fixed is a degenerate distribution: every sample is the same value.
type Fixed float64

// Sample returns the fixed value; the rng is unused.
func (f Fixed) Sample(*rand.Rand) float64 { return float64(f) }

// Mean returns the fixed value.
func (f Fixed) Mean() float64 { return float64(f) }

// Normal is a Gaussian distribution truncated at zero (durations and
// counts cannot be negative).
type Normal struct {
	MeanV float64
	Std   float64
}

// Sample draws from N(MeanV, Std²), clamped to be non-negative.
func (n Normal) Sample(rng *rand.Rand) float64 {
	v := n.MeanV + n.Std*rng.NormFloat64()
	if v < 0 {
		return 0
	}
	return v
}

// Mean returns the (untruncated) mean. The truncation bias is negligible
// for the narrow kernel-time distributions the configs use.
func (n Normal) Mean() float64 { return n.MeanV }

// Exponential is the memoryless distribution: inter-arrival times of
// node failures in the fault-injection layer (MTBF draws). Parameterized
// by its mean (the MTBF itself).
type Exponential struct {
	MeanV float64
}

// NewExponential builds the memoryless distribution with the given
// mean, rejecting non-positive, NaN or infinite means — the degenerate
// parameters that would otherwise turn an arrival process into a burst
// of zero-gap (or never-arriving) events. Inter-arrival samplers built
// through this contract fail fast at configuration time.
func NewExponential(mean float64) (Sampler, error) {
	if !(mean > 0) || math.IsInf(mean, 0) {
		return nil, fmt.Errorf("dist: exponential mean must be finite and > 0, got %v", mean)
	}
	return Exponential{MeanV: mean}, nil
}

// Sample draws from Exp(1/MeanV). A non-positive mean degenerates to
// zero, matching the truncation conventions of the other samplers.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	if e.MeanV <= 0 {
		return 0
	}
	return rng.ExpFloat64() * e.MeanV
}

// Mean returns the distribution mean (the MTBF).
func (e Exponential) Mean() float64 { return e.MeanV }

// LogNormal is parameterized by the mean and standard deviation of the
// distribution itself (not of the underlying normal), matching how the
// paper reports profiled iteration times.
type LogNormal struct {
	mu    float64 // mean of ln X
	sigma float64 // std of ln X
	mean  float64 // E[X], as given
}

// NewLogNormal builds a log-normal with the given distribution mean and
// standard deviation. A zero std degenerates to Fixed(mean).
func NewLogNormal(mean, std float64) (Sampler, error) {
	if mean <= 0 {
		return nil, fmt.Errorf("dist: lognormal mean must be > 0, got %v", mean)
	}
	if std < 0 {
		return nil, fmt.Errorf("dist: negative lognormal std %v", std)
	}
	if std == 0 {
		return Fixed(mean), nil
	}
	// Invert E[X] = exp(mu + sigma²/2), Var[X] = (exp(sigma²)-1)·E[X]².
	sigma2 := math.Log(1 + (std*std)/(mean*mean))
	return LogNormal{
		mu:    math.Log(mean) - sigma2/2,
		sigma: math.Sqrt(sigma2),
		mean:  mean,
	}, nil
}

// Sample draws exp(N(mu, sigma²)).
func (l LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.mu + l.sigma*rng.NormFloat64())
}

// Mean returns the distribution mean the sampler was constructed with.
func (l LogNormal) Mean() float64 { return l.mean }

// Discrete is a weighted empirical distribution over a fixed value set —
// the config form {"type":"discrete","values":[...],"weights":[...]}.
type Discrete struct {
	values []float64
	cum    []float64 // cumulative weights, cum[len-1] == total
	mean   float64
}

// NewDiscrete builds a weighted discrete distribution. Weights may be
// nil/empty for uniform weighting; otherwise they must match values in
// length, be non-negative, and not all zero.
func NewDiscrete(values, weights []float64) (Sampler, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("dist: discrete needs at least one value")
	}
	if len(weights) == 0 {
		weights = make([]float64, len(values))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(values) {
		return nil, fmt.Errorf("dist: %d values but %d weights", len(values), len(weights))
	}
	d := Discrete{
		values: append([]float64(nil), values...),
		cum:    make([]float64, len(weights)),
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("dist: negative weight %v", w)
		}
		total += w
		d.cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: discrete weights sum to zero")
	}
	for i, v := range values {
		d.mean += v * weights[i] / total
	}
	return d, nil
}

// Sample draws one of the values with probability proportional to its
// weight.
func (d Discrete) Sample(rng *rand.Rand) float64 {
	u := rng.Float64() * d.cum[len(d.cum)-1]
	i := sort.Search(len(d.cum), func(i int) bool { return d.cum[i] > u })
	if i >= len(d.values) {
		i = len(d.values) - 1
	}
	return d.values[i]
}

// Mean returns the weighted mean of the value set.
func (d Discrete) Mean() float64 { return d.mean }
