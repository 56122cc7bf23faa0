// Package stats provides the streaming statistics the evaluation section
// reports: Welford mean/std accumulators for iteration times (Table 3),
// event counters (Table 2), and throughput accounting for the transport
// figures (Fig 3, 5). All statistics are computed online in O(1) space so
// million-event simulated runs stay cheap.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Welford accumulates mean and variance online (Welford's algorithm).
// The zero value is ready to use. Not safe for concurrent use; wrap in
// SafeWelford when multiple goroutines record.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.sum += x
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Sum returns the running total.
func (w *Welford) Sum() float64 { return w.sum }

// Var returns the sample variance (n-1 denominator; 0 for n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min and Max return the observed extremes (0 if empty).
func (w *Welford) Min() float64 { return w.min }
func (w *Welford) Max() float64 { return w.max }

// String formats as "mean ± std (n=N)".
func (w *Welford) String() string {
	return fmt.Sprintf("%.4g ± %.4g (n=%d)", w.Mean(), w.Std(), w.n)
}

// Throughput converts (bytes, seconds) observations into the GB/s-per-
// process numbers of Fig 3/5: each event contributes bytes/seconds, and
// the reported value is the mean over events, matching "averaging over
// all the processes and events".
type Throughput struct {
	perEvent Welford
}

// Add records one transfer event.
func (t *Throughput) Add(bytes int64, seconds float64) {
	if seconds <= 0 {
		return
	}
	t.perEvent.Add(float64(bytes) / seconds)
}

// Events returns the number of transfer events recorded.
func (t *Throughput) Events() int64 { return t.perEvent.N() }

// MeanGBps returns mean gigabytes/second per event (decimal GB, as
// customary for bandwidth plots).
func (t *Throughput) MeanGBps() float64 { return t.perEvent.Mean() / 1e9 }

// Digest is an exact percentile digest: it collects every sample and
// serves interpolated quantiles from one deferred sort, so a report
// that asks for P50, P99 and P999 of the same population pays for a
// single O(n log n) pass instead of one per quantile (what repeated
// Quantile calls would cost). Samples are exact, not sketched — the
// tail percentiles of a queueing campaign are the headline metric and
// must not carry sketch error. The zero value is ready to use. Not
// safe for concurrent use.
type Digest struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (d *Digest) Add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

// N returns the observation count.
func (d *Digest) N() int { return len(d.xs) }

// Quantile returns the q-quantile (0..1) by linear interpolation over
// the sorted samples, or NaN when empty. The first call after an Add
// sorts; subsequent calls are O(1) lookups.
func (d *Digest) Quantile(q float64) float64 {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	return sortedQuantile(d.xs, q)
}

// P50, P99 and P999 are the campaign reports' tail quantiles.
func (d *Digest) P50() float64  { return d.Quantile(0.50) }
func (d *Digest) P99() float64  { return d.Quantile(0.99) }  // 99th percentile
func (d *Digest) P999() float64 { return d.Quantile(0.999) } // 99.9th percentile

// Max returns the largest observation (NaN when empty).
func (d *Digest) Max() float64 { return d.Quantile(1) }

// Mean returns the sample mean (NaN when empty).
func (d *Digest) Mean() float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range d.xs {
		sum += x
	}
	return sum / float64(len(d.xs))
}

// Jain computes Jain's fairness index (Σx)² / (n·Σx²) over a vector of
// per-tenant allocations: 1.0 when every tenant receives the same
// share, approaching 1/n as one tenant monopolizes. All-zero
// allocations are perfectly equal, hence 1; the empty vector is
// vacuously fair, also 1.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Quantile computes the q-quantile (0..1) of a sample slice by linear
// interpolation, or NaN when it is empty; the input is not modified.
func Quantile(xs []float64, q float64) float64 {
	return QuantileInPlace(slices.Clone(xs), q)
}

// QuantileInPlace is Quantile sorting xs in place, copying nothing.
func QuantileInPlace(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	return sortedQuantile(xs, q)
}

// sortedQuantile interpolates the q-quantile of sorted samples, or NaN
// when there are none.
func sortedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
