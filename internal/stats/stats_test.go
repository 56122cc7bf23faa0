package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Std() != 0 {
		t.Fatalf("empty welford: %v", w)
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(5)
	if w.Mean() != 5 || w.Std() != 0 {
		t.Fatalf("single obs: mean=%v std=%v", w.Mean(), w.Std())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if !almostEqual(w.Var(), 32.0/7, 1e-12) {
		t.Fatalf("var = %v, want %v", w.Var(), 32.0/7)
	}
}

func TestThroughput(t *testing.T) {
	var tp Throughput
	tp.Add(1e9, 1.0) // 1 GB/s
	tp.Add(2e9, 1.0) // 2 GB/s
	tp.Add(1e9, 0)   // ignored: zero duration
	if tp.n != 2 {
		t.Fatalf("events = %d, want 2", tp.n)
	}
	if !almostEqual(tp.MeanGBps(), 1.5, 1e-12) {
		t.Fatalf("mean GB/s = %v, want 1.5", tp.MeanGBps())
	}
}

// TestThroughputMatchesWelford: a Throughput, by Add or carried by value
// through With, reports exactly (==) a Welford's mean of the same rates
// over 1e9, skipping the events that took no time.
func TestThroughputMatchesWelford(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 200 {
		var byAdd, byValue Throughput
		var ref Welford
		for range rng.Intn(300) {
			bytes, seconds := rng.Int63n(1<<30), rng.ExpFloat64()*1e-3
			if rng.Intn(10) == 0 {
				seconds = -seconds * float64(rng.Intn(2)) // zero or negative: skipped
			}
			byAdd.Add(bytes, seconds)
			byValue = byValue.With(bytes, seconds)
			if seconds > 0 {
				ref.Add(float64(bytes) / seconds)
			}
		}
		if want := ref.Mean() / 1e9; byAdd.MeanGBps() != want || byValue.MeanGBps() != want || byAdd.n != ref.N() {
			t.Fatalf("trial %d: Add %v, With %v (n=%d), Welford %v (n=%d)",
				trial, byAdd.MeanGBps(), byValue.MeanGBps(), byAdd.n, want, ref.N())
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if QuantileInPlace(xs, 0) != 1 || QuantileInPlace(xs, 1) != 4 {
		t.Fatal("extreme quantiles wrong")
	}
	if !almostEqual(QuantileInPlace(xs, 0.5), 2.5, 1e-12) {
		t.Fatalf("median = %v, want 2.5", QuantileInPlace(xs, 0.5))
	}
	if !math.IsNaN(QuantileInPlace(nil, 0.5)) {
		t.Fatal("empty quantile not NaN")
	}
}

func TestPropertyWelfordMatchesNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, r := range raw {
			w.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		naiveVar := ss / float64(len(raw)-1)
		return almostEqual(w.Mean(), mean, 1e-6) && almostEqual(w.Var(), naiveVar, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDigestQuantiles(t *testing.T) {
	var d Digest
	// 1..1000 in scrambled order: exact interpolated quantiles are known.
	for i := 0; i < 1000; i++ {
		d.Add(float64((i*617)%1000 + 1))
	}
	if len(d.xs) != 1000 {
		t.Fatalf("n = %d", len(d.xs))
	}
	if got := d.P50(); math.Abs(got-500.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 500.5", got)
	}
	if got := d.P99(); math.Abs(got-990.01) > 1e-9 {
		t.Fatalf("p99 = %v, want 990.01", got)
	}
	if got := d.P999(); math.Abs(got-999.001) > 1e-9 {
		t.Fatalf("p999 = %v, want 999.001", got)
	}
	if got := d.Quantile(1); got != 1000 {
		t.Fatalf("max = %v", got)
	}
	// Digest quantiles must agree exactly with the one-shot helper.
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	var d2 Digest
	for _, x := range xs {
		d2.Add(x)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if a, b := d2.Quantile(q), QuantileInPlace(slices.Clone(xs), q); a != b {
			t.Fatalf("Digest.Quantile(%v) = %v, QuantileInPlace = %v", q, a, b)
		}
	}
}

// TestQuantileInPlaceMatchesQuantile: the in-place form returns the
// bits of a Digest over the same samples and leaves its input sorted.
func TestQuantileInPlaceMatchesQuantile(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for n := 0; n < 40; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64()
		}
		for _, q := range []float64{-1, 0, 0.1, 0.5, 0.99, 1, 2} {
			var d Digest
			for _, x := range xs {
				d.Add(x)
			}
			want := d.Quantile(q)
			own := slices.Clone(xs)
			got := QuantileInPlace(own, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d q=%v: in place %v, Digest %v", n, q, got, want)
			}
			if !slices.IsSorted(own) {
				t.Fatalf("n=%d: QuantileInPlace left its input unsorted", n)
			}
		}
	}
}

func TestDigestAddAfterQuantileResorts(t *testing.T) {
	var d Digest
	d.Add(10)
	d.Add(20)
	if got := d.P50(); got != 15 {
		t.Fatalf("p50 = %v", got)
	}
	d.Add(0) // arrives below the sorted prefix
	if got := d.Quantile(0); got != 0 {
		t.Fatalf("min after late Add = %v, want 0", got)
	}
}

func TestDigestEmpty(t *testing.T) {
	var d Digest
	for _, got := range []float64{d.P50(), d.P99(), d.P999(), d.Quantile(1)} {
		if !math.IsNaN(got) {
			t.Fatalf("empty digest returned %v, want NaN", got)
		}
	}
}

func TestJainFairness(t *testing.T) {
	if got := Jain([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: %v, want 1", got)
	}
	// One tenant monopolizes: index collapses toward 1/n.
	if got := Jain([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("monopoly: %v, want 0.25", got)
	}
	// Textbook example: (1+2+3)² / (3·(1+4+9)) = 36/42.
	if got := Jain([]float64{1, 2, 3}); math.Abs(got-36.0/42.0) > 1e-12 {
		t.Fatalf("1,2,3: %v, want %v", got, 36.0/42.0)
	}
	if got := Jain(nil); got != 1 {
		t.Fatalf("empty: %v, want 1 (vacuously fair)", got)
	}
	if got := Jain([]float64{0, 0}); got != 1 {
		t.Fatalf("all-zero: %v, want 1", got)
	}
}
