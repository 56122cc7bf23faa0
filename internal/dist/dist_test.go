package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestFixed(t *testing.T) {
	s := Fixed(0.03147)
	if s.Mean() != 0.03147 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if v := s.Sample(rand.New(rand.NewSource(1))); v != 0.03147 {
		t.Fatalf("sample = %v", v)
	}
}

func TestNormal(t *testing.T) {
	s := Normal{MeanV: 0.03, Std: 0.001}
	if s.Mean() != 0.03 {
		t.Fatalf("mean = %v", s.Mean())
	}
	rng := rand.New(rand.NewSource(7))
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := s.Sample(rng)
		if v < 0 {
			t.Fatalf("negative sample %v", v)
		}
		sum += v
	}
	if got := sum / n; math.Abs(got-0.03) > 0.0005 {
		t.Fatalf("empirical mean = %v, want ~0.03", got)
	}
}

func TestNormalTruncatesAtZero(t *testing.T) {
	s := Normal{MeanV: 0.001, Std: 10} // almost every draw would be negative
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if v := s.Sample(rng); v < 0 {
			t.Fatalf("negative sample %v", v)
		}
	}
}

func TestLogNormal(t *testing.T) {
	s, err := NewLogNormal(0.0312, 0.0273)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Mean(); math.Abs(got-0.0312) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	rng := rand.New(rand.NewSource(11))
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Sample(rng)
		if v <= 0 {
			t.Fatalf("non-positive lognormal sample %v", v)
		}
		sum += v
	}
	if got := sum / n; math.Abs(got-0.0312)/0.0312 > 0.02 {
		t.Fatalf("empirical mean = %v, want ~0.0312", got)
	}
}

func TestLogNormalZeroStdIsFixed(t *testing.T) {
	s, err := NewLogNormal(2.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(Fixed); !ok {
		t.Fatalf("zero-std lognormal is %T, want Fixed", s)
	}
}

func TestLogNormalRejects(t *testing.T) {
	if _, err := NewLogNormal(0, 1); err == nil {
		t.Fatal("zero mean accepted")
	}
	if _, err := NewLogNormal(-1, 1); err == nil {
		t.Fatal("negative mean accepted")
	}
	if _, err := NewLogNormal(1, -1); err == nil {
		t.Fatal("negative std accepted")
	}
}

func TestDiscrete(t *testing.T) {
	s, err := NewDiscrete([]float64{1, 3}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean() != 2 {
		t.Fatalf("mean = %v", s.Mean())
	}
	s, err = NewDiscrete([]float64{1, 2, 4}, []float64{0, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean() != 4 {
		t.Fatalf("weighted mean = %v", s.Mean())
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if v := s.Sample(rng); v != 4 {
			t.Fatalf("zero-weight value %v sampled", v)
		}
	}
}

func TestDiscreteUniformDefault(t *testing.T) {
	s, err := NewDiscrete([]float64{2, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean() != 3 {
		t.Fatalf("uniform mean = %v", s.Mean())
	}
}

func TestDiscreteRejects(t *testing.T) {
	if _, err := NewDiscrete(nil, nil); err == nil {
		t.Fatal("empty values accepted")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewDiscrete([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
}

func TestExponential(t *testing.T) {
	s := Exponential{MeanV: 120}
	if s.Mean() != 120 {
		t.Fatalf("mean = %v", s.Mean())
	}
	rng := rand.New(rand.NewSource(7))
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		v := s.Sample(rng)
		if v < 0 {
			t.Fatalf("negative sample %v", v)
		}
		sum += v
	}
	if got := sum / float64(n); math.Abs(got-120) > 2 {
		t.Fatalf("empirical mean %v, want ~120", got)
	}
	if v := (Exponential{}).Sample(rng); v != 0 {
		t.Fatalf("zero-mean exponential sampled %v", v)
	}
}

func TestSamplersDeterministic(t *testing.T) {
	ln, _ := NewLogNormal(1, 0.5)
	di, _ := NewDiscrete([]float64{1, 2, 3}, []float64{1, 2, 3})
	for _, s := range []Sampler{Normal{MeanV: 1, Std: 0.1}, ln, di, Exponential{MeanV: 2}} {
		a := s.Sample(rand.New(rand.NewSource(42)))
		b := s.Sample(rand.New(rand.NewSource(42)))
		if a != b {
			t.Fatalf("%T not deterministic under fixed seed", s)
		}
	}
}

func TestNewExponentialValidates(t *testing.T) {
	for _, mean := range []float64{0, -3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewExponential(mean); err == nil {
			t.Errorf("NewExponential(%v) accepted a degenerate mean", mean)
		}
	}
	s, err := NewExponential(120)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean() != 120 {
		t.Fatalf("mean = %v", s.Mean())
	}
	// The validated sampler draws from the same stream positions as the
	// composite literal, so swapping constructors cannot shift timelines.
	a := s.Sample(rand.New(rand.NewSource(9)))
	b := Exponential{MeanV: 120}.Sample(rand.New(rand.NewSource(9)))
	if a != b {
		t.Fatalf("constructor sampler diverged: %v vs %v", a, b)
	}
}
