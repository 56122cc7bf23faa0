package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearForwardKnown(t *testing.T) {
	l := NewLinear(2, 2, rand.New(rand.NewSource(1)))
	copy(l.weight.W, []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(l.bias.W, []float64{10, 20})
	out := l.Forward([][]float64{{1, 1}})
	if out[0][0] != 13 || out[0][1] != 27 {
		t.Fatalf("forward = %v, want [13 27]", out)
	}
}

func TestLinearInputDimPanics(t *testing.T) {
	l := NewLinear(3, 2, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input dim did not panic")
		}
	}()
	l.Forward([][]float64{{1, 2}})
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	out := r.Forward([][]float64{{-1, 0, 2.5}})
	if out[0][0] != 0 || out[0][1] != 0 || out[0][2] != 2.5 {
		t.Fatalf("relu = %v", out)
	}
	grad := r.Backward([][]float64{{5, 5, 5}})
	if grad[0][0] != 0 || grad[0][1] != 0 || grad[0][2] != 5 {
		t.Fatalf("relu grad = %v", grad)
	}
}

func TestMLPConstruction(t *testing.T) {
	m, err := NewMLP([]int{4, 8, 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// 4*8+8 + 8*2+2 = 58 params.
	n := 0
	for _, p := range m.Params() {
		n += len(p.W)
	}
	if n != 58 {
		t.Fatalf("%d scalar parameters, want 58", n)
	}
	out := m.Forward([][]float64{{1, 2, 3, 4}})
	if len(out) != 1 || len(out[0]) != 2 {
		t.Fatalf("output shape = %dx%d", len(out), len(out[0]))
	}
}

func TestMLPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP([]int{4}, rng); err == nil {
		t.Fatal("single-width MLP accepted")
	}
	if _, err := NewMLP([]int{4, 0, 2}, rng); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestMSELossKnown(t *testing.T) {
	pred := [][]float64{{1, 2}}
	target := [][]float64{{0, 0}}
	loss, grad := MSELoss(pred, target)
	if math.Abs(loss-2.5) > 1e-12 { // (1+4)/2
		t.Fatalf("loss = %v, want 2.5", loss)
	}
	if math.Abs(grad[0][0]-1) > 1e-12 || math.Abs(grad[0][1]-2) > 1e-12 {
		t.Fatalf("grad = %v, want [1 2]", grad)
	}
}

func TestMSELossZeroWhenEqual(t *testing.T) {
	x := [][]float64{{3, 4, 5}}
	loss, grad := MSELoss(x, x)
	if loss != 0 {
		t.Fatalf("loss = %v", loss)
	}
	for _, g := range grad[0] {
		if g != 0 {
			t.Fatalf("grad = %v", grad)
		}
	}
}

// numericalGrad estimates dLoss/dp by central differences.
func numericalGrad(m *MLP, x, target [][]float64, p *Param, i int) float64 {
	const eps = 1e-6
	orig := p.W[i]
	p.W[i] = orig + eps
	lossP, _ := MSELoss(m.Forward(x), target)
	p.W[i] = orig - eps
	lossM, _ := MSELoss(m.Forward(x), target)
	p.W[i] = orig
	return (lossP - lossM) / (2 * eps)
}

func TestGradientCheck(t *testing.T) {
	// Analytic gradients must match numerical differentiation — the
	// canonical correctness proof for a backprop implementation.
	rng := rand.New(rand.NewSource(42))
	m, err := NewMLP([]int{3, 5, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := [][]float64{{0.5, -0.3, 0.8}, {1.2, 0.1, -0.7}}
	target := [][]float64{{1, 0}, {0, 1}}

	m.ZeroGrad()
	pred := m.Forward(x)
	_, lossGrad := MSELoss(pred, target)
	m.Backward(lossGrad)

	checked := 0
	for _, p := range m.Params() {
		for i := range p.W {
			want := numericalGrad(m, x, target, p, i)
			got := p.Grad[i]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %v vs numerical %v", p.Name, i, got, want)
			}
			checked++
		}
	}
	if checked != 3*5+5+5*2+2 {
		t.Fatalf("checked %d of 32 params", checked)
	}
}

func TestBackwardInputGradient(t *testing.T) {
	// dL/dx must also match numerical differentiation.
	rng := rand.New(rand.NewSource(7))
	m, _ := NewMLP([]int{2, 4, 1}, rng)
	x := [][]float64{{0.3, -0.9}}
	target := [][]float64{{0.5}}

	m.ZeroGrad()
	_, lossGrad := MSELoss(m.Forward(x), target)
	dx := m.Backward(lossGrad)

	const eps = 1e-6
	for i := range x[0] {
		orig := x[0][i]
		x[0][i] = orig + eps
		lp, _ := MSELoss(m.Forward(x), target)
		x[0][i] = orig - eps
		lm, _ := MSELoss(m.Forward(x), target)
		x[0][i] = orig
		want := (lp - lm) / (2 * eps)
		if math.Abs(dx[0][i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("dx[%d]: analytic %v vs numerical %v", i, dx[0][i], want)
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Fit y = [x0+x1, x0-x1]: loss must drop by orders of magnitude.
	rng := rand.New(rand.NewSource(3))
	m, _ := NewMLP([]int{2, 16, 2}, rng)
	opt := SGD{LR: 0.05}
	batch := func() ([][]float64, [][]float64) {
		x := make([][]float64, 32)
		y := make([][]float64, 32)
		for i := range x {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			x[i] = []float64{a, b}
			y[i] = []float64{a + b, a - b}
		}
		return x, y
	}
	x0, y0 := batch()
	first, _ := MSELoss(m.Forward(x0), y0)
	for epoch := 0; epoch < 400; epoch++ {
		x, y := batch()
		m.ZeroGrad()
		_, g := MSELoss(m.Forward(x), y)
		m.Backward(g)
		opt.Step(m.Params())
	}
	last, _ := MSELoss(m.Forward(x0), y0)
	if last > first/50 {
		t.Fatalf("training did not converge: %v -> %v", first, last)
	}
}

func TestZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, _ := NewMLP([]int{2, 2}, rng)
	x := [][]float64{{1, 1}}
	_, g := MSELoss(m.Forward(x), [][]float64{{0, 0}})
	m.Backward(g)
	nonzero := false
	for _, p := range m.Params() {
		for _, gv := range p.Grad {
			if gv != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("backward produced all-zero grads")
	}
	m.ZeroGrad()
	for _, p := range m.Params() {
		for _, gv := range p.Grad {
			if gv != 0 {
				t.Fatal("ZeroGrad left residue")
			}
		}
	}
}

func TestGradAccumulationAcrossBatches(t *testing.T) {
	// Two backward passes without ZeroGrad must sum gradients.
	rng := rand.New(rand.NewSource(9))
	m, _ := NewMLP([]int{2, 2}, rng)
	x := [][]float64{{1, 2}}
	tgt := [][]float64{{0, 0}}

	m.ZeroGrad()
	_, g := MSELoss(m.Forward(x), tgt)
	m.Backward(g)
	single := append([]float64(nil), m.Params()[0].Grad...)

	m.ZeroGrad()
	for i := 0; i < 2; i++ {
		_, g := MSELoss(m.Forward(x), tgt)
		m.Backward(g)
	}
	for i, gv := range m.Params()[0].Grad {
		if math.Abs(gv-2*single[i]) > 1e-12 {
			t.Fatalf("grad[%d] = %v, want %v", i, gv, 2*single[i])
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a, _ := NewMLP([]int{4, 4, 4}, rand.New(rand.NewSource(11)))
	b, _ := NewMLP([]int{4, 4, 4}, rand.New(rand.NewSource(11)))
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W {
			if pa[i].W[j] != pb[i].W[j] {
				t.Fatal("same seed produced different init")
			}
		}
	}
}

func TestPropertyMSELossNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		pred := [][]float64{raw[:half]}
		target := [][]float64{raw[half : 2*half]}
		loss, _ := MSELoss(pred, target)
		return loss >= 0 || math.IsNaN(loss) == containsNaN(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func containsNaN(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

func BenchmarkForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, _ := NewMLP([]int{64, 128, 128, 8}, rng)
	x := make([][]float64, 32)
	y := make([][]float64, 32)
	for i := range x {
		x[i] = make([]float64, 64)
		y[i] = make([]float64, 8)
	}
	opt := SGD{LR: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrad()
		_, g := MSELoss(m.Forward(x), y)
		m.Backward(g)
		opt.Step(m.Params())
	}
}
