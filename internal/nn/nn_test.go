package nn

import (
	"fmt"
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
	loss, grad := mseLoss(pred, target)
	if math.Abs(loss-2.5) > 1e-12 { // (1+4)/2
		t.Fatalf("loss = %v, want 2.5", loss)
	}
	if math.Abs(grad[0][0]-1) > 1e-12 || math.Abs(grad[0][1]-2) > 1e-12 {
		t.Fatalf("grad = %v, want [1 2]", grad)
	}
}

func TestMSELossZeroWhenEqual(t *testing.T) {
	x := [][]float64{{3, 4, 5}}
	loss, grad := mseLoss(x, x)
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
	lossP, _ := mseLoss(m.Forward(x), target)
	p.W[i] = orig - eps
	lossM, _ := mseLoss(m.Forward(x), target)
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
	_, lossGrad := mseLoss(pred, target)
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
	_, lossGrad := mseLoss(m.Forward(x), target)
	dx := m.Backward(lossGrad)

	const eps = 1e-6
	for i := range x[0] {
		orig := x[0][i]
		x[0][i] = orig + eps
		lp, _ := mseLoss(m.Forward(x), target)
		x[0][i] = orig - eps
		lm, _ := mseLoss(m.Forward(x), target)
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
	first, _ := mseLoss(m.Forward(x0), y0)
	for epoch := 0; epoch < 400; epoch++ {
		x, y := batch()
		m.ZeroGrad()
		_, g := mseLoss(m.Forward(x), y)
		m.Backward(g)
		opt.Step(m.Params())
	}
	last, _ := mseLoss(m.Forward(x0), y0)
	if last > first/50 {
		t.Fatalf("training did not converge: %v -> %v", first, last)
	}
}

func TestZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, _ := NewMLP([]int{2, 2}, rng)
	x := [][]float64{{1, 1}}
	_, g := mseLoss(m.Forward(x), [][]float64{{0, 0}})
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
	_, g := mseLoss(m.Forward(x), tgt)
	m.Backward(g)
	single := append([]float64(nil), m.Params()[0].Grad...)

	m.ZeroGrad()
	for i := 0; i < 2; i++ {
		_, g := mseLoss(m.Forward(x), tgt)
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
		loss, _ := mseLoss(pred, target)
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

// mseLoss is the loss of a fresh MSE, whose gradient buffer nothing
// else shares.
func mseLoss(pred, target [][]float64) (float64, [][]float64) {
	return new(MSE).Loss(pred, target)
}

// randBatch is n rows of w standard-normal values.
func randBatch(rng *rand.Rand, n, w int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, w)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	return x
}

// TestReusedBuffersMatchFresh: a model whose buffers carry stale values
// from earlier steps — of a larger batch, then a smaller one, then a
// larger again — computes bit for bit what a model with fresh buffers
// and the same weights computes: outputs, loss, input gradient and every
// parameter gradient.
func TestReusedBuffersMatchFresh(t *testing.T) {
	widths := []int{5, 9, 7, 3}
	rng := rand.New(rand.NewSource(21))
	reused, _ := NewMLP(widths, rand.New(rand.NewSource(4)))
	var mse MSE
	opt := SGD{LR: 0.03}
	for step, n := range []int{16, 4, 1, 16, 9, 16} {
		x, y := randBatch(rng, n, widths[0]), randBatch(rng, n, widths[len(widths)-1])
		fresh, _ := NewMLP(widths, rand.New(rand.NewSource(4)))
		for i, p := range fresh.Params() {
			copy(p.W, reused.Params()[i].W)
		}

		reused.ZeroGrad()
		out := reused.Forward(x)
		loss, g := mse.Loss(out, y)
		dx := reused.Backward(g)

		fOut := fresh.Forward(x)
		fLoss, fg := mseLoss(fOut, y)
		fdx := fresh.Backward(fg)

		if math.Float64bits(loss) != math.Float64bits(fLoss) {
			t.Fatalf("step %d: loss %v, fresh %v", step, loss, fLoss)
		}
		for _, pair := range [][2][][]float64{{out, fOut}, {dx, fdx}} {
			for b := range pair[0] {
				for i, v := range pair[0][b] {
					if math.Float64bits(v) != math.Float64bits(pair[1][b][i]) {
						t.Fatalf("step %d: row %d[%d] = %v, fresh %v", step, b, i, v, pair[1][b][i])
					}
				}
			}
		}
		for i, p := range reused.Params() {
			for j, gv := range p.Grad {
				if math.Float64bits(gv) != math.Float64bits(fresh.Params()[i].Grad[j]) {
					t.Fatalf("step %d: %s grad[%d] = %v, fresh %v", step, p.Name, j, gv, fresh.Params()[i].Grad[j])
				}
			}
		}
		opt.Step(reused.Params())
	}
}

// TestTrainStepAllocatesNothing: once its buffers have grown to the
// batch, a whole training step — zero, forward, loss, backward, update —
// allocates nothing.
func TestTrainStepAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, _ := NewMLP([]int{8, 16, 8}, rng)
	x, y := randBatch(rng, 16, 8), randBatch(rng, 16, 8)
	var mse MSE
	opt := SGD{LR: 0.01}
	if allocs := testing.AllocsPerRun(50, func() {
		m.ZeroGrad()
		_, g := mse.Loss(m.Forward(x), y)
		m.Backward(g)
		opt.Step(m.Params())
	}); allocs != 0 {
		t.Fatalf("a training step allocates %v times, want 0", allocs)
	}
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
	var mse MSE
	opt := SGD{LR: 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrad()
		_, g := mse.Loss(m.Forward(x), y)
		m.Backward(g)
		opt.Step(m.Params())
	}
}

// refLinearForward is the one-output-at-a-time loop Linear.Forward ran
// before its outputs were blocked by four, kept as the oracle the
// blocked loop must match bit for bit: each sum starts at its bias and
// adds w[o][i]·x[i] in i order.
func refLinearForward(l *Linear, x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for b, xb := range x {
		out[b] = make([]float64, l.Out)
		for o := range l.Out {
			w := l.weight.W[o*l.In : (o+1)*l.In]
			s := l.bias.W[o]
			for i, xv := range xb {
				s += w[i] * xv
			}
			out[b][o] = s
		}
	}
	return out
}

// refLinearBackward is the matching oracle for Backward: it accumulates
// into wGrad and bGrad the way Backward accumulates into the layer's own
// gradients, and returns dL/dx.
func refLinearBackward(l *Linear, x, grad [][]float64, wGrad, bGrad []float64) [][]float64 {
	dx := make([][]float64, len(grad))
	for b, gb := range grad {
		row := make([]float64, l.In)
		for o := range l.Out {
			g := gb[o]
			bGrad[o] += g
			wRow := l.weight.W[o*l.In : (o+1)*l.In]
			gRow := wGrad[o*l.In : (o+1)*l.In]
			for i := range l.In {
				gRow[i] += g * x[b][i]
				row[i] += g * wRow[i]
			}
		}
		dx[b] = row
	}
	return dx
}

// signedBatch is randBatch with about one value in eight replaced by +0
// or -0, so the sign of a zero sum is exercised too.
func signedBatch(rng *rand.Rand, n, w int) [][]float64 {
	x := randBatch(rng, n, w)
	for _, row := range x {
		for i := range row {
			switch rng.Intn(16) {
			case 0:
				row[i] = 0
			case 1:
				row[i] = math.Copysign(0, -1)
			}
		}
	}
	return x
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), oracle %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestLinearMatchesOracle: over seeded shapes — Out not a multiple of
// four, In = 1, batch 1 — and two backward passes that accumulate, the
// layer's outputs, input gradient and parameter gradients are the
// oracle's bit for bit.
func TestLinearMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	shapes := [][3]int{ // in, out, batch
		{1, 1, 1}, {1, 4, 1}, {1, 7, 3}, {3, 5, 1}, {8, 16, 16}, {16, 8, 16},
		{5, 9, 7}, {7, 3, 2}, {13, 6, 4}, {2, 8, 1}, {64, 128, 32},
	}
	for range 20 {
		shapes = append(shapes, [3]int{1 + rng.Intn(20), 1 + rng.Intn(20), 1 + rng.Intn(9)})
	}
	for _, s := range shapes {
		in, out, n := s[0], s[1], s[2]
		l := NewLinear(in, out, rng)
		for i := range l.bias.W {
			l.bias.W[i] = rng.NormFloat64()
		}
		for i := range l.weight.Grad {
			l.weight.Grad[i] = rng.NormFloat64()
		}
		wGrad, bGrad := append([]float64(nil), l.weight.Grad...), append([]float64(nil), l.bias.Grad...)
		for pass := range 2 {
			x, g := signedBatch(rng, n, in), signedBatch(rng, n, out)
			what := fmt.Sprintf("%dx%d batch %d pass %d", in, out, n, pass)
			y, want := l.Forward(x), refLinearForward(l, x)
			for b := range want {
				sameBits(t, what+" y", y[b], want[b])
			}
			dx, wantDx := l.Backward(g), refLinearBackward(l, x, g, wGrad, bGrad)
			for b := range wantDx {
				sameBits(t, what+" dx", dx[b], wantDx[b])
			}
			sameBits(t, what+" weight grad", l.weight.Grad, wGrad)
			sameBits(t, what+" bias grad", l.bias.Grad, bGrad)
		}
	}
}
