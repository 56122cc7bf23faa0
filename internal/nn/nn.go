// Package nn is a small from-scratch neural-network library — the
// substitute for the torch.nn feed-forward models the paper's AI class
// uses (§3.4). It provides dense layers, ReLU activations, mean-squared
// error, and SGD, with real forward/backward passes so distributed
// data-parallel training (internal/ai) produces genuine gradient traffic.
//
// Layout conventions: batches are [][]float64 (batch of row vectors);
// Linear weights are row-major [out][in].
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    []float64
	Grad []float64
}

// Layer is one differentiable stage. Backward consumes dL/d(output) and
// returns dL/d(input), accumulating parameter gradients internally.
type Layer interface {
	Forward(x [][]float64) [][]float64
	Backward(grad [][]float64) [][]float64
	Params() []*Param
}

// Linear is a dense layer: y = xWᵀ + b.
type Linear struct {
	In, Out int
	weight  *Param
	bias    *Param
	lastX   [][]float64
}

// NewLinear builds a dense layer with Xavier-uniform initialization from
// rng (deterministic given a seed).
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		weight: &Param{Name: fmt.Sprintf("linear%dx%d.weight", in, out),
			W: make([]float64, in*out), Grad: make([]float64, in*out)},
		bias: &Param{Name: fmt.Sprintf("linear%dx%d.bias", in, out),
			W: make([]float64, out), Grad: make([]float64, out)},
	}
	bound := math.Sqrt(6.0 / float64(in+out))
	for i := range l.weight.W {
		l.weight.W[i] = (rng.Float64()*2 - 1) * bound
	}
	return l
}

// Forward computes y[b][o] = Σ_i x[b][i]·W[o][i] + bias[o].
func (l *Linear) Forward(x [][]float64) [][]float64 {
	l.lastX = x
	out := make([][]float64, len(x))
	for b, xb := range x {
		if len(xb) != l.In {
			panic(fmt.Sprintf("nn: linear input dim %d, want %d", len(xb), l.In))
		}
		row := make([]float64, l.Out)
		for o := 0; o < l.Out; o++ {
			w := l.weight.W[o*l.In : (o+1)*l.In]
			s := l.bias.W[o]
			for i, xv := range xb {
				s += w[i] * xv
			}
			row[o] = s
		}
		out[b] = row
	}
	return out
}

// Backward accumulates dW, db and returns dL/dx.
func (l *Linear) Backward(grad [][]float64) [][]float64 {
	if l.lastX == nil {
		panic("nn: linear backward before forward")
	}
	dx := make([][]float64, len(grad))
	for b, gb := range grad {
		xb := l.lastX[b]
		row := make([]float64, l.In)
		for o := 0; o < l.Out; o++ {
			g := gb[o]
			l.bias.Grad[o] += g
			wRow := l.weight.W[o*l.In : (o+1)*l.In]
			gRow := l.weight.Grad[o*l.In : (o+1)*l.In]
			for i := 0; i < l.In; i++ {
				gRow[i] += g * xb[i]
				row[i] += g * wRow[i]
			}
		}
		dx[b] = row
	}
	return dx
}

// Params returns weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.weight, l.bias} }

// ReLU is the rectified-linear activation.
type ReLU struct {
	mask [][]bool
}

// Forward zeroes negatives and remembers the mask.
func (r *ReLU) Forward(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	r.mask = make([][]bool, len(x))
	for b, xb := range x {
		row := make([]float64, len(xb))
		m := make([]bool, len(xb))
		for i, v := range xb {
			if v > 0 {
				row[i] = v
				m[i] = true
			}
		}
		out[b] = row
		r.mask[b] = m
	}
	return out
}

// Backward gates gradients through the saved mask.
func (r *ReLU) Backward(grad [][]float64) [][]float64 {
	if r.mask == nil {
		panic("nn: relu backward before forward")
	}
	out := make([][]float64, len(grad))
	for b, gb := range grad {
		row := make([]float64, len(gb))
		for i, g := range gb {
			if r.mask[b][i] {
				row[i] = g
			}
		}
		out[b] = row
	}
	return out
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// MLP is a feed-forward stack: Linear → ReLU → ... → Linear.
type MLP struct {
	layers []Layer
}

// NewMLP builds an MLP with the given layer widths (e.g. [64, 128, 128, 8]
// gives three Linear layers with ReLUs between). Needs >= 2 widths.
func NewMLP(widths []int, rng *rand.Rand) (*MLP, error) {
	if len(widths) < 2 {
		return nil, fmt.Errorf("nn: MLP needs >= 2 widths, got %v", widths)
	}
	m := &MLP{}
	for i := 0; i+1 < len(widths); i++ {
		if widths[i] < 1 || widths[i+1] < 1 {
			return nil, fmt.Errorf("nn: nonpositive width in %v", widths)
		}
		m.layers = append(m.layers, NewLinear(widths[i], widths[i+1], rng))
		if i+2 < len(widths) {
			m.layers = append(m.layers, &ReLU{})
		}
	}
	return m, nil
}

// Forward runs the full stack.
func (m *MLP) Forward(x [][]float64) [][]float64 {
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs the reverse pass from dL/d(output).
func (m *MLP) Backward(grad [][]float64) [][]float64 {
	for i := len(m.layers) - 1; i >= 0; i-- {
		grad = m.layers[i].Backward(grad)
	}
	return grad
}

// Params returns all trainable parameters in layer order.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears all gradient accumulators.
func (m *MLP) ZeroGrad() {
	for _, p := range m.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// MSELoss returns the mean-squared error over a batch and the gradient
// dL/d(pred) for the backward pass (mean over batch*dim elements).
func MSELoss(pred, target [][]float64) (float64, [][]float64) {
	if len(pred) != len(target) {
		panic(fmt.Sprintf("nn: pred batch %d vs target %d", len(pred), len(target)))
	}
	n := 0
	for b := range pred {
		n += len(pred[b])
	}
	if n == 0 {
		return 0, nil
	}
	loss := 0.0
	grad := make([][]float64, len(pred))
	for b := range pred {
		if len(pred[b]) != len(target[b]) {
			panic("nn: pred/target dim mismatch")
		}
		row := make([]float64, len(pred[b]))
		for i := range pred[b] {
			d := pred[b][i] - target[b][i]
			loss += d * d
			row[i] = 2 * d / float64(n)
		}
		grad[b] = row
	}
	return loss / float64(n), grad
}

// SGD is plain stochastic gradient descent.
type SGD struct {
	LR float64
}

// Step applies one update: w -= lr·g.
func (s SGD) Step(params []*Param) {
	for _, p := range params {
		for i := range p.W {
			p.W[i] -= s.LR * p.Grad[i]
		}
	}
}
