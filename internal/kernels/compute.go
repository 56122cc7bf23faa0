package kernels

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync/atomic"
)

// matMulSimple2D multiplies two square size[0]×size[0] matrices — the
// kernel the paper uses to emulate nekRS iterations ("data_size":
// [256, 256]).
type matMulSimple2D struct{ a, b, c []float64 }

func (*matMulSimple2D) Name() string { return "MatMulSimple2D" }

func (k *matMulSimple2D) Run(ctx *Context, size []int) error {
	n := dim(size, 0, 256)
	k.a = deterministicMatrix(k.a, n*n, 1)
	k.b = deterministicMatrix(k.b, n*n, 2)
	k.c = zeroed(k.c, n*n)
	matmul(k.c, k.a, k.b, n, n, n)
	keep(k.c[0])
	return nil
}

// matMulGeneral multiplies size[0]×size[1] by size[1]×size[2] (GEMM).
type matMulGeneral struct{ a, b, c []float64 }

func (*matMulGeneral) Name() string { return "MatMulGeneral" }

func (k *matMulGeneral) Run(ctx *Context, size []int) error {
	m := dim(size, 0, 128)
	kk := dim(size, 1, 128)
	n := dim(size, 2, 128)
	k.a = deterministicMatrix(k.a, m*kk, 1)
	k.b = deterministicMatrix(k.b, kk*n, 2)
	k.c = zeroed(k.c, m*n)
	matmul(k.c, k.a, k.b, m, kk, n)
	keep(k.c[0])
	return nil
}

// matmul computes C = A·B for row-major A (m×k), B (k×n) with an
// ikj loop order for cache-friendly streaming of B and C rows.
func matmul(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			aip := a[i*k+p]
			bp := b[p*n : (p+1)*n]
			for j := range ci {
				ci[j] += aip * bp[j]
			}
		}
	}
}

// resize returns buf with n elements, reallocating only when its
// capacity is short: the scratch rule of every kernel here, which keeps
// its buffers between runs so an iteration allocates nothing once they
// have grown. The contents are stale.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed is resize with every element cleared.
func zeroed(buf []float64, n int) []float64 {
	buf = resize(buf, n)
	clear(buf)
	return buf
}

// deterministicMatrix fills n elements — resize(buf, n) — with a cheap
// deterministic pattern so kernels are reproducible without holding RNG
// state: the fractional part of seed·(i+1)·φ⁻¹. Every v here is finite
// and in [0, 2^63), where int64 truncates toward zero and an integer
// part below 2^53 (or an already-integral v) converts back exactly, so
// v - float64(int64(v)) equals v - math.Trunc(v) and math.Mod(v, 1) bit
// for bit. The conversion is two plain instructions with no per-element
// branch, which matters under the virtual clock, where kernel data
// generation is real compute on the critical path instead of being
// hidden inside the iteration pad.
func deterministicMatrix(buf []float64, n int, seed float64) []float64 {
	out := resize(buf, n)
	for i := range out {
		v := seed * float64(i+1) * 0.618033988749895
		out[i] = v - float64(int64(v))
	}
	return out
}

// sink defeats dead-code elimination of kernel results. Kernels run
// concurrently on MPI rank goroutines, so the store is atomic — a plain
// global write is a (benign but race-detector-visible) data race.
var sink atomic.Uint64

// keep publishes a kernel result into the sink.
func keep(v float64) { sink.Store(math.Float64bits(v)) }

// fftKernel runs an in-place radix-2 Cooley-Tukey FFT over size[0]
// complex points (rounded up to a power of two).
type fftKernel struct{ data []complex128 }

func (*fftKernel) Name() string { return "FFT" }

func (k *fftKernel) Run(ctx *Context, size []int) error {
	n := nextPow2(dim(size, 0, 1024))
	k.data = resize(k.data, n)
	for i := range k.data {
		k.data[i] = complex(math.Sin(float64(i)), 0)
	}
	FFT(k.data)
	keep(real(k.data[0]))
	return nil
}

// nextPow2 rounds n up to a power of two (minimum 2).
func nextPow2(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// FFT performs an in-place radix-2 Cooley-Tukey transform. len(data)
// must be a power of two; it panics otherwise. Exported so tests can
// verify against a direct DFT.
func FFT(data []complex128) {
	n := len(data)
	if n&(n-1) != 0 || n == 0 {
		panic(fmt.Sprintf("kernels: FFT length %d not a power of two", n))
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			data[i], data[j] = data[j], data[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := data[i+j]
				v := data[i+j+length/2] * w
				data[i+j] = u + v
				data[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}

// axpy computes y = a*x + y over size[0] elements.
type axpy struct{ x, y []float64 }

func (*axpy) Name() string { return "AXPY" }

func (k *axpy) Run(ctx *Context, size []int) error {
	n := dim(size, 0, 1<<16)
	k.x = deterministicMatrix(k.x, n, 1)
	k.y = deterministicMatrix(k.y, n, 2)
	const a = 2.5
	for i := range k.y {
		k.y[i] += a * k.x[i]
	}
	keep(k.y[n-1])
	return nil
}

// inplaceCompute applies f(x) = sin(x)+x² element-wise in place over
// size[0] elements.
type inplaceCompute struct{ x []float64 }

func (*inplaceCompute) Name() string { return "InplaceCompute" }

func (k *inplaceCompute) Run(ctx *Context, size []int) error {
	n := dim(size, 0, 1<<16)
	k.x = deterministicMatrix(k.x, n, 3)
	for i, v := range k.x {
		k.x[i] = math.Sin(v) + v*v
	}
	keep(k.x[0])
	return nil
}

// generateRandom fills size[0] elements from the context RNG.
type generateRandom struct{ out []float64 }

func (*generateRandom) Name() string { return "GenerateRandomNumber" }

func (k *generateRandom) Run(ctx *Context, size []int) error {
	n := dim(size, 0, 1<<16)
	k.out = resize(k.out, n)
	for i := range k.out {
		k.out[i] = ctx.Rng.Float64()
	}
	keep(k.out[n-1])
	return nil
}

// scatterAdd scatters size[0] values into a size[1]-element accumulator
// at RNG-chosen indices (the classic scatter-add primitive of mesh/GNN
// workloads).
type scatterAdd struct{ acc []float64 }

func (*scatterAdd) Name() string { return "ScatterAdd" }

func (k *scatterAdd) Run(ctx *Context, size []int) error {
	nVals := dim(size, 0, 1<<16)
	nBins := dim(size, 1, 1024)
	k.acc = zeroed(k.acc, nBins)
	for i := 0; i < nVals; i++ {
		k.acc[ctx.Rng.Intn(nBins)] += float64(i)
	}
	keep(k.acc[0])
	return nil
}
