package kernels

import (
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"simaibench/internal/mpi"
)

func serialCtx(t *testing.T) *Context {
	t.Helper()
	return &Context{Dir: t.TempDir(), Rng: rand.New(rand.NewSource(1))}
}

func TestRegistryHasTable1Kernels(t *testing.T) {
	// Every kernel in the paper's Table 1 must be constructible by its
	// published name.
	want := []string{
		"MatMulSimple2D", "MatMulGeneral", "FFT", "AXPY", "InplaceCompute",
		"GenerateRandomNumber", "ScatterAdd",
		"WriteSingleRank", "WriteNonMPI", "WriteWithMPI", "ReadNonMPI", "ReadWithMPI",
		"AllReduce", "AllGather",
		"CopyHostToDevice", "CopyDeviceToHost",
	}
	for _, name := range want {
		if _, err := New(name); err != nil {
			t.Errorf("New(%q): %v", name, err)
		}
	}
}

func TestUnknownKernel(t *testing.T) {
	if _, err := New("NoSuchKernel"); err == nil {
		t.Fatal("unknown kernel constructed")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("MatMulSimple2D", func() Kernel { return &matMulSimple2D{} })
}

func TestParseDevice(t *testing.T) {
	for in, want := range map[string]Device{"cpu": CPU, "": CPU, "xpu": XPU, "gpu": XPU} {
		got, err := ParseDevice(in)
		if err != nil || got != want {
			t.Errorf("ParseDevice(%q) = %v,%v want %v", in, got, err, want)
		}
	}
	if _, err := ParseDevice("tpu"); err == nil {
		t.Error("ParseDevice accepted tpu")
	}
	if CPU.String() != "cpu" || XPU.String() != "xpu" {
		t.Error("device String() wrong")
	}
}

func TestComputeKernelsRunSerial(t *testing.T) {
	ctx := serialCtx(t)
	for _, name := range []string{
		"MatMulSimple2D", "MatMulGeneral", "FFT", "AXPY",
		"InplaceCompute", "GenerateRandomNumber", "ScatterAdd",
		"CopyHostToDevice", "CopyDeviceToHost",
	} {
		k, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Run(ctx, []int{64, 64, 64}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Default sizes must also work.
		if err := k.Run(ctx, nil); err != nil {
			t.Errorf("%s with default size: %v", name, err)
		}
	}
}

// TestComputeKernelsAllocateNothing: a compute or copy kernel keeps its
// buffers between runs, so once they have grown an iteration allocates
// nothing, at every size it has grown to.
func TestComputeKernelsAllocateNothing(t *testing.T) {
	ctx := serialCtx(t)
	for _, name := range []string{
		"MatMulSimple2D", "MatMulGeneral", "FFT", "AXPY",
		"InplaceCompute", "GenerateRandomNumber", "ScatterAdd",
		"CopyHostToDevice", "CopyDeviceToHost",
	} {
		k, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range [][]int{{128, 32, 16}, {64, 64, 64}} {
			if allocs := testing.AllocsPerRun(5, func() {
				if err := k.Run(ctx, size); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s %v: a run allocates %v times, want 0", name, size, allocs)
			}
		}
	}
}

// TestScratchReuseKeepsResults: a kernel whose buffers hold a previous,
// larger run's values computes what a fresh instance computes.
func TestScratchReuseKeepsResults(t *testing.T) {
	ctx := &Context{Rng: rand.New(rand.NewSource(1))}
	for _, name := range []string{"MatMulGeneral", "ScatterAdd", "AXPY", "FFT"} {
		reused, _ := New(name)
		if err := reused.Run(ctx, []int{48, 40, 32}); err != nil {
			t.Fatal(err)
		}
		ctx.Rng.Seed(3)
		reused.Run(ctx, []int{16, 8, 4})
		got := sink.Load()
		fresh, _ := New(name)
		ctx.Rng.Seed(3)
		fresh.Run(ctx, []int{16, 8, 4})
		if want := sink.Load(); got != want {
			t.Errorf("%s: reused instance kept %#x, fresh %#x", name, got, want)
		}
	}
}

func TestMatmulCorrectness(t *testing.T) {
	// 2x2 known product.
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	c := make([]float64, 4)
	matmul(c, a, b, 2, 2, 2)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("matmul = %v, want %v", c, want)
		}
	}
}

func TestMatmulRectangular(t *testing.T) {
	// (1x3)·(3x2): result 1x2.
	a := []float64{1, 2, 3}
	b := []float64{1, 4, 2, 5, 3, 6}
	c := make([]float64, 2)
	matmul(c, a, b, 1, 3, 2)
	if c[0] != 14 || c[1] != 32 {
		t.Fatalf("rect matmul = %v, want [14 32]", c)
	}
}

// directDFT computes the O(n²) reference transform.
func directDFT(in []complex128) []complex128 {
	n := len(in)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			out[k] += in[j] * cmplx.Exp(complex(0, ang))
		}
	}
	return out
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 4, 8, 64, 256} {
		data := make([]complex128, n)
		for i := range data {
			data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := directDFT(data)
		FFT(data)
		for i := range data {
			if cmplx.Abs(data[i]-want[i]) > 1e-6*float64(n) {
				t.Fatalf("n=%d: FFT[%d] = %v, want %v", n, i, data[i], want[i])
			}
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := make([]complex128, 128)
	orig := make([]complex128, 128)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = data[i]
	}
	FFT(data)
	// The inverse transform is the conjugate of the forward transform of
	// the conjugate, over n.
	for i := range data {
		data[i] = cmplx.Conj(data[i])
	}
	FFT(data)
	for i := range data {
		if got := cmplx.Conj(data[i]) / complex(128, 0); cmplx.Abs(got-orig[i]) > 1e-9 {
			t.Fatalf("inverse of FFT(x)[%d] = %v, want %v", i, got, orig[i])
		}
	}
}

func TestFFTNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT of length 3 did not panic")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestPropertyFFTLinearity(t *testing.T) {
	// FFT(a*x + y) == a*FFT(x) + FFT(y)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		x := make([]complex128, n)
		y := make([]complex128, n)
		combo := make([]complex128, n)
		a := complex(rng.NormFloat64(), 0)
		for i := 0; i < n; i++ {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			combo[i] = a*x[i] + y[i]
		}
		FFT(x)
		FFT(y)
		FFT(combo)
		for i := 0; i < n; i++ {
			if cmplx.Abs(combo[i]-(a*x[i]+y[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalTheorem(t *testing.T) {
	// sum |x|^2 == (1/n) sum |X|^2 — an FFT invariant.
	rng := rand.New(rand.NewSource(8))
	const n = 256
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i] * cmplx.Conj(x[i]))
	}
	FFT(x)
	var freqEnergy float64
	for i := range x {
		freqEnergy += real(x[i] * cmplx.Conj(x[i]))
	}
	if math.Abs(timeEnergy-freqEnergy/n) > 1e-8*timeEnergy {
		t.Fatalf("Parseval violated: %v vs %v", timeEnergy, freqEnergy/n)
	}
}

func TestIOKernelsSingleRank(t *testing.T) {
	ctx := serialCtx(t)
	for _, step := range []struct {
		kernel string
		size   []int
	}{
		{"WriteSingleRank", []int{100}},
		{"WriteNonMPI", []int{100}},
		{"ReadNonMPI", []int{100}},
		{"WriteWithMPI", []int{100}},
		{"ReadWithMPI", []int{100}},
	} {
		k, err := New(step.kernel)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Run(ctx, step.size); err != nil {
			t.Fatalf("%s: %v", step.kernel, err)
		}
	}
	// Files must actually exist with the right sizes (100 float64s).
	fi, err := os.Stat(filepath.Join(ctx.Dir, "kernel-io-rank0.bin"))
	if err != nil || fi.Size() != 800 {
		t.Fatalf("rank0 file: %v size=%v", err, fi.Size())
	}
}

func TestIOKernelsRequireDir(t *testing.T) {
	ctx := &Context{Rng: rand.New(rand.NewSource(1))}
	for _, name := range []string{"WriteSingleRank", "WriteNonMPI", "ReadNonMPI"} {
		k, _ := New(name)
		if err := k.Run(ctx, nil); err == nil {
			t.Errorf("%s without Dir succeeded", name)
		}
	}
}

func TestReadMissingFileFails(t *testing.T) {
	ctx := serialCtx(t)
	k, _ := New("ReadNonMPI")
	if err := k.Run(ctx, nil); err == nil {
		t.Fatal("read of missing file succeeded")
	}
}

func TestCollectiveKernelsUnderMPI(t *testing.T) {
	const ranks = 4
	w := mpi.NewWorld(ranks)
	dir := t.TempDir()
	w.Run(func(c *mpi.Comm) {
		ctx := &Context{Comm: c, Dir: dir, Rng: rand.New(rand.NewSource(int64(c.Rank())))}
		for _, name := range []string{"AllReduce", "AllGather"} {
			k, err := New(name)
			if err != nil {
				t.Error(err)
				return
			}
			if err := k.Run(ctx, []int{256}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	})
}

func TestCollectiveKernelsNeedComm(t *testing.T) {
	ctx := serialCtx(t)
	for _, name := range []string{"AllReduce", "AllGather"} {
		k, _ := New(name)
		if err := k.Run(ctx, nil); err == nil {
			t.Errorf("%s without Comm succeeded", name)
		}
	}
}

func TestMPIIOKernelsRoundTrip(t *testing.T) {
	const ranks = 4
	w := mpi.NewWorld(ranks)
	dir := t.TempDir()
	w.Run(func(c *mpi.Comm) {
		ctx := &Context{Comm: c, Dir: dir, Rng: rand.New(rand.NewSource(int64(c.Rank())))}
		wk, _ := New("WriteWithMPI")
		if err := wk.Run(ctx, []int{64}); err != nil {
			t.Errorf("WriteWithMPI: %v", err)
			return
		}
		rk, _ := New("ReadWithMPI")
		if err := rk.Run(ctx, []int{64}); err != nil {
			t.Errorf("ReadWithMPI: %v", err)
		}
	})
	// Shared file holds ranks*64 float64s.
	fi, err := os.Stat(filepath.Join(dir, "kernel-io-shared.bin"))
	if err != nil || fi.Size() != ranks*64*8 {
		t.Fatalf("shared file: %v size=%v want %d", err, fi.Size(), ranks*64*8)
	}
}

func TestWriteNonMPIPerRankFiles(t *testing.T) {
	const ranks = 3
	w := mpi.NewWorld(ranks)
	dir := t.TempDir()
	w.Run(func(c *mpi.Comm) {
		ctx := &Context{Comm: c, Dir: dir, Rng: rand.New(rand.NewSource(0))}
		k, _ := New("WriteNonMPI")
		if err := k.Run(ctx, []int{10}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
	})
	for r := 0; r < ranks; r++ {
		if _, err := os.Stat(filepath.Join(dir, "kernel-io-rank"+string(rune('0'+r))+".bin")); err != nil {
			t.Errorf("rank %d file missing: %v", r, err)
		}
	}
}

func BenchmarkMatMulSimple2D256(b *testing.B) {
	ctx := &Context{Rng: rand.New(rand.NewSource(1))}
	k, _ := New("MatMulSimple2D")
	for i := 0; i < b.N; i++ {
		k.Run(ctx, []int{256, 256})
	}
}

func BenchmarkFFT64K(b *testing.B) {
	ctx := &Context{Rng: rand.New(rand.NewSource(1))}
	k, _ := New("FFT")
	for i := 0; i < b.N; i++ {
		k.Run(ctx, []int{1 << 16})
	}
}

// TestDeterministicMatrixMatchesTrunc: for every seed the kernels fill
// with, over more than 2^20 elements, the fill is bit for bit the
// v - math.Trunc(v) form it was first written in.
func TestDeterministicMatrixMatchesTrunc(t *testing.T) {
	const n = 1<<20 + 5
	buf := make([]float64, n)
	for _, seed := range []float64{1, 2, 3} {
		for i, got := range deterministicMatrix(buf, n, seed) {
			v := seed * float64(i+1) * 0.618033988749895
			if want := v - math.Trunc(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %v element %d = %v, Trunc form %v", seed, i, got, want)
			}
		}
	}
}
