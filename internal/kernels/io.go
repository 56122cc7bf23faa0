package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"simaibench/internal/mpi"
)

// payload builds size[0] float64s of deterministic data for I/O kernels
// in resize(buf, ...).
func payload(buf []byte, size []int) []byte {
	n := dim(size, 0, 1<<14)
	buf = resize(buf, 8*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(float64(i)))
	}
	return buf
}

// ioPath returns the file used by rank r in ctx.Dir.
func ioPath(ctx *Context, r int) string {
	return filepath.Join(ctx.Dir, fmt.Sprintf("kernel-io-rank%d.bin", r))
}

func requireDir(ctx *Context, name string) error {
	if ctx.Dir == "" {
		return fmt.Errorf("kernels: %s needs Context.Dir", name)
	}
	return nil
}

// writeSingleRank has rank 0 write the whole payload; other ranks idle,
// like the paper's "a single process writes data to a file".
type writeSingleRank struct{ buf []byte }

func (*writeSingleRank) Name() string { return "WriteSingleRank" }

func (k *writeSingleRank) Run(ctx *Context, size []int) error {
	if err := requireDir(ctx, "WriteSingleRank"); err != nil {
		return err
	}
	if ctx.rank() != 0 {
		return nil
	}
	k.buf = payload(k.buf, size)
	return os.WriteFile(ioPath(ctx, 0), k.buf, 0o644)
}

// writeNonMPI has every rank write its own file independently ("writes
// data to a file without MPI-IO").
type writeNonMPI struct{ buf []byte }

func (*writeNonMPI) Name() string { return "WriteNonMPI" }

func (k *writeNonMPI) Run(ctx *Context, size []int) error {
	if err := requireDir(ctx, "WriteNonMPI"); err != nil {
		return err
	}
	k.buf = payload(k.buf, size)
	return os.WriteFile(ioPath(ctx, ctx.rank()), k.buf, 0o644)
}

// writeWithMPI emulates an MPI-IO collective write: ranks gather their
// blocks to rank 0, which writes one shared file.
type writeWithMPI struct{ buf []byte }

func (*writeWithMPI) Name() string { return "WriteWithMPI" }

func (k *writeWithMPI) Run(ctx *Context, size []int) error {
	if err := requireDir(ctx, "WriteWithMPI"); err != nil {
		return err
	}
	if ctx.Comm == nil {
		k.buf = payload(k.buf, size)
		return os.WriteFile(filepath.Join(ctx.Dir, "kernel-io-shared.bin"), k.buf, 0o644)
	}
	n := dim(size, 0, 1<<14)
	local := make([]float64, n)
	for i := range local {
		local[i] = float64(ctx.Comm.Rank()*n + i)
	}
	all := ctx.Comm.Gather(0, local)
	if ctx.Comm.Rank() == 0 {
		buf := make([]byte, 8*len(all))
		for i, x := range all {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		if err := os.WriteFile(filepath.Join(ctx.Dir, "kernel-io-shared.bin"), buf, 0o644); err != nil {
			return err
		}
	}
	ctx.Comm.Barrier() // collective completes together
	return nil
}

// readNonMPI has every rank read its own file (written by WriteNonMPI or
// WriteSingleRank for rank 0).
type readNonMPI struct{}

func (*readNonMPI) Name() string { return "ReadNonMPI" }

func (*readNonMPI) Run(ctx *Context, size []int) error {
	if err := requireDir(ctx, "ReadNonMPI"); err != nil {
		return err
	}
	data, err := os.ReadFile(ioPath(ctx, ctx.rank()))
	if err != nil {
		return fmt.Errorf("kernels: ReadNonMPI: %w", err)
	}
	if len(data) > 0 {
		keep(float64(data[0]))
	}
	return nil
}

// readWithMPI emulates an MPI-IO collective read: rank 0 reads the
// shared file and scatters equal blocks.
type readWithMPI struct{}

func (*readWithMPI) Name() string { return "ReadWithMPI" }

func (*readWithMPI) Run(ctx *Context, size []int) error {
	if err := requireDir(ctx, "ReadWithMPI"); err != nil {
		return err
	}
	shared := filepath.Join(ctx.Dir, "kernel-io-shared.bin")
	if ctx.Comm == nil {
		data, err := os.ReadFile(shared)
		if err != nil {
			return fmt.Errorf("kernels: ReadWithMPI: %w", err)
		}
		if len(data) > 0 {
			keep(float64(data[0]))
		}
		return nil
	}
	var all []float64
	if ctx.Comm.Rank() == 0 {
		data, err := os.ReadFile(shared)
		if err != nil {
			return fmt.Errorf("kernels: ReadWithMPI: %w", err)
		}
		all = make([]float64, len(data)/8)
		for i := range all {
			all[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		// Trim so the scatter divides evenly.
		all = all[:len(all)/ctx.Comm.Size()*ctx.Comm.Size()]
	}
	// Broadcast total length, then scatter.
	lenBuf := []float64{float64(len(all))}
	ctx.Comm.Bcast(0, lenBuf)
	if ctx.Comm.Rank() != 0 {
		all = make([]float64, int(lenBuf[0]))
	}
	chunk := ctx.Comm.Scatter(0, all)
	if len(chunk) > 0 {
		keep(chunk[0])
	}
	return nil
}

// allReduce performs an all-reduce over size[0] elements.
type allReduce struct{ buf []float64 }

func (*allReduce) Name() string { return "AllReduce" }

func (k *allReduce) Run(ctx *Context, size []int) error {
	if ctx.Comm == nil {
		return fmt.Errorf("kernels: AllReduce needs Context.Comm")
	}
	n := dim(size, 0, 1<<14)
	k.buf = resize(k.buf, n)
	for i := range k.buf {
		k.buf[i] = float64(ctx.Comm.Rank())
	}
	ctx.Comm.AllReduce(mpi.Sum, k.buf)
	keep(k.buf[0])
	return nil
}

// allGather performs an all-gather of size[0] elements per rank.
type allGather struct{ buf []float64 }

func (*allGather) Name() string { return "AllGather" }

func (k *allGather) Run(ctx *Context, size []int) error {
	if ctx.Comm == nil {
		return fmt.Errorf("kernels: AllGather needs Context.Comm")
	}
	n := dim(size, 0, 1<<12)
	k.buf = zeroed(k.buf, n)
	out := ctx.Comm.AllGather(k.buf)
	keep(out[0])
	return nil
}

// copyH2D models a host-to-device copy: a real memmove between two
// buffers standing in for DDR and HBM. The byte volume is what matters
// for the transport studies; PCIe/fabric latency belongs to the DES cost
// models.
type copyH2D struct{ host, device []float64 }

func (*copyH2D) Name() string { return "CopyHostToDevice" }

func (k *copyH2D) Run(ctx *Context, size []int) error {
	n := dim(size, 0, 1<<16)
	k.host = deterministicMatrix(k.host, n, 1)
	k.device = resize(k.device, n)
	copy(k.device, k.host)
	keep(k.device[n-1])
	return nil
}

// copyD2H models the reverse device-to-host copy.
type copyD2H struct{ device, host []float64 }

func (*copyD2H) Name() string { return "CopyDeviceToHost" }

func (k *copyD2H) Run(ctx *Context, size []int) error {
	n := dim(size, 0, 1<<16)
	k.device = deterministicMatrix(k.device, n, 2)
	k.host = resize(k.host, n)
	copy(k.host, k.device)
	keep(k.host[n-1])
	return nil
}
