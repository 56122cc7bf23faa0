// Package kernels provides the primitive operations of the paper's
// Kernels module (Table 1): compute, I/O, collective-communication and
// copy kernels that Simulation components assemble into mini-apps. The
// compute kernels perform real floating-point work (the Go analogue of
// the CuPy/dpnp kernels), the I/O kernels move real bytes to disk, the
// collectives run over the in-process MPI substrate, and the copy kernels
// model host<->device staging with real buffer copies.
//
// Kernels are registered by name so JSON configurations (the paper's
// Listing 2, e.g. "mini_app_kernel": "MatMulSimple2D") resolve at
// runtime; Register allows custom kernels exactly as the paper's module
// "is designed for extensibility".
package kernels

import (
	"fmt"
	"math/rand"
	"sync"

	"simaibench/internal/mpi"
)

// Device models resource placement: the paper's configurations pin
// kernels to "cpu" or "xpu" (Intel GPU) devices. Without real GPUs the
// device choice selects which modeled memory space buffers live in and
// is reported in placement metadata.
type Device int

// Devices.
const (
	CPU Device = iota
	XPU
)

// ParseDevice converts a config string ("cpu", "xpu", "gpu") to a Device.
func ParseDevice(s string) (Device, error) {
	switch s {
	case "cpu", "":
		return CPU, nil
	case "xpu", "gpu", "cuda":
		return XPU, nil
	}
	return CPU, fmt.Errorf("kernels: unknown device %q", s)
}

// String returns the config name of the device.
func (d Device) String() string {
	if d == XPU {
		return "xpu"
	}
	return "cpu"
}

// Context carries everything a kernel invocation needs: the rank's
// communicator (nil for serial runs), a working directory for I/O
// kernels, a seeded RNG, and the target device.
type Context struct {
	Comm   *mpi.Comm
	Dir    string
	Rng    *rand.Rand
	Device Device
}

// rank returns the caller's rank, 0 when serial.
func (c *Context) rank() int {
	if c.Comm == nil {
		return 0
	}
	return c.Comm.Rank()
}

// Kernel is one runnable primitive. Size is the data_size from the
// configuration: its interpretation is kernel-specific (matrix dims,
// vector length, element count...). Run executes one iteration.
type Kernel interface {
	Name() string
	Run(ctx *Context, size []int) error
}

// registry maps kernel names to factories.
var (
	regMu    sync.RWMutex
	registry = map[string]func() Kernel{}
)

// Register installs a kernel factory under its name. Registering a
// duplicate name panics: silent replacement would make configs ambiguous.
func Register(name string, factory func() Kernel) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("kernels: duplicate registration of %q", name))
	}
	registry[name] = factory
}

// New instantiates a registered kernel by name.
func New(name string) (Kernel, error) {
	regMu.RLock()
	factory, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("kernels: unknown kernel %q", name)
	}
	return factory(), nil
}

// dim returns size[i] or def when absent/nonpositive.
func dim(size []int, i, def int) int {
	if i < len(size) && size[i] > 0 {
		return size[i]
	}
	return def
}

func init() {
	Register("MatMulSimple2D", func() Kernel { return matMulSimple2D{} })
	Register("MatMulGeneral", func() Kernel { return matMulGeneral{} })
	Register("FFT", func() Kernel { return fftKernel{} })
	Register("AXPY", func() Kernel { return axpy{} })
	Register("InplaceCompute", func() Kernel { return inplaceCompute{} })
	Register("GenerateRandomNumber", func() Kernel { return generateRandom{} })
	Register("ScatterAdd", func() Kernel { return scatterAdd{} })
	Register("WriteSingleRank", func() Kernel { return writeSingleRank{} })
	Register("WriteNonMPI", func() Kernel { return writeNonMPI{} })
	Register("WriteWithMPI", func() Kernel { return writeWithMPI{} })
	Register("ReadNonMPI", func() Kernel { return readNonMPI{} })
	Register("ReadWithMPI", func() Kernel { return readWithMPI{} })
	Register("AllReduce", func() Kernel { return allReduce{} })
	Register("AllGather", func() Kernel { return allGather{} })
	Register("CopyHostToDevice", func() Kernel { return copyH2D{} })
	Register("CopyDeviceToHost", func() Kernel { return copyD2H{} })
}
