// Package config defines the JSON configuration schema of the paper's
// mini-apps (Listing 2): a simulation component is a list of kernels,
// each with a name, the registered mini_app_kernel to execute, a
// deterministic or stochastic run_time / run_count, a data_size, and a
// target device. AI components are configured analogously (§3.4).
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"simaibench/internal/dist"
	"simaibench/internal/kernels"
)

// DistSpec is a run_time / run_count parameter that is either a fixed
// number or a discrete/parametric PDF, mirroring the paper's
// deterministic-or-stochastic kernel characterization.
//
// JSON forms:
//
//	0.03147                                          fixed
//	{"type":"discrete","values":[...],"weights":[...]}
//	{"type":"lognormal","mean":0.0312,"std":0.0273}
//	{"type":"normal","mean":0.03,"std":0.001}
type DistSpec struct {
	Type    string    `json:"type,omitempty"`
	Value   float64   `json:"value,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
	Mean    float64   `json:"mean,omitempty"`
	Std     float64   `json:"std,omitempty"`
}

// UnmarshalJSON accepts either a bare number or the object form.
func (d *DistSpec) UnmarshalJSON(b []byte) error {
	var num float64
	if err := json.Unmarshal(b, &num); err == nil {
		*d = DistSpec{Type: "fixed", Value: num}
		return nil
	}
	type raw DistSpec
	var r raw
	if err := json.Unmarshal(b, &r); err != nil {
		return fmt.Errorf("config: distribution must be a number or object: %w", err)
	}
	*d = DistSpec(r)
	if d.Type == "" {
		switch {
		case len(d.Values) > 0:
			d.Type = "discrete"
		default:
			d.Type = "fixed"
		}
	}
	return nil
}

// MarshalJSON emits the compact number form for fixed distributions.
func (d DistSpec) MarshalJSON() ([]byte, error) {
	if d.Type == "fixed" || d.Type == "" {
		return json.Marshal(d.Value)
	}
	type raw DistSpec
	return json.Marshal(raw(d))
}

// Sampler compiles the spec into a dist.Sampler.
func (d *DistSpec) Sampler() (dist.Sampler, error) {
	switch d.Type {
	case "", "fixed":
		if d.Value < 0 {
			return nil, fmt.Errorf("config: negative fixed value %v", d.Value)
		}
		return dist.Fixed(d.Value), nil
	case "discrete":
		for _, v := range d.Values {
			if v < 0 {
				return nil, fmt.Errorf("config: negative discrete value %v", v)
			}
		}
		return dist.NewDiscrete(d.Values, d.Weights)
	case "lognormal":
		return dist.NewLogNormal(d.Mean, d.Std)
	case "normal":
		if d.Mean < 0 || d.Std < 0 {
			return nil, fmt.Errorf("config: negative normal params")
		}
		return dist.Normal{MeanV: d.Mean, Std: d.Std}, nil
	}
	return nil, fmt.Errorf("config: unknown distribution type %q", d.Type)
}

// KernelSpec configures one kernel of a simulation component
// (Listing 2's entries).
type KernelSpec struct {
	// Name labels the kernel in stats and traces ("nekrs_iter").
	Name string `json:"name"`
	// Kernel is the registered mini-app kernel to execute.
	Kernel string `json:"mini_app_kernel"`
	// RunTime: target duration per iteration (seconds). When set, the
	// kernel is executed and the iteration padded to the sampled
	// duration, reproducing the original's makespan.
	RunTime *DistSpec `json:"run_time,omitempty"`
	// RunCount: number of kernel executions per iteration (used when
	// RunTime is absent).
	RunCount *DistSpec `json:"run_count,omitempty"`
	// DataSize is the kernel-specific size vector ([256,256] for the
	// nekRS matmul stand-in).
	DataSize []int `json:"data_size,omitempty"`
	// Device is "cpu" or "xpu".
	Device string `json:"device,omitempty"`
}

// Validate checks the spec against the kernel registry.
func (k *KernelSpec) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("config: kernel with empty name")
	}
	if _, err := kernels.New(k.Kernel); err != nil {
		return fmt.Errorf("config: kernel %q: %w", k.Name, err)
	}
	if _, err := kernels.ParseDevice(k.Device); err != nil {
		return fmt.Errorf("config: kernel %q: %w", k.Name, err)
	}
	if k.RunTime == nil && k.RunCount == nil {
		return fmt.Errorf("config: kernel %q needs run_time or run_count", k.Name)
	}
	for _, spec := range []*DistSpec{k.RunTime, k.RunCount} {
		if spec == nil {
			continue
		}
		if _, err := spec.Sampler(); err != nil {
			return fmt.Errorf("config: kernel %q: %w", k.Name, err)
		}
	}
	for _, d := range k.DataSize {
		if d < 1 {
			return fmt.Errorf("config: kernel %q: non-positive data_size %v", k.Name, k.DataSize)
		}
	}
	return nil
}

// SimulationConfig is the top-level simulation component configuration
// (Listing 2).
type SimulationConfig struct {
	Kernels []KernelSpec `json:"kernels"`
}

// Validate checks every kernel.
func (c *SimulationConfig) Validate() error {
	if len(c.Kernels) == 0 {
		return fmt.Errorf("config: simulation needs at least one kernel")
	}
	for i := range c.Kernels {
		if err := c.Kernels[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// AIConfig configures an AI component (§3.4): a feed-forward network
// trained for a prescribed number of iterations or duration.
type AIConfig struct {
	// Layers are the MLP widths, input first ("feed-forward,
	// fully-connected").
	Layers []int `json:"layers"`
	// LR is the SGD learning rate.
	LR float64 `json:"lr,omitempty"`
	// Batch is the per-rank minibatch size.
	Batch int `json:"batch,omitempty"`
	// RunTime: target duration per training iteration; like the
	// simulation kernels, real compute is padded to this duration so
	// the mini-app matches the profiled GNN iteration time.
	RunTime *DistSpec `json:"run_time,omitempty"`
	// Device is "cpu" or "xpu".
	Device string `json:"device,omitempty"`
}

// Validate applies defaults and checks ranges.
func (c *AIConfig) Validate() error {
	if len(c.Layers) < 2 {
		return fmt.Errorf("config: ai needs >= 2 layer widths, got %v", c.Layers)
	}
	for _, w := range c.Layers {
		if w < 1 {
			return fmt.Errorf("config: ai layer width %d", w)
		}
	}
	if c.LR < 0 {
		return fmt.Errorf("config: negative lr %v", c.LR)
	}
	if c.Batch < 0 {
		return fmt.Errorf("config: negative batch %d", c.Batch)
	}
	if _, err := kernels.ParseDevice(c.Device); err != nil {
		return err
	}
	if c.RunTime != nil {
		if _, err := c.RunTime.Sampler(); err != nil {
			return err
		}
	}
	return nil
}

// ParseSimulation decodes and validates a simulation config from JSON.
func ParseSimulation(data []byte) (SimulationConfig, error) {
	var c SimulationConfig
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("config: parse simulation: %w", err)
	}
	return c, c.Validate()
}

// LoadSimulation reads a simulation config file.
func LoadSimulation(path string) (SimulationConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SimulationConfig{}, fmt.Errorf("config: %w", err)
	}
	return ParseSimulation(data)
}

// ParseAI decodes and validates an AI config from JSON.
func ParseAI(data []byte) (AIConfig, error) {
	var c AIConfig
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("config: parse ai: %w", err)
	}
	return c, c.Validate()
}

// LoadAI reads an AI config file.
func LoadAI(path string) (AIConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return AIConfig{}, fmt.Errorf("config: %w", err)
	}
	return ParseAI(data)
}
