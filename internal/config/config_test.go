package config

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// listing2 is the paper's published nekRS emulation configuration.
const listing2 = `{
  "kernels": [
    {
      "name": "nekrs_iter",
      "run_time": 0.03147,
      "data_size": [256, 256],
      "mini_app_kernel": "MatMulSimple2D",
      "device": "xpu"
    }
  ]
}`

func TestParseListing2(t *testing.T) {
	c, err := ParseSimulation([]byte(listing2))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Kernels) != 1 {
		t.Fatalf("kernels = %d", len(c.Kernels))
	}
	k := c.Kernels[0]
	if k.Name != "nekrs_iter" || k.Kernel != "MatMulSimple2D" || k.Device != "xpu" {
		t.Fatalf("kernel = %+v", k)
	}
	if len(k.DataSize) != 2 || k.DataSize[0] != 256 {
		t.Fatalf("data_size = %v", k.DataSize)
	}
	if k.RunTime.Type != "fixed" || k.RunTime.Value != 0.03147 {
		t.Fatalf("run_time = %+v", k.RunTime)
	}
	s, err := k.RunTime.Sampler()
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean() != 0.03147 {
		t.Fatalf("sampler mean = %v", s.Mean())
	}
}

func TestDistSpecForms(t *testing.T) {
	cases := []struct {
		name string
		js   string
		mean float64
		tol  float64
	}{
		{"bare-number", `0.5`, 0.5, 0},
		{"discrete", `{"type":"discrete","values":[1,3],"weights":[1,1]}`, 2, 0},
		{"implicit-discrete", `{"values":[2,4],"weights":[1,1]}`, 3, 0},
		{"lognormal", `{"type":"lognormal","mean":0.0312,"std":0.0273}`, 0.0312, 1e-9},
		{"normal", `{"type":"normal","mean":0.03,"std":0.001}`, 0.03, 1e-9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d DistSpec
			if err := json.Unmarshal([]byte(tc.js), &d); err != nil {
				t.Fatal(err)
			}
			s, err := d.Sampler()
			if err != nil {
				t.Fatal(err)
			}
			if diff := s.Mean() - tc.mean; diff > tc.tol || diff < -tc.tol {
				t.Fatalf("mean = %v, want %v", s.Mean(), tc.mean)
			}
		})
	}
}

func TestDistSpecMarshalRoundTrip(t *testing.T) {
	var d DistSpec
	if err := json.Unmarshal([]byte(`0.25`), &d); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "0.25" {
		t.Fatalf("fixed marshals to %s, want 0.25", out)
	}
}

func TestDistSpecRejectsGarbage(t *testing.T) {
	var d DistSpec
	if err := json.Unmarshal([]byte(`"fast"`), &d); err == nil {
		t.Fatal("string distribution accepted")
	}
	if err := json.Unmarshal([]byte(`{"type":"zipf"}`), &d); err != nil {
		t.Fatal(err) // decodes fine...
	}
	if _, err := d.Sampler(); err == nil {
		t.Fatal("unknown distribution type compiled") // ...but does not compile
	}
}

func TestSamplerDeterministic(t *testing.T) {
	var d DistSpec
	json.Unmarshal([]byte(`{"type":"lognormal","mean":1,"std":0.5}`), &d)
	s, _ := d.Sampler()
	a := s.Sample(rand.New(rand.NewSource(3)))
	b := s.Sample(rand.New(rand.NewSource(3)))
	if a != b {
		t.Fatal("sampler not deterministic under fixed seed")
	}
}

func TestSimulationValidation(t *testing.T) {
	bad := []string{
		`{"kernels":[]}`, // empty
		`{"kernels":[{"name":"x","mini_app_kernel":"NoSuchKernel","run_time":1}]}`,
		`{"kernels":[{"name":"","mini_app_kernel":"AXPY","run_time":1}]}`,
		`{"kernels":[{"name":"x","mini_app_kernel":"AXPY"}]}`, // no run_time/run_count
		`{"kernels":[{"name":"x","mini_app_kernel":"AXPY","run_time":1,"device":"abacus"}]}`,
		`{"kernels":[{"name":"x","mini_app_kernel":"AXPY","run_time":1,"data_size":[0]}]}`,
		`{"kernels":[{"name":"x","mini_app_kernel":"AXPY","run_time":-0.1}]}`,
		`{"kernels":[{"name":"x","mini_app_kernel":"AXPY","run_time":{"values":[-0.5]}}]}`,
		`{"kernels":[{"name":"x","mini_app_kernel":"AXPY","run_time":{"type":"discrete","values":[0.1,-0.5],"weights":[1,1]}}]}`,
		`{"kernels":[{"name":"x","mini_app_kernel":"AXPY","run_count":-2}]}`,
		`{"kernels":[{"name":"x","mini_app_kernel":"AXPY","run_count":{"values":[3,-1]}}]}`,
	}
	for _, js := range bad {
		if _, err := ParseSimulation([]byte(js)); err == nil {
			t.Errorf("accepted invalid config: %s", js)
		}
	}
}

func TestRunCountConfig(t *testing.T) {
	js := `{"kernels":[{"name":"gemm","mini_app_kernel":"MatMulGeneral","run_count":3,"data_size":[16,16,16]}]}`
	c, err := ParseSimulation([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	if c.Kernels[0].RunCount == nil || c.Kernels[0].RunCount.Value != 3 {
		t.Fatalf("run_count = %+v", c.Kernels[0].RunCount)
	}
}

func TestLoadSimulationFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sim.json")
	if err := os.WriteFile(path, []byte(listing2), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadSimulation(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kernels[0].Name != "nekrs_iter" {
		t.Fatalf("kernel = %+v", c.Kernels[0])
	}
	if _, err := LoadSimulation(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestAIConfig(t *testing.T) {
	js := `{"layers":[64,128,8],"lr":0.01,"batch":32,"run_time":0.061,"device":"xpu"}`
	c, err := ParseAI([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Layers) != 3 || c.Layers[1] != 128 || c.Batch != 32 {
		t.Fatalf("ai config = %+v", c)
	}
	if c.RunTime == nil || c.RunTime.Value != 0.061 {
		t.Fatalf("run_time = %+v", c.RunTime)
	}
}

func TestAIValidation(t *testing.T) {
	bad := []string{
		`{"layers":[64]}`,
		`{"layers":[64,0,8]}`,
		`{"layers":[64,8],"lr":-1}`,
		`{"layers":[64,8],"batch":-2}`,
		`{"layers":[64,8],"device":"quantum"}`,
		`{"layers":[64,8],"run_time":-0.1}`,
		`{"layers":[64,8],"run_time":{"values":[-0.5]}}`,
	}
	for _, js := range bad {
		if _, err := ParseAI([]byte(js)); err == nil {
			t.Errorf("accepted invalid ai config: %s", js)
		}
	}
}

func TestLoadAIFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ai.json")
	os.WriteFile(path, []byte(`{"layers":[4,4]}`), 0o644)
	if _, err := LoadAI(path); err != nil {
		t.Fatal(err)
	}
}
