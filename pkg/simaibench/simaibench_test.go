package simaibench

import (
	"context"
	"testing"
)

// TestListing1Workflow reproduces the paper's Listing 1 end to end
// through the public API: a server deployment, two components with a
// dependency, cross-component staging, launch, teardown.
func TestListing1Workflow(t *testing.T) {
	mgr, info, err := StartBackend(NodeLocal, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	cfg, err := ParseSimulationConfig([]byte(`{
		"kernels": [{
			"name": "iter",
			"mini_app_kernel": "MatMulSimple2D",
			"run_time": 0.001,
			"data_size": [32, 32],
			"device": "xpu"
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}

	w := NewWorkflow("listing1")
	err = w.Register(Component{
		Name:  "sim",
		Type:  Remote,
		Ranks: 2,
		Body: func(ctx Ctx) error {
			store, err := Connect(info)
			if err != nil {
				return err
			}
			defer store.Close()
			sim, err := NewSimulation("sim", cfg, SimWithStore(store), SimWithComm(ctx.Comm))
			if err != nil {
				return err
			}
			if err := sim.Run(3); err != nil {
				return err
			}
			if ctx.Comm.Rank() == 0 {
				return sim.StageWrite("key1", []byte("value1"))
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Register(Component{
		Name: "sim2",
		Deps: []string{"sim"},
		Body: func(ctx Ctx) error {
			store, err := Connect(info)
			if err != nil {
				return err
			}
			defer store.Close()
			sim, err := NewSimulation("sim2", cfg, SimWithStore(store))
			if err != nil {
				return err
			}
			v, err := sim.StageRead("key1")
			if err != nil {
				return err
			}
			if string(v) != "value1" {
				t.Errorf("staged value = %q", v)
			}
			if err := sim.StageWrite("key2", []byte("value2")); err != nil {
				return err
			}
			return sim.Run(2)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	// key2 visible after the workflow completes.
	store, err := Connect(info)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	v, err := store.StageRead("key2")
	if err != nil || string(v) != "value2" {
		t.Fatalf("key2 = %q, %v", v, err)
	}
}

func TestPublicAIRoundTrip(t *testing.T) {
	mgr, info, err := StartBackend(NodeLocal, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	store, err := Connect(info)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	trainer, err := NewAI("trainer", AIConfig{Layers: []int{4, 8, 2}}, AIWithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 40)
	if err := store.StageWrite("snap", EncodeFloat64s(data)); err != nil {
		t.Fatal(err)
	}
	if err := trainer.UpdateLoader("snap"); err != nil {
		t.Fatal(err)
	}
	if trainer.LoaderSize() != 10 {
		t.Fatalf("loader = %d", trainer.LoaderSize())
	}
	for range 3 {
		if _, err := trainer.TrainIteration(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParseBackendPublic(t *testing.T) {
	for _, b := range Backends() {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("round trip %v failed: %v", b, err)
		}
	}
}
