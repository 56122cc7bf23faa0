// Package bench holds the four testing.B benchmarks that measure what
// the repo benchmark (benchmark/, `bash benchmark/run.sh`) cannot, each
// the command a doc cites for its number:
//
//	go test -run '^$' -bench . -benchmem .
//
// Every other figure — scenario and cell run times, serve latency and
// throughput, per-layer costs — comes from benchmark/. See EXPERIMENTS.md
// "Where the time goes".
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"simaibench/internal/clock"
	"simaibench/internal/datastore"
	"simaibench/internal/experiments"
	"simaibench/internal/scenario"
	"simaibench/internal/serve"
)

// validationCfg is a scaled-down validation run sized for benchmarking,
// parameterized by emulation clock. TimeScale 0.1 keeps the wall-mode
// run meaningful — padded iterations well above scheduler noise, yet
// still 10× compressed relative to the paper's native real-time mode —
// while the virtual run completes as fast as its real compute allows,
// so the measured wall/virtual ratio *understates* the speedup over an
// uncompressed run by 10×.
func validationCfg(mode experiments.ValidationMode, clk string) experiments.ValidationConfig {
	return experiments.ValidationConfig{
		Mode:         mode,
		TrainIters:   200,
		WritePeriod:  25,
		ReadPeriod:   5,
		PayloadBytes: 50_000,
		TimeScale:    0.1,
		Backend:      datastore.NodeLocal,
		SimInitS:     0.5,
		TrainInitS:   1.0,
		Clock:        clk,
	}
}

// BenchmarkTable2 runs Table 2's pair — the emulated original workflow
// and the mini-app — once per emulation clock. The wall/virtual ns-per-op
// ratio is the speed-up of the virtual-time clock (ARCHITECTURE.md "The
// two time domains"): the same two-component emulation with no real
// sleeping. benchmark/ runs the virtual clock only.
//
//	go test -run '^$' -bench Table2 -benchtime 3x .
func BenchmarkTable2(b *testing.B) {
	for _, clk := range []string{clock.KindWall, clock.KindVirtual} {
		b.Run("clock="+clk, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				orig, err := experiments.RunValidation(context.Background(), validationCfg(experiments.Original, clk))
				if err != nil {
					b.Fatal(err)
				}
				mini, err := experiments.RunValidation(context.Background(), validationCfg(experiments.MiniApp, clk))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(orig.Sim.Timesteps), "orig-sim-steps")
				b.ReportMetric(float64(mini.Sim.Timesteps), "mini-sim-steps")
				b.ReportMetric(float64(orig.Sim.TransportEvents), "orig-sim-events")
				b.ReportMetric(float64(mini.Sim.TransportEvents), "mini-sim-events")
			}
		})
	}
}

// BenchmarkFaultLayerSilent prices the fault layer on a run in which it
// never fires: the same 64-tenant node-local cell as a scale-out run
// (ranks carry no layer) and as a healthy resilience run (every rank
// carries one: a des.Hold for its wake-up, two CheckpointOps and two more
// Holds on a solver rank), at the scale-out periods and at Pattern 1's,
// where four trainer polls in five are skipped. The two report
// bit-identical observables (TestResilienceHealthyMatchesScaleOut); the
// ratio of their ns/op and allocs/op is why a rank carries the layer
// only when something can interrupt it (ARCHITECTURE.md "Fork or
// replace"):
//
//	go test -run '^$' -bench FaultLayerSilent -benchmem -benchtime 100x -count 3 .
func BenchmarkFaultLayerSilent(b *testing.B) {
	for _, periods := range []struct{ write, read int }{{10, 10}, {100, 10}} {
		name := fmt.Sprintf("write=%d_read=%d", periods.write, periods.read)
		b.Run(name+"/no-layer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunScaleOutChecked(experiments.ScaleOutConfig{
					Tenants: 64, Backend: datastore.NodeLocal, TrainIters: 300,
					WritePeriod: periods.write, ReadPeriod: periods.read,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/silent-layer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunResilienceChecked(experiments.ResilienceConfig{
					Tenants: 64, Backend: datastore.NodeLocal, TrainIters: 300,
					WritePeriod: periods.write, ReadPeriod: periods.read,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGuardrails prices the run guardrails on a healthy sweep
// cell: one Fig 3 point (node-local, 8 MB, 8 nodes) with the DES event
// budget disarmed versus armed with a generous limit. An armed guard
// costs one branch per executed event and nothing else; the outputs are
// byte-identical (TestGuardrailsZeroCostOnHealthyRuns):
//
//	go test -run '^$' -bench Guardrails -benchtime 3000x -count 8 .
func BenchmarkGuardrails(b *testing.B) {
	cfg := experiments.Pattern1Config{
		Nodes: 8, Backend: datastore.NodeLocal, SizeMB: 8, TrainIters: 300,
	}
	for _, guarded := range []bool{false, true} {
		name, c := "guard=off", cfg
		if guarded {
			name = "guard=on"
			c.MaxEvents = 1 << 40
		}
		b.Run(name, func(b *testing.B) {
			var pt experiments.Pattern1Point
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = experiments.RunPattern1Checked(c)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.WriteGBps, "write-GBps")
		})
	}
}

// BenchmarkServeColdMiss is one cold POST /v1/run in process, with no
// socket: the serve-cold key stream (fig5 at Transfers 20, 21, …, 256
// distinct cells) through the handler into a 64-entry cache, so every
// request is admitted, run, encoded and stored with an eviction. With
// -benchmem, B/op and allocs/op are what a cold request allocates
// (EXPERIMENTS.md "What a cold request costs").
func BenchmarkServeColdMiss(b *testing.B) {
	const keys, cacheSize = 256, 64
	bodies := make([][]byte, keys)
	for i := range bodies {
		body, err := json.Marshal(serve.RunRequest{Scenario: "fig5", Params: scenario.Params{Transfers: 20 + i}})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	s := serve.New(serve.Config{CacheSize: cacheSize})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	post := func(i int) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/run", bytes.NewReader(bodies[i%keys])))
		if got := rr.Header().Get("X-Cache"); got != "miss" {
			b.Fatalf("request %d: X-Cache %q (status %d), want miss", i, got, rr.Code)
		}
	}
	for i := range keys { // fill the cache so every timed request evicts
		post(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(keys + i)
	}
}
