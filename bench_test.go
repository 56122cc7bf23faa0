// Package bench holds the top-level testing.B harness: the real-mode
// artifacts (Table 2/3, Fig 2, streaming) and single cells of the
// simulated families (scale-out, resilience, guardrails, campaign), each
// run end to end and reporting its headline quantities as custom
// metrics:
//
//	go test -bench=. -benchmem
//
// The figure sweeps are timed by benchmark/ (scenario.run_ms.*); their
// full rows/series come from `go run ./cmd/experiments -exp all`. See
// EXPERIMENTS.md for the paper-vs-measured record.
package bench

import (
	"context"
	"fmt"
	"testing"

	"simaibench/internal/clock"
	"simaibench/internal/datastore"
	"simaibench/internal/experiments"
	"simaibench/internal/scenario"
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

// BenchmarkTable2 regenerates Table 2 — the event-count comparison
// between the emulated original workflow and the mini-app — once per
// emulation clock. The wall/virtual ns-per-op ratio is the headline
// speedup of the virtual-time clock (recorded in BENCH_DES.json): the
// same two-component emulation, identical event structure, no real
// sleeping.
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

// BenchmarkTable3IterationStats regenerates Table 3: iteration-time
// mean/std for both modes (virtual clock — the default scenario path).
func BenchmarkTable3IterationStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		orig, err := experiments.RunValidation(context.Background(), validationCfg(experiments.Original, clock.KindVirtual))
		if err != nil {
			b.Fatal(err)
		}
		mini, err := experiments.RunValidation(context.Background(), validationCfg(experiments.MiniApp, clock.KindVirtual))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(orig.Sim.IterMean*1000, "orig-sim-iter-ms")
		b.ReportMetric(mini.Sim.IterMean*1000, "mini-sim-iter-ms")
		b.ReportMetric(orig.Sim.IterStd*1000, "orig-sim-std-ms")
		b.ReportMetric(mini.Sim.IterStd*1000, "mini-sim-std-ms")
	}
}

// BenchmarkFig2Timeline regenerates Fig 2: the execution-timeline
// rendering of a validation run.
func BenchmarkFig2Timeline(b *testing.B) {
	res, err := experiments.RunValidation(context.Background(), validationCfg(experiments.MiniApp, clock.KindVirtual))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink discard
		if err := res.Timeline.Render(&sink, 0, 0.25, 100); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Timeline.Spans())), "timeline-spans")
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkScaleOut tracks the multi-tenant subsystem: one shared-Redis
// scale-out point per tenant count, reporting the contention observables
// (mean staging latency and aggregate delivered throughput) so the perf
// trajectory of the co-scheduler + shared-queue path is recorded next to
// the single-tenant figures.
func BenchmarkScaleOut(b *testing.B) {
	for _, tenants := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			var pt experiments.ScaleOutPoint
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = experiments.RunScaleOutChecked(experiments.ScaleOutConfig{
					Tenants: tenants, Backend: datastore.Redis, SizeMB: 8, TrainIters: 200,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.StageMeanS*1000, "redis-8MB-stage-ms")
			b.ReportMetric(pt.AggGBps, "redis-8MB-agg-GBps")
		})
	}
}

// BenchmarkResilience runs the fault-injection campaign in its two
// regimes: healthy (MTBF=∞ — every rank carries a fault layer that
// stays silent) and a short failure-dominated checkpoint/restart cell.
// The healthy cell reports what BenchmarkScaleOut/tenants=4 reports and
// costs more (BenchmarkFaultLayerSilent says how much); the faulty cell
// adds injector events, checkpoint traffic and recovery reads.
func BenchmarkResilience(b *testing.B) {
	cells := []struct {
		name string
		cfg  experiments.ResilienceConfig
	}{
		{"mtbf=inf", experiments.ResilienceConfig{Backend: datastore.Redis, TrainIters: 200}},
		{"mtbf=20_ckpt=4", experiments.ResilienceConfig{
			Backend: datastore.Redis, TrainIters: 200, MTBFS: 20, CkptIntervalS: 4}},
	}
	for _, cell := range cells {
		b.Run(cell.name, func(b *testing.B) {
			var pt experiments.ResiliencePoint
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = experiments.RunResilienceChecked(cell.cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.WastedFrac, "wasted-frac")
			b.ReportMetric(pt.EffGBps, "eff-GBps")
			b.ReportMetric(float64(pt.Crashes), "crashes")
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

// BenchmarkStreaming regenerates the staged-polling vs streaming
// comparison (the registered scenario: three sizes × three methods) with
// real data movement, once per emulation clock: in
// wall mode the consumer genuinely sleeps its poll intervals; in
// virtual mode the same bytes move but every wait is a virtual-clock
// pad, so the benchmark runs at transfer speed.
func BenchmarkStreaming(b *testing.B) {
	for _, clk := range []string{clock.KindWall, clock.KindVirtual} {
		b.Run("clock="+clk, func(b *testing.B) {
			sc, _ := scenario.Lookup("streaming")
			for i := 0; i < b.N; i++ {
				if _, err := sc.Run(context.Background(), scenario.Params{Clock: clk}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGuardrails prices the run guardrails on a healthy sweep
// cell: one Fig 3 point (node-local, 8 MB, 8 nodes) with the DES event
// budget disarmed versus armed with a generous limit. An armed guard
// costs one branch per executed event and nothing else — the guard=on
// vs guard=off delta recorded in BENCH_DES.json is the zero-cost
// evidence, alongside the byte-identical-output tests
// (TestGuardrailsZeroCostOnHealthyRuns).
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

// BenchmarkCampaign runs the facility-scale scheduling campaign at the
// two interesting offered-load multiples: 0.7× capacity (the healthy
// operating point) and 1.2× (sustained overload, where discipline
// choice dominates the tails). The reported p99 slowdowns are the
// headline contract recorded in BENCH_DES.json: at overload the
// size-aware policies (SRPT, Hermod) hold the p99 slowdown an order of
// magnitude below FIFO at the same ≥0.9 utilization.
func BenchmarkCampaign(b *testing.B) {
	for _, load := range []float64{0.7, 1.2} {
		for _, pol := range []string{"fifo", "srpt", "hermod"} {
			b.Run(fmt.Sprintf("load=%.1f_policy=%s", load, pol), func(b *testing.B) {
				var pt experiments.CampaignPoint
				for i := 0; i < b.N; i++ {
					var err error
					pt, err = experiments.RunCampaignChecked(experiments.CampaignConfig{
						Load: load, Policy: pol, Jobs: 2000,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(pt.SlowP99, "p99-slowdown")
				b.ReportMetric(pt.WaitP99S, "p99-wait-s")
				b.ReportMetric(pt.Util, "util")
			})
		}
	}
}
