package experiments

import (
	"testing"

	"simaibench/internal/clock"
	"simaibench/internal/datastore"
	"simaibench/internal/scenario"
)

// BenchmarkTable2 runs Table 2's pair — the emulated original workflow
// and the mini-app — once per emulation clock, scaled down from
// validationRun: 200 training iterations, periods 25/5, 50 kB arrays on
// node-local staging, 0.5 s / 1 s of initialization. TimeScale 0.1 keeps
// the wall-mode run meaningful — padded iterations well above scheduler
// noise, yet still 10× compressed relative to the paper's native
// real-time mode — while the virtual run completes as fast as its real
// compute allows, so the wall/virtual ns-per-op ratio, the speed-up of
// the virtual-time clock (ARCHITECTURE.md "The two time domains"),
// *understates* the speed-up over an uncompressed run by 10×.
// benchmark/ runs the virtual clock only.
//
//	go test -run '^$' -bench Table2 -benchtime 3x ./internal/experiments/
func BenchmarkTable2(b *testing.B) {
	for _, clk := range []string{clock.KindWall, clock.KindVirtual} {
		b.Run("clock="+clk, func(b *testing.B) {
			var runs [2]OneToOneResult
			for i := 0; i < b.N; i++ {
				for mode := range runs {
					cfg := validationRun(ValidationMode(mode), scenario.Params{TrainIters: 200, TimeScale: 0.1, Clock: clk})
					cfg.WritePeriod, cfg.ReadPeriod = 25, 5
					cfg.ArrayBytes = []int{50_000, 50_000 / 8}
					cfg.Backend = datastore.NodeLocal
					cfg.SimInitS, cfg.TrainInitS = 0.5, 1.0
					r, err := RunOneToOne(bg, cfg)
					if err != nil {
						b.Fatal(err)
					}
					runs[mode] = r
				}
				orig, mini := runs[Original].Sim, runs[MiniApp].Sim
				b.ReportMetric(float64(orig.Iterations), "orig-sim-steps")
				b.ReportMetric(float64(mini.Iterations), "mini-sim-steps")
				b.ReportMetric(float64(orig.Writes+orig.Reads), "orig-sim-events")
				b.ReportMetric(float64(mini.Writes+mini.Reads), "mini-sim-events")
			}
		})
	}
}
