package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"simaibench/internal/datastore"
	"simaibench/internal/scenario"
	"simaibench/internal/trace"
)

// --- Pattern 1 (Fig 3/4) shape tests against the paper's findings ---

func p1(t *testing.T, nodes int, b datastore.Backend, size float64) Pattern1Point {
	t.Helper()
	return checked(t, RunPattern1Checked, Pattern1Config{
		Nodes: nodes, Backend: b, SizeMB: size, TrainIters: 300,
	})
}

func TestFig3InMemoryNonMonotonicAt8Nodes(t *testing.T) {
	for _, b := range []datastore.Backend{datastore.NodeLocal, datastore.Dragon, datastore.Redis} {
		t04 := p1(t, 8, b, 0.4).WriteGBps
		t8 := p1(t, 8, b, 8).WriteGBps
		t32 := p1(t, 8, b, 32).WriteGBps
		if !(t8 > t04 && t32 < t8) {
			t.Errorf("%v: want rise-then-dip, got %.3f %.3f %.3f GB/s", b, t04, t8, t32)
		}
	}
}

func TestFig3FilesystemMonotonicAt8Nodes(t *testing.T) {
	prev := -1.0
	for _, size := range Fig3Sizes {
		pt := p1(t, 8, datastore.FileSystem, size)
		if pt.WriteGBps <= prev {
			t.Fatalf("filesystem write throughput not monotonic at %v MB: %v <= %v",
				size, pt.WriteGBps, prev)
		}
		prev = pt.WriteGBps
	}
}

func TestFig3FilesystemCollapsesAt512Nodes(t *testing.T) {
	// The paper's headline Pattern 1 result: FS degrades severely from 8
	// to 512 nodes, in-memory backends stay flat.
	fs8 := p1(t, 8, datastore.FileSystem, 8)
	fs512 := p1(t, 512, datastore.FileSystem, 8)
	if fs512.WriteGBps > fs8.WriteGBps/3 {
		t.Fatalf("filesystem did not collapse: %v -> %v GB/s", fs8.WriteGBps, fs512.WriteGBps)
	}
	nl8 := p1(t, 8, datastore.NodeLocal, 8)
	nl512 := p1(t, 512, datastore.NodeLocal, 8)
	ratio := nl512.WriteGBps / nl8.WriteGBps
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("node-local should be scale-stable: %v -> %v GB/s", nl8.WriteGBps, nl512.WriteGBps)
	}
}

func TestFig3BackendOrdering(t *testing.T) {
	// Node-local and Dragon excellent, Redis "not as performant".
	nl := p1(t, 8, datastore.NodeLocal, 8).WriteGBps
	dr := p1(t, 8, datastore.Dragon, 8).WriteGBps
	rd := p1(t, 8, datastore.Redis, 8).WriteGBps
	if !(nl >= dr && dr > rd) {
		t.Fatalf("ordering: node-local %v, dragon %v, redis %v", nl, dr, rd)
	}
}

func TestFig4NodeLocalTransferComparableToIteration(t *testing.T) {
	// "Even at the largest message size of 32 MB, the time for a single
	// data transfer is roughly equal to one computation iteration."
	pt := p1(t, 8, datastore.NodeLocal, 32)
	if pt.WriteMean > 3*pt.SimIterS || pt.WriteMean < pt.SimIterS/10 {
		t.Fatalf("node-local 32MB write %v vs iter %v: not comparable", pt.WriteMean, pt.SimIterS)
	}
	// ...and scale-stable from 8 to 512 nodes.
	pt512 := p1(t, 512, datastore.NodeLocal, 32)
	if pt512.WriteMean > pt.WriteMean*1.5 {
		t.Fatalf("node-local transfer grew with scale: %v -> %v", pt.WriteMean, pt512.WriteMean)
	}
}

func TestFig4FilesystemOrderOfMagnitudeAt512(t *testing.T) {
	// "At this larger scale ... the transfer time becoming approximately
	// an order of magnitude larger than one iteration."
	pt := p1(t, 512, datastore.FileSystem, 32)
	if pt.WriteMean < 4*pt.SimIterS {
		t.Fatalf("filesystem 32MB write at 512 nodes = %v, want >> iter %v",
			pt.WriteMean, pt.SimIterS)
	}
	// While at 8 nodes it is comparable to an iteration.
	pt8 := p1(t, 8, datastore.FileSystem, 32)
	if pt8.WriteMean > 3*pt8.SimIterS {
		t.Fatalf("filesystem 32MB write at 8 nodes = %v, want ~iter %v",
			pt8.WriteMean, pt8.SimIterS)
	}
}

func TestPattern1EventCountsReasonable(t *testing.T) {
	pt := checked(t, RunPattern1Checked, Pattern1Config{Nodes: 8, Backend: datastore.NodeLocal, SizeMB: 2, TrainIters: 600})
	if pt.Writes == 0 || pt.Reads == 0 {
		t.Fatalf("no transport events: %+v", pt)
	}
	// 48 sim ranks × (600·0.0633 / (100·0.0325)) ≈ 48 × 11.7 ≈ 560 writes.
	if pt.Writes < 300 || pt.Writes > 900 {
		t.Fatalf("write events = %d, want ~560", pt.Writes)
	}
}

// writeTable renders one table in the text layout, as the scenario
// reporters do.
func writeTable(t *testing.T, w io.Writer, tab scenario.Table) {
	t.Helper()
	if err := scenario.WriteTable(w, tab); err != nil {
		t.Fatal(err)
	}
}

func TestPrintFig3Fig4(t *testing.T) {
	p := scenario.Params{SweepIters: 100}
	points, fails, err := pattern1Grid(bg, p, "fig3", datastore.Backends(), 8)
	gridOK(t, fails, err)
	var buf bytes.Buffer
	writeTable(t, &buf, fig3Table(8, points))
	out := buf.String()
	for _, want := range []string{"redis", "filesystem", "dragon", "node-local", "read(GB/s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig3 output missing %q:\n%s", want, out)
		}
	}
	var buf4 bytes.Buffer
	fig4Points, fails, err := pattern1Grid(bg, p, "fig4", Fig4Backends, 8)
	gridOK(t, fails, err)
	writeTable(t, &buf4, fig4Table(8, fig4Points))
	if !strings.Contains(buf4.String(), "sim-iter(s)") {
		t.Fatalf("fig4 output malformed:\n%s", buf4.String())
	}
}

// --- Pattern 2 (Fig 5/6) shape tests ---

func TestFig5RedisNonLocalReadPoor(t *testing.T) {
	rd := checked(t, RunFig5Checked, Fig5Config{Backend: datastore.Redis, SizeMB: 8})
	dr := checked(t, RunFig5Checked, Fig5Config{Backend: datastore.Dragon, SizeMB: 8})
	if rd.ReadGBps > dr.ReadGBps/3 {
		t.Fatalf("redis read %v should be << dragon %v", rd.ReadGBps, dr.ReadGBps)
	}
	// But redis local write is reasonable (comparable to its Fig 3 profile).
	if rd.WriteGBps < rd.ReadGBps {
		t.Fatalf("redis local write %v should beat its non-local read %v",
			rd.WriteGBps, rd.ReadGBps)
	}
}

func TestFig5DragonPeaksNear10MB(t *testing.T) {
	t1 := checked(t, RunFig5Checked, Fig5Config{Backend: datastore.Dragon, SizeMB: 1}).ReadGBps
	t10 := checked(t, RunFig5Checked, Fig5Config{Backend: datastore.Dragon, SizeMB: 10}).ReadGBps
	t128 := checked(t, RunFig5Checked, Fig5Config{Backend: datastore.Dragon, SizeMB: 128}).ReadGBps
	if !(t10 > t1 && t128 < t10) {
		t.Fatalf("dragon read should peak near 10MB: %v %v %v", t1, t10, t128)
	}
}

func TestFig5FSApproachesDragonAtLargeSizes(t *testing.T) {
	gap := func(size float64) float64 {
		fs := checked(t, RunFig5Checked, Fig5Config{Backend: datastore.FileSystem, SizeMB: size}).ReadGBps
		dr := checked(t, RunFig5Checked, Fig5Config{Backend: datastore.Dragon, SizeMB: size}).ReadGBps
		return dr / fs
	}
	if small, large := gap(1), gap(128); large >= small/1.5 {
		t.Fatalf("FS should close on dragon with size: gap %v -> %v", small, large)
	}
}

func TestFig6At8NodesDragonAndFSComparable(t *testing.T) {
	// "At this scale, the DragonHPC and file system backends perform
	// equally well."
	dr := checked(t, RunFig6Checked, Fig6Config{Nodes: 8, Backend: datastore.Dragon, SizeMB: 4, TrainIters: 200})
	fs := checked(t, RunFig6Checked, Fig6Config{Nodes: 8, Backend: datastore.FileSystem, SizeMB: 4, TrainIters: 200})
	ratio := dr.ExecPerIterS / fs.ExecPerIterS
	if ratio > 1.5 || ratio < 0.5 {
		t.Fatalf("8-node dragon/fs ratio = %v (%v vs %v)", ratio, dr.ExecPerIterS, fs.ExecPerIterS)
	}
}

func TestFig6At128NodesDragonLagsFSAtSmallSizes(t *testing.T) {
	// "For message sizes less than 10 MB, DragonHPC runtime is
	// significantly longer than the file system."
	dr := checked(t, RunFig6Checked, Fig6Config{Nodes: 128, Backend: datastore.Dragon, SizeMB: 1, TrainIters: 200})
	fs := checked(t, RunFig6Checked, Fig6Config{Nodes: 128, Backend: datastore.FileSystem, SizeMB: 1, TrainIters: 200})
	if dr.FetchMeanS < 2*fs.FetchMeanS {
		t.Fatalf("dragon fetch %v should be >= 2x fs %v at 1MB/128 nodes",
			dr.FetchMeanS, fs.FetchMeanS)
	}
	// "For larger message sizes, both DragonHPC and the file system show
	// similar performance."
	drBig := checked(t, RunFig6Checked, Fig6Config{Nodes: 128, Backend: datastore.Dragon, SizeMB: 128, TrainIters: 100})
	fsBig := checked(t, RunFig6Checked, Fig6Config{Nodes: 128, Backend: datastore.FileSystem, SizeMB: 128, TrainIters: 100})
	ratio := drBig.ExecPerIterS / fsBig.ExecPerIterS
	if ratio > 2.5 {
		t.Fatalf("large-size dragon/fs should converge: ratio %v", ratio)
	}
}

func TestFig6RedisSlowestEverywhere(t *testing.T) {
	for _, nodes := range []int{8, 128} {
		for _, size := range []float64{1, 32} {
			rd := checked(t, RunFig6Checked, Fig6Config{Nodes: nodes, Backend: datastore.Redis, SizeMB: size, TrainIters: 100})
			dr := checked(t, RunFig6Checked, Fig6Config{Nodes: nodes, Backend: datastore.Dragon, SizeMB: size, TrainIters: 100})
			fs := checked(t, RunFig6Checked, Fig6Config{Nodes: nodes, Backend: datastore.FileSystem, SizeMB: size, TrainIters: 100})
			if rd.FetchMeanS < dr.FetchMeanS || rd.FetchMeanS < fs.FetchMeanS {
				t.Fatalf("nodes=%d size=%v: redis fetch %v not slowest (dragon %v, fs %v)",
					nodes, size, rd.FetchMeanS, dr.FetchMeanS, fs.FetchMeanS)
			}
		}
	}
}

func TestFig6ExecTimeIncludesCompute(t *testing.T) {
	// With tiny messages the trainer should be compute-bound near its
	// iteration time (the flat left side of Fig 6a).
	pt := checked(t, RunFig6Checked, Fig6Config{Nodes: 8, Backend: datastore.FileSystem, SizeMB: 0.4, TrainIters: 200})
	if pt.ExecPerIterS < 0.0633 {
		t.Fatalf("exec/iter %v below pure compute 0.0633", pt.ExecPerIterS)
	}
	if pt.ExecPerIterS > 0.0633*2 {
		t.Fatalf("exec/iter %v should be near compute floor for tiny messages", pt.ExecPerIterS)
	}
}

func TestPrintFig5Fig6(t *testing.T) {
	var buf bytes.Buffer
	fig5Points, fails, err := fig5Grid(bg, scenario.Params{Transfers: 10})
	gridOK(t, fails, err)
	writeTable(t, &buf, fig5Table(fig5Points))
	if !strings.Contains(buf.String(), "non-local read") {
		t.Fatalf("fig5 output malformed:\n%s", buf.String())
	}
	var buf6 bytes.Buffer
	fig6Points, fails, err := fig6Grid(bg, scenario.Params{SweepIters: 100}, 8)
	gridOK(t, fails, err)
	writeTable(t, &buf6, fig6Table(8, fig6Points))
	if !strings.Contains(buf6.String(), "exec/iter(s)") {
		t.Fatalf("fig6 output malformed:\n%s", buf6.String())
	}
}

// --- Validation (Tables 2/3, Fig 2) ---

// smallValidation runs a scaled-down validation quickly.
func smallValidation(t *testing.T, mode ValidationMode) *ValidationResult {
	t.Helper()
	res, err := RunValidation(bg, ValidationConfig{
		Mode:         mode,
		TrainIters:   300,
		WritePeriod:  25,
		ReadPeriod:   5,
		PayloadBytes: 50_000,
		// A gentle compression: aggressive scales push padded iteration
		// targets below the scheduler noise floor on small machines and
		// the Table-3 variance comparison washes out.
		TimeScale:  0.01,
		Backend:    datastore.NodeLocal,
		SimInitS:   0.5,
		TrainInitS: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidationTrainerRunsExactIterations(t *testing.T) {
	res := smallValidation(t, MiniApp)
	if res.Train.Timesteps != 300 {
		t.Fatalf("train steps = %d, want exactly 300", res.Train.Timesteps)
	}
}

func TestValidationSimStopsAfterSteering(t *testing.T) {
	res := smallValidation(t, MiniApp)
	// Sim runs ~ (300·0.061)/0.0315 ≈ 580 steps before the stop signal.
	if res.Sim.Timesteps < 300 || res.Sim.Timesteps > 1200 {
		t.Fatalf("sim steps = %d, want ~580", res.Sim.Timesteps)
	}
}

func TestValidationTransportEventCounts(t *testing.T) {
	res := smallValidation(t, MiniApp)
	// Two staged arrays per write period on the sim side.
	expWrites := 2 * (res.Sim.Timesteps / 25)
	if res.Sim.TransportEvents < expWrites-4 || res.Sim.TransportEvents > expWrites+4 {
		t.Fatalf("sim transport = %d, want ~%d", res.Sim.TransportEvents, expWrites)
	}
	// The trainer reads each fresh snapshot once (2 events each); it can
	// never read more snapshots than were written.
	if res.Train.TransportEvents == 0 || res.Train.TransportEvents > res.Sim.TransportEvents+4 {
		t.Fatalf("train transport = %d vs sim %d", res.Train.TransportEvents, res.Sim.TransportEvents)
	}
}

func TestValidationMiniAppLowStd(t *testing.T) {
	// Table 3's signature: the mini-app holds iteration time nearly
	// constant while the original varies widely.
	// Wall-clock variance assertions are inherently sensitive to outside
	// load (the suite shares one machine with parallel test binaries), so
	// allow a couple of retries: a genuine regression fails all attempts.
	const attempts = 3
	var lastErr string
	for attempt := 0; attempt < attempts; attempt++ {
		mini := smallValidation(t, MiniApp)
		orig := smallValidation(t, Original)
		switch {
		case mini.Train.IterStd > mini.Train.IterMean*0.6:
			lastErr = fmt.Sprintf("mini-app train std %v too high (mean %v)",
				mini.Train.IterStd, mini.Train.IterMean)
		case orig.Sim.IterStd < 1.5*mini.Sim.IterStd:
			lastErr = fmt.Sprintf("original sim std %v should clearly exceed mini-app %v",
				orig.Sim.IterStd, mini.Sim.IterStd)
		case math.Abs(orig.Train.IterMean-mini.Train.IterMean) > 0.03:
			lastErr = fmt.Sprintf("train iter means diverge: %v vs %v",
				orig.Train.IterMean, mini.Train.IterMean)
		default:
			return // all Table 3 properties hold
		}
		t.Logf("attempt %d: %s", attempt, lastErr)
	}
	t.Fatal(lastErr)
}

func TestValidationTimelinePopulated(t *testing.T) {
	res := smallValidation(t, MiniApp)
	var simTransfers, trainComputes int
	for _, s := range res.Timeline.Spans() {
		switch {
		case s.Lane == "Simulation" && s.Kind == trace.KindTransfer:
			simTransfers++
		case s.Lane == "Training" && s.Kind == trace.KindCompute:
			trainComputes++
		}
	}
	if simTransfers == 0 {
		t.Fatal("no sim transfer spans on timeline")
	}
	if trainComputes == 0 {
		t.Fatal("no training compute spans on timeline")
	}
}

func TestValidationPrinters(t *testing.T) {
	mini := smallValidation(t, MiniApp)
	orig := smallValidation(t, Original)
	var buf bytes.Buffer
	writeTable(t, &buf, table2Table(orig, mini))
	writeTable(t, &buf, table3Table(orig, mini))
	timelines, err := fig2Tables(orig, mini, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range timelines {
		writeTable(t, &buf, tab)
	}
	out := buf.String()
	for _, want := range []string{"Table 2", "Table 3", "Original", "Mini-app", "Fig 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("validation output missing %q:\n%s", want, out)
		}
	}
}

func TestValidationAcrossBackends(t *testing.T) {
	// The mini-app's event structure must be backend-independent: the
	// same workflow over Redis, Dragon and node-local staging produces
	// the same trainer iteration count and closely matching transport
	// event counts (transport *performance* differs; structure must not).
	var results []*ValidationResult
	for _, b := range []datastore.Backend{datastore.NodeLocal, datastore.Redis, datastore.Dragon} {
		res, err := RunValidation(bg, ValidationConfig{
			Mode: MiniApp, TrainIters: 200, WritePeriod: 25, ReadPeriod: 5,
			PayloadBytes: 20_000, TimeScale: 0.01, Backend: b,
			SimInitS: 0.2, TrainInitS: 0.4,
		})
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if res.Train.Timesteps != 200 {
			t.Fatalf("%v: train steps = %d", b, res.Train.Timesteps)
		}
		results = append(results, res)
	}
	for _, res := range results[1:] {
		// Sim step counts vary slightly with backend write latency; the
		// events-per-step structure must agree within a few snapshots.
		ratio0 := float64(results[0].Sim.TransportEvents) / float64(results[0].Sim.Timesteps)
		ratioB := float64(res.Sim.TransportEvents) / float64(res.Sim.Timesteps)
		if math.Abs(ratio0-ratioB) > 0.02 {
			t.Fatalf("event structure differs across backends: %v vs %v", ratio0, ratioB)
		}
	}
}
