package experiments

import (
	"math/rand"
	"testing"

	"simaibench/internal/datastore"
)

// The harness-vs-oracle contract beyond the hand-picked grids of
// determinism_test.go: Pattern 1, Fig 6 and Fig 5 configs drawn at
// random must give points bit-equal to oraclePattern1, oracleFig6 and
// oracleFig5, and a healthy resilience run (MTBF ∞, no checkpoints) the
// scale-out point of the same config. The ranges are
// 1–16 nodes, write periods 1–40, read periods 1–15 and 30–180 training
// iterations, every backend the harness accepts; one draw in eight is a
// larger file-system cell (32–63 nodes for Pattern 1, 64–95 for Fig 6,
// 30–61 iterations), deep enough that the event queue turns on its delay
// lanes, so the oracle checks the lanes too. (Counted once with a
// throwaway counter over 400 draws of Pattern 1 and Fig 6 only: every
// deep draw turned them on, and so did 29 of the 172 ordinary Pattern 1
// draws, file-system cells of 8 nodes and more.) Fig 5 has two nodes and
// no periods: its draws take the backend, size and iteration count (as
// transfers). Resilience draws take the node count as tenants and no
// deep cells. Scale-out against the oracle is left out: its shared-Redis
// tie caveat (TestScaleOutMatchesReference) is not closed.

// The harnesses a draw can run.
const (
	kindPattern1 = iota
	kindFig6
	kindFig5
	kindResilience
	oracleKinds
)

// oracleCase is one draw, as raw bytes so the fuzzer can mutate it; cfg
// maps it into the ranges above.
type oracleCase struct {
	kind, nodes, backend, size, write, read, it uint8
}

// oracleSizes are the per-process sizes a draw picks from (MB).
var oracleSizes = []float64{0, 0.4, 1, 2, 8, 32}

// check runs the drawn config through the harness and the oracle and
// fails unless the two points are bit-equal.
func (c oracleCase) check(t *testing.T) {
	t.Helper()
	deep := c.nodes >= 224 // one in eight
	nodes, iters := 1+int(c.nodes)%16, 30+int(c.it)%151
	size := oracleSizes[int(c.size)%len(oracleSizes)]
	write, read := 1+int(c.write)%40, 1+int(c.read)%15
	backends := datastore.Backends()
	switch c.kind % oracleKinds {
	case kindFig5:
		cfg := Fig5Config{Backend: Pattern2Backends[int(c.backend)%len(Pattern2Backends)], SizeMB: size, Transfers: iters}
		if got, want := checked(t, RunFig5Checked, cfg), oracleFig5(cfg); got != want {
			t.Fatalf("%+v: harness %+v != oracle %+v", cfg, got, want)
		}
		return
	case kindResilience:
		b := backends[int(c.backend)%len(backends)]
		so := checked(t, RunScaleOutChecked, ScaleOutConfig{Tenants: nodes, Backend: b, SizeMB: size,
			WritePeriod: write, ReadPeriod: read, TrainIters: iters})
		cfg := ResilienceConfig{Tenants: nodes, Backend: b, SizeMB: size,
			WritePeriod: write, ReadPeriod: read, TrainIters: iters}
		re := checked(t, RunResilienceChecked, cfg)
		got := ScaleOutPoint{Tenants: re.Tenants, Backend: re.Backend, SizeMB: re.SizeMB,
			WriteGBps: re.WriteGBps, ReadGBps: re.ReadGBps, StageMeanS: re.StageMeanS, StageP50S: re.StageP50S,
			SharedWaitS: re.SharedWaitS, AggGBps: re.AggGBps, Writes: re.Writes}
		if got != so || re.Crashes != 0 || re.CkptWrites != 0 {
			t.Fatalf("%+v: healthy resilience %+v != scale-out %+v", cfg, re, so)
		}
		return
	case kindFig6:
		b := Pattern2Backends[int(c.backend)%len(Pattern2Backends)]
		if deep {
			nodes, b, iters = 64+int(c.nodes)%32, datastore.FileSystem, 30+int(c.it)%32
		}
		cfg := Fig6Config{Nodes: nodes, Backend: b, SizeMB: size, ReadPeriod: read, TrainIters: iters}
		writeEveryS := float64(write) * 0.0325 // solver iterations of the paper's length
		if got, want := checked(t, RunFig6Checked, cfg), oracleFig6(cfg, writeEveryS); got != want {
			t.Fatalf("%+v, writers every %g s: harness %+v != oracle %+v", cfg, writeEveryS, got, want)
		}
		return
	}
	b := backends[int(c.backend)%len(backends)]
	if deep {
		nodes, b, iters = 32+int(c.nodes)%32, datastore.FileSystem, 30+int(c.it)%32
	}
	cfg := Pattern1Config{Nodes: nodes, Backend: b, SizeMB: size, WritePeriod: write, ReadPeriod: read, TrainIters: iters}
	if got, want := checked(t, RunPattern1Checked, cfg), oraclePattern1(cfg); got != want {
		t.Fatalf("%+v: harness %+v != oracle %+v", cfg, got, want)
	}
}

// TestHarnessesMatchOracleRandomConfigs is the seeded sweep: a few
// seconds of random configs, a quarter of the draws per harness, each
// point bit-equal to its reference.
func TestHarnessesMatchOracleRandomConfigs(t *testing.T) {
	draws := 480
	if testing.Short() {
		draws = 80
	}
	rng := rand.New(rand.NewSource(2))
	b := func() uint8 { return uint8(rng.Intn(256)) }
	for i := 0; i < draws; i++ {
		oracleCase{kind: uint8(i % oracleKinds), nodes: b(), backend: b(), size: b(), write: b(), read: b(), it: b()}.check(t)
	}
}

// FuzzHarnessVsOracle walks the same space coverage-guided. CI runs it
// as a 10 s smoke
// (`go test -run FuzzHarnessVsOracle -fuzz=FuzzHarnessVsOracle -fuzztime=10s ./internal/experiments`).
func FuzzHarnessVsOracle(f *testing.F) {
	f.Add(uint8(kindPattern1), uint8(3), uint8(1), uint8(4), uint8(99), uint8(9), uint8(90))   // Pattern 1, paper periods
	f.Add(uint8(kindFig6), uint8(7), uint8(0), uint8(2), uint8(9), uint8(9), uint8(70))        // Fig 6, paper periods
	f.Add(uint8(kindPattern1), uint8(230), uint8(0), uint8(4), uint8(99), uint8(9), uint8(0))  // deep file-system Pattern 1
	f.Add(uint8(kindFig6), uint8(250), uint8(0), uint8(2), uint8(9), uint8(9), uint8(0))       // deep file-system Fig 6
	f.Add(uint8(kindPattern1), uint8(15), uint8(2), uint8(5), uint8(6), uint8(2), uint8(150))  // periods 7/3
	f.Add(uint8(kindFig5), uint8(0), uint8(1), uint8(5), uint8(0), uint8(0), uint8(20))        // Fig 5, 32 MB over the file system (metadata phases)
	f.Add(uint8(kindResilience), uint8(3), uint8(0), uint8(4), uint8(9), uint8(9), uint8(120)) // resilience, 4 tenants, scale-out periods
	f.Add(uint8(kindFig5), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint8(70))        // Fig 5, 0.4 MB over Redis
	f.Add(uint8(kindFig5), uint8(0), uint8(2), uint8(4), uint8(0), uint8(0), uint8(0))         // Fig 5, 8 MB over Dragon
	f.Fuzz(func(t *testing.T, kind, nodes, backend, size, write, read, it uint8) {
		oracleCase{kind: kind, nodes: nodes, backend: backend, size: size, write: write, read: read, it: it}.check(t)
	})
}
