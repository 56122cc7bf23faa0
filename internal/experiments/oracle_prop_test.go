package experiments

import (
	"math/rand"
	"testing"

	"simaibench/internal/datastore"
)

// The harness-vs-oracle contract beyond the hand-picked grids of
// determinism_test.go: Pattern 1 and Fig 6 configs drawn at random must
// give points bit-equal to oraclePattern1 and oracleFig6. The ranges are
// 1–16 nodes, write periods 1–40, read periods 1–15 and 30–180 training
// iterations, every backend the harness accepts; one draw in eight is a
// larger file-system cell (32–63 nodes for Pattern 1, 64–95 for Fig 6,
// 30–61 iterations), deep enough that the event queue turns on its delay
// lanes, so the oracle checks the lanes too. (Counted once with a
// throwaway counter over the first 400 draws of the seeded sweep: every
// deep draw turned them on, and so did 29 of the 172 ordinary Pattern 1
// draws, file-system cells of 8 nodes and more.) Scale-out is left out: its
// shared-Redis tie caveat (TestScaleOutMatchesReference) is not closed.

// oracleCase is one draw, as raw bytes so the fuzzer can mutate it; cfg
// maps it into the ranges above.
type oracleCase struct {
	fig6                                  bool
	nodes, backend, size, write, read, it uint8
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
	if c.fig6 {
		b := Pattern2Backends[int(c.backend)%len(Pattern2Backends)]
		if deep {
			nodes, b, iters = 64+int(c.nodes)%32, datastore.FileSystem, 30+int(c.it)%32
		}
		cfg := Fig6Config{Nodes: nodes, Backend: b, SizeMB: size, WritePeriod: write, ReadPeriod: read, TrainIters: iters}
		if got, want := checked(t, RunFig6Checked, cfg), oracleFig6(cfg); got != want {
			t.Fatalf("%+v: harness %+v != oracle %+v", cfg, got, want)
		}
		return
	}
	backends := datastore.Backends()
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
// seconds of random Pattern 1 and Fig 6 configs, each bit-equal to the
// oracle.
func TestHarnessesMatchOracleRandomConfigs(t *testing.T) {
	draws := 240
	if testing.Short() {
		draws = 40
	}
	rng := rand.New(rand.NewSource(2))
	b := func() uint8 { return uint8(rng.Intn(256)) }
	for i := 0; i < draws; i++ {
		oracleCase{fig6: i%2 == 1, nodes: b(), backend: b(), size: b(), write: b(), read: b(), it: b()}.check(t)
	}
}

// FuzzHarnessVsOracle walks the same space coverage-guided. CI runs it
// as a 10 s smoke
// (`go test -run FuzzHarnessVsOracle -fuzz=FuzzHarnessVsOracle -fuzztime=10s ./internal/experiments`).
func FuzzHarnessVsOracle(f *testing.F) {
	f.Add(false, uint8(3), uint8(1), uint8(4), uint8(99), uint8(9), uint8(90))  // Pattern 1, paper periods
	f.Add(true, uint8(7), uint8(0), uint8(2), uint8(9), uint8(9), uint8(70))    // Fig 6, paper periods
	f.Add(false, uint8(230), uint8(0), uint8(4), uint8(99), uint8(9), uint8(0)) // deep file-system Pattern 1
	f.Add(true, uint8(250), uint8(0), uint8(2), uint8(9), uint8(9), uint8(0))   // deep file-system Fig 6
	f.Add(false, uint8(15), uint8(2), uint8(5), uint8(6), uint8(2), uint8(150)) // periods 7/3
	f.Fuzz(func(t *testing.T, fig6 bool, nodes, backend, size, write, read, it uint8) {
		oracleCase{fig6: fig6, nodes: nodes, backend: backend, size: size, write: write, read: read, it: it}.check(t)
	})
}
