package des

import (
	"math/rand"
	"reflect"
	"testing"
)

// Property layer for the share-nothing engine: k randomized LPs of
// chattering machines, run as one LPSet at several worker counts, must
// produce per-machine timestamp traces identical to each LP run alone
// on a fresh Env. This is the engine's whole contract: the fan-out is a
// pure execution strategy, never observable in results.

// lpWorkload is one LP's generated scenario: n machines with start
// offsets, periods, fire counts, and a send pattern within the LP.
type lpWorkload struct {
	starts  []float64
	periods []float64
	counts  []int
	// sendEvery: machine i messages machine (i+1)%n on every k-th fire
	// (0 = never).
	sendEvery []int
	sendDelay []float64
}

func genLPWorkload(rng *rand.Rand, n int) lpWorkload {
	w := lpWorkload{
		starts:    make([]float64, n),
		periods:   make([]float64, n),
		counts:    make([]int, n),
		sendEvery: make([]int, n),
		sendDelay: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		w.starts[i] = rng.Float64()
		// Quantized periods create plenty of exact time ties across
		// machines, and across LPs that share nothing but the grid.
		w.periods[i] = float64(1+rng.Intn(8)) * 0.125
		w.counts[i] = 1 + rng.Intn(40)
		w.sendEvery[i] = rng.Intn(4) // 0 = never
		w.sendDelay[i] = float64(rng.Intn(8)) * 0.25
	}
	return w
}

// buildLP instantiates the workload on env, returning one timestamp
// trace per machine (fires and receipts interleaved in local order).
func buildLP(env *Env, wl lpWorkload) [][]float64 {
	n := len(wl.starts)
	traces := make([][]float64, n)
	for i := 0; i < n; i++ {
		i := i
		next := (i + 1) % n
		receive := func() { traces[next] = append(traces[next], env.Now()) }
		fires := 0
		var fire func()
		fire = func() {
			traces[i] = append(traces[i], env.Now())
			fires++
			if wl.sendEvery[i] > 0 && fires%wl.sendEvery[i] == 0 {
				env.After(wl.sendDelay[i], receive)
			}
			if fires < wl.counts[i] {
				env.After(wl.periods[i], fire)
			}
		}
		env.At(wl.starts[i], fire)
	}
	return traces
}

// TestLPRandomWorkloadsMatchSequential: 1000 random sets of 1-8 LPs,
// each run at workers {1, 2, 4, 8}, against every LP alone on its own
// Env. Odd seeds pause the set at a mid-run horizon first, so Run is
// also checked to resume where RunUntil would.
func TestLPRandomWorkloadsMatchSequential(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 100
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		wls := make([]lpWorkload, 1+rng.Intn(8))
		for lp := range wls {
			wls[lp] = genLPWorkload(rng, 1+rng.Intn(6))
		}
		horizons := []float64{1e9}
		if seed%2 == 1 {
			horizons = []float64{1 + 4*rng.Float64(), 1e9}
		}

		ref := make([][][]float64, len(wls))
		refEnd := 0.0
		for lp, wl := range wls {
			env := NewEnv()
			ref[lp] = buildLP(env, wl)
			for _, h := range horizons {
				env.RunUntil(h)
			}
			refEnd = max(refEnd, env.Now())
		}

		for _, workers := range []int{1, 2, 4, 8} {
			set := NewLPSet(len(wls))
			got := make([][][]float64, len(wls))
			for lp, wl := range wls {
				got[lp] = buildLP(set.Env(lp), wl)
			}
			end := 0.0
			for _, h := range horizons {
				end = set.Run(workers, h)
			}
			if end != refEnd {
				t.Fatalf("seed %d workers=%d: end = %v, LPs alone end at %v", seed, workers, end, refEnd)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d workers=%d: traces diverged from the LPs run alone", seed, workers)
			}
		}
	}
}
