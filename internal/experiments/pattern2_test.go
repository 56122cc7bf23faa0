package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/stats"
)

// fig6Trainer replays the many-to-one trainer on a des.Env: compute for
// a read period, then a blocking ensemble read of the whole ensemble
// (costmodel.EnsembleFetch), tracking per-period progress so exec/iter
// stays correct when a slow backend does not finish within the horizon.
// It is the reference RunFig6Checked's closed form is held to.
type fig6Trainer struct {
	env              *des.Env
	periods          int
	i                int
	sleepS           float64
	fetchStart       float64
	fetchTime        *stats.Welford
	lastPeriodEnd    *float64
	completedPeriods *int
	fetch            *costmodel.EnsembleFetch
	wake             func()
}

type fig6TrainerConfig struct {
	backend          datastore.Backend
	nodes            int
	sizeMB           float64
	periods          int
	sleepS           float64
	fetchTime        *stats.Welford
	lastPeriodEnd    *float64
	completedPeriods *int
}

func newFig6Trainer(env *des.Env, model *costmodel.Model, cfg fig6TrainerConfig) *fig6Trainer {
	t := &fig6Trainer{
		env: env, periods: cfg.periods, sleepS: cfg.sleepS,
		fetchTime: cfg.fetchTime, lastPeriodEnd: cfg.lastPeriodEnd, completedPeriods: cfg.completedPeriods,
	}
	t.wake = func() {
		t.fetchStart = t.env.Now()
		t.fetch.Start()
	}
	t.fetch = model.NewEnsembleFetch(cfg.backend, cfg.nodes, cfg.sizeMB, func() {
		now := t.env.Now()
		t.fetchTime.Add(now - t.fetchStart)
		*t.lastPeriodEnd = now
		*t.completedPeriods++
		t.i++
		if t.i < t.periods {
			t.env.After(t.sleepS, t.wake)
		}
	})
	env.At(env.Now(), func() { t.env.After(t.sleepS, t.wake) })
	return t
}

// chainFig6 is a valid Fig 6 cell run as an event chain: the trainer
// alone on one guarded Env to the horizon cap. It returns the point, or
// the budget trip wrapped as RunFig6Checked wraps it, and the events the
// Env executed.
func chainFig6(cfg Fig6Config) (Fig6Point, int64, error) {
	cfg = cfg.withDefaults()
	env := newGuardedEnv(cfg.MaxEvents)
	model := costmodel.New(env, cluster.Aurora(cfg.Nodes+1), paramsOr(cfg.Params))
	var fetchTime stats.Welford
	var lastPeriodEnd float64
	completedPeriods := 0
	newFig6Trainer(env, model, fig6TrainerConfig{
		backend: cfg.Backend, nodes: cfg.Nodes, sizeMB: cfg.SizeMB,
		periods:   cfg.TrainIters / cfg.ReadPeriod,
		sleepS:    float64(cfg.ReadPeriod) * cfg.TrainIterS,
		fetchTime: &fetchTime, lastPeriodEnd: &lastPeriodEnd, completedPeriods: &completedPeriods,
	})
	env.RunUntil(float64(cfg.TrainIters) * cfg.TrainIterS * 10)
	if err := env.Err(); err != nil {
		return Fig6Point{}, env.Executed(), fmt.Errorf("fig6 (%s, %g MB, %d nodes): %w", cfg.Backend, cfg.SizeMB, cfg.Nodes, err)
	}
	pt := Fig6Point{Nodes: cfg.Nodes, Backend: cfg.Backend, SizeMB: cfg.SizeMB, FetchMeanS: fetchTime.Mean()}
	if completedPeriods > 0 {
		pt.ExecPerIterS = lastPeriodEnd / float64(completedPeriods*cfg.ReadPeriod)
	}
	return pt, env.Executed(), nil
}

// randomFig6 draws a Fig 6 cell: 1-300 nodes on every Pattern 2
// backend, sizes on both sides of Dragon's 10 MB window, read periods
// 1-15, compute times that let Redis hit the horizon cap, and in one
// draw of three custom fetch concurrencies — the only way to reach the
// NIC-bound regime, where more fetches hold a slot than the NIC admits.
func randomFig6(rng *rand.Rand) Fig6Config {
	cfg := Fig6Config{
		Nodes:      1 + rng.Intn(300),
		Backend:    Pattern2Backends[rng.Intn(len(Pattern2Backends))],
		SizeMB:     []float64{0.4, 1, 4, 8, 10, 16, 32, 128}[rng.Intn(8)] * (0.5 + rng.Float64()),
		TrainIterS: []float64{0.0633, 0.01, 0.2}[rng.Intn(3)],
		ReadPeriod: 1 + rng.Intn(15),
	}
	cfg.TrainIters = cfg.ReadPeriod * (1 + rng.Intn(12))
	if rng.Intn(3) == 0 {
		p := costmodel.Default()
		p.RedisRemoteConcurrency = 1 + rng.Intn(64)
		p.DragonRemoteConcurrency = 1 + rng.Intn(64)
		p.FSRemoteConcurrency = 1 + rng.Intn(64)
		cfg.Params = &p
	}
	return cfg
}

// TestFig6ClosedFormMatchesChain holds RunFig6Checked to the trainer run
// as an event chain, == on every field, over seeded random cells, and
// its event budget to the chain's: at budgets around the first read's
// instant, around the run's total and one in between, both trip (or
// not) with the same Events, Now and error text.
func TestFig6ClosedFormMatchesChain(t *testing.T) {
	draws := 600
	if testing.Short() {
		draws = 100
	}
	rng := rand.New(rand.NewSource(6))
	nicBound, cut := 0, 0
	for range draws {
		cfg := randomFig6(rng)
		want, total, err := chainFig6(cfg)
		if err != nil {
			t.Fatalf("%+v: reference: %v", cfg, err)
		}
		got := checked(t, RunFig6Checked, cfg)
		if got != want {
			t.Fatalf("%+v: closed form %+v != chain %+v", cfg, got, want)
		}
		d := cfg.withDefaults()
		p := paramsOr(d.Params)
		if f := p.EnsembleFetchCost(d.Backend, d.Nodes, d.SizeMB, cluster.Aurora(d.Nodes+1).NICGBps); f.Conc > f.NICCap && d.Nodes > f.NICCap {
			nicBound++
		}
		// Every period lasts as long, so the whole run would end here.
		if got.ExecPerIterS*float64(d.TrainIters/d.ReadPeriod*d.ReadPeriod) > float64(d.TrainIters)*d.TrainIterS*10 {
			cut++
		}

		n := int64(d.Nodes)
		for _, budget := range []int64{1, n, n + 1, n + 2, total - 1, total, total + 1, 1 + rng.Int63n(total)} {
			if budget < 1 {
				continue
			}
			cfg.MaxEvents = budget
			_, _, want := chainFig6(cfg)
			_, got := RunFig6Checked(cfg)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%+v: closed form %v, chain %v", cfg, got, want)
			}
		}
	}
	t.Logf("%d draws: %d NIC-bound, %d cut by the horizon", draws, nicBound, cut)
	if nicBound < draws/20 || cut < draws/20 {
		t.Errorf("%d NIC-bound and %d horizon-cut cells of %d: the draws no longer reach both", nicBound, cut, draws)
	}
}

// chainFig5 is a Fig 5 cell run as an event chain on one guarded Env: a
// start event, then per transfer the cost model's stage_write chain on
// node 0 and the non-local read's one timed hold (the trainer NIC's
// only claimant is granted at once, TestFig5PairEndsAtClosedForm). It
// returns the point, or the budget trip wrapped as RunFig5Checked wraps
// it, and the events the Env executed.
func chainFig5(cfg Fig5Config) (Fig5Point, int64, error) {
	env := newGuardedEnv(cfg.MaxEvents)
	p := paramsOr(cfg.Params)
	readHold := p.RemoteReadCost(cfg.Backend, cfg.SizeMB).HoldS
	bytes := int64(cfg.SizeMB * 1e6)
	var writeTput, readTput stats.Throughput
	var write costmodel.Xfer
	start, done := 0.0, 0
	startWrite := func() {
		start = env.Now()
		write.Start()
	}
	readDone := func() {
		readTput.Add(bytes, env.Now()-start)
		if done++; done < cfg.Transfers {
			startWrite()
		}
	}
	write = costmodel.New(env, cluster.Aurora(2), p).NewLocalWrite(cfg.Backend, 0, cfg.SizeMB, func() {
		writeTput.Add(bytes, env.Now()-start)
		start = env.Now()
		env.After(readHold, readDone)
	})
	env.At(0, startWrite)
	env.Run()
	if err := env.Err(); err != nil {
		return Fig5Point{}, env.Executed(), fmt.Errorf("fig5 (%s, %g MB): %w", cfg.Backend, cfg.SizeMB, err)
	}
	return Fig5Point{Backend: cfg.Backend, SizeMB: cfg.SizeMB,
		ReadGBps: readTput.MeanGBps(), WriteGBps: writeTput.MeanGBps()}, env.Executed(), nil
}

// randomFig5Params perturbs every cost Fig 5's pair reads: metadata
// rounds 0-4, and each latency, overhead and bandwidth scaled, the
// latencies and overheads sometimes to zero, so a 0 MB transfer can
// take no time at all.
func randomFig5Params(rng *rand.Rand) *costmodel.Params {
	scale := func(x float64, zeroable bool) float64 {
		if zeroable && rng.Intn(2) == 0 {
			return 0
		}
		return x * (0.25 + 2*rng.Float64())
	}
	p := costmodel.Default()
	p.LustreMetaOpsPerTransfer = rng.Intn(5)
	p.LustreClientRPCS = scale(p.LustreClientRPCS, true)
	p.LustreMDSServiceS = scale(p.LustreMDSServiceS, true)
	p.LustreStreamBWGBps = scale(p.LustreStreamBWGBps, false)
	p.RedisOverheadS = scale(p.RedisOverheadS, true)
	p.RedisBWGBps = scale(p.RedisBWGBps, false)
	p.DragonOverheadS = scale(p.DragonOverheadS, true)
	p.DragonBWGBps = scale(p.DragonBWGBps, false)
	p.RedisRemoteLatencyS = scale(p.RedisRemoteLatencyS, true)
	p.RedisRemoteBWGBps = scale(p.RedisRemoteBWGBps, false)
	p.DragonRemoteLatencyS = scale(p.DragonRemoteLatencyS, true)
	p.DragonRemoteBWGBps = scale(p.DragonRemoteBWGBps, false)
	return &p
}

// TestFig5LoopMatchesOracleAndChain holds RunFig5Checked's one loop to
// oracleFig5 (==, every field) over seeded random cells — every Pattern 2
// backend, sizes from 0 MB, 1-300 transfers, one cell in three with
// custom costs — and its event budget to the event chain's: at the
// first event, at a whole number k of transfers and one event past it,
// around the run's total and at a random budget, both trip (or not)
// with the same Events, Now and error text.
func TestFig5LoopMatchesOracleAndChain(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const draws = 540
	sizes := []float64{0.4, 1, 4, 8, 10, 32, 128}
	zeroTime, trips := 0, 0
	for i := range draws {
		cfg := Fig5Config{
			Backend:   Pattern2Backends[rng.Intn(len(Pattern2Backends))],
			SizeMB:    sizes[rng.Intn(len(sizes))] * (0.5 + rng.Float64()),
			Transfers: 1 + rng.Intn(300),
		}
		if i < 6 {
			cfg.Transfers = []int{1, 300}[i%2]
		}
		if rng.Intn(4) == 0 {
			cfg.SizeMB = 0
		}
		if i%3 == 0 {
			cfg.Params = randomFig5Params(rng)
		}
		p := paramsOr(cfg.Params)
		if xferEnd(p.LocalCost(cfg.Backend, cfg.SizeMB, false), 0) == 0 || xferEnd(p.RemoteReadCost(cfg.Backend, cfg.SizeMB), 0) == 0 {
			zeroTime++
		}
		got := checked(t, RunFig5Checked, cfg)
		if want := oracleFig5(cfg); got != want {
			t.Fatalf("%+v: loop %+v != oracle %+v", cfg, got, want)
		}
		chain, total, err := chainFig5(cfg)
		if err != nil || chain != got {
			t.Fatalf("%+v: loop %+v != chain %+v (%v)", cfg, got, chain, err)
		}

		perXfer := (total - 1) / int64(cfg.Transfers)
		k := 1 + rng.Int63n(int64(cfg.Transfers))
		for _, budget := range []int64{1, k * perXfer, k*perXfer + 1, total - 1, total, total + 1, 1 + rng.Int63n(total+1)} {
			if budget < 1 {
				continue
			}
			cfg.MaxEvents = budget
			_, _, wantErr := chainFig5(cfg)
			gotPt, gotErr := RunFig5Checked(cfg)
			var want, got *des.BudgetExceeded
			switch {
			case wantErr == nil && (gotErr != nil || gotPt != chain):
				t.Fatalf("%+v: loop %+v, %v; the chain completes with %+v", cfg, gotPt, gotErr, chain)
			case wantErr == nil:
			case !errors.As(gotErr, &got) || !errors.As(wantErr, &want) || *got != *want || gotErr.Error() != wantErr.Error():
				t.Fatalf("%+v: loop trips with %v, the chain with %v", cfg, gotErr, wantErr)
			default:
				trips++
			}
		}
	}
	t.Logf("%d draws: %d with a transfer that takes no time, %d budget trips", draws, zeroTime, trips)
	if zeroTime < draws/50 || trips < 4*draws {
		t.Errorf("%d zero-time cells and %d trips in %d draws: the draws no longer reach the skip and the tail", zeroTime, trips, draws)
	}
}

// TestFig5TableAllocatesTwice pins what a cold fig5 request pays for its
// table: one slice of columns and one of cells, however many rows, with
// the collector held off so a GC cycle cannot add to the count.
func TestFig5TableAllocatesTwice(t *testing.T) {
	var points []Fig5Point
	for _, b := range Pattern2Backends {
		for _, size := range Fig5Sizes {
			points = append(points, Fig5Point{Backend: b, SizeMB: size, ReadGBps: size / 3, WriteGBps: size / 7})
		}
	}
	if len(points) != 18 {
		t.Fatalf("%d points, want the 18 of a fig5 run", len(points))
	}
	if n := allocsWithoutGC(100, func() { fig5Table(points) }); n > 2 {
		t.Fatalf("fig5Table of 18 points makes %v mallocs, ceiling 2", n)
	}
}
