package experiments

import (
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
