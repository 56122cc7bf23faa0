package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/experiments"
	"simaibench/internal/loadgen"
	"simaibench/internal/mpi"
	"simaibench/internal/scenario"
	"simaibench/internal/schedule"
	"simaibench/internal/serve"
	"simaibench/internal/sweep"
)

// The probes drive one layer's exported API in isolation, after the
// traced workload has finished. Together with the spans they give the
// cost stack one figure per layer. Sizes are chosen so the whole set
// takes about half of a traced run's measuring time; -quick divides
// them by 20.

// measured is the host cost of one probe body.
type measured struct {
	elapsed time.Duration
	mallocs uint64
	bytes   uint64
}

func (m measured) nsPer(n int) float64     { return float64(m.elapsed) / float64(n) }
func (m measured) usPer(n int) float64     { return m.nsPer(n) / 1e3 }
func (m measured) allocsPer(n int) float64 { return float64(m.mallocs) / float64(n) }

func measure(fn func()) measured {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return measured{elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
}

// prober carries the probe scale and the metric set being filled.
type prober struct {
	m     metricSet
	quick bool
}

// n scales a probe's full size down in quick mode.
func (p *prober) n(full int) int {
	if p.quick {
		return max(full/20, 1)
	}
	return full
}

func runProbes(m metricSet, o options, stderr io.Writer) error {
	p := &prober{m: m, quick: o.quick}
	start := time.Now()
	for _, probe := range []struct {
		layer string
		run   func() error
	}{
		{"des", p.des}, {"costmodel", p.costmodel}, {"experiments", p.experiments},
		{"sweep", p.sweep}, {"scenario", p.scenario}, {"serve", p.serve},
		{"clock", p.clock}, {"datastore", p.datastore}, {"mpi", p.mpi}, {"schedule", p.schedule},
	} {
		t := time.Now()
		if err := probe.run(); err != nil {
			return fmt.Errorf("%s: %w", probe.layer, err)
		}
		fmt.Fprintf(stderr, "probe %-12s %.2f s\n", probe.layer, time.Since(t).Seconds())
	}
	fmt.Fprintf(stderr, "probes: %.2f s\n", time.Since(start).Seconds())
	return nil
}

// ticker schedules a self-rescheduling callback on env that stops the
// environment after n ticks.
func ticker(env *des.Env, n int, stop func()) {
	// The counter sits alone on its cache lines: tickers of neighbouring
	// LPs run on different cores and must share nothing.
	st := &struct {
		_     [64]byte
		count int
		_     [64]byte
	}{}
	var tick func()
	tick = func() {
		if st.count++; st.count < n {
			env.After(1, tick)
		} else if stop != nil {
			stop()
		}
	}
	env.At(0, tick)
}

func (p *prober) des() error {
	n := p.n(2_000_000)
	env := des.NewEnv()
	ticker(env, n, nil)
	r := measure(func() { env.Run() })
	p.m.set("des.ns_per_event", r.nsPer(n))
	p.m.set("des.allocs_per_event", r.allocsPer(n))

	// The same ticks above 49152 timers that never fire: every push
	// sifts to the root and every pop sifts back down.
	env = des.NewEnv()
	for i := 0; i < 49152; i++ {
		env.At(1e15+float64(i), func() {})
	}
	ticker(env, n, env.Stop)
	r = measure(func() { env.Run() })
	p.m.set("des.ns_per_event_deep", r.nsPer(n))

	// 64 claimants cycling through a capacity-1 resource: grant, hold
	// one virtual second, release, queue again.
	env = des.NewEnv()
	res := des.NewResource(env, 1)
	grants, nGrants := 0, p.n(1_000_000)
	for i := 0; i < 64; i++ {
		var grant, cycle func()
		cycle = func() { res.Release(); res.Request(grant) }
		grant = func() {
			if grants++; grants >= nGrants {
				env.Stop()
				return
			}
			env.After(1, cycle)
		}
		res.Request(grant)
	}
	r = measure(func() { env.Run() })
	p.m.set("des.ns_per_grant", r.nsPer(nGrants))

	// Arm and cancel in batches, draining the orphaned records between
	// batches: the orphan's pop is part of what a cancel costs.
	env = des.NewEnv()
	hold := des.NewHold(env, func() {})
	nHolds := p.n(1_000_000)
	r = measure(func() {
		for i := 0; i < nHolds; i++ {
			hold.After(1)
			hold.Cancel()
			if i%1024 == 1023 {
				env.Run()
			}
		}
		env.Run()
	})
	p.m.set("des.ns_per_hold_cancel", r.nsPer(nHolds))

	// 64 share-nothing LPs of 16 tickers each (a node's worth of ranks
	// per LP, as the harnesses partition).
	const lps, perLPTickers = 64, 16
	perLP := p.n(32768)
	runLP := func(workers int) time.Duration {
		set := des.NewLPSet(lps)
		defer set.Shutdown()
		for i := 0; i < lps; i++ {
			for t := 0; t < perLPTickers; t++ {
				ticker(set.Env(i), perLP/perLPTickers, nil)
			}
		}
		return measure(func() { set.Run(workers, math.Inf(1)) }).elapsed
	}
	seq, par := runLP(1), runLP(runtime.GOMAXPROCS(0))
	p.m.set("des.lp_ns_per_event", float64(par)/float64(lps*perLP))
	p.m.set("des.lp_speedup", float64(seq)/float64(par))
	return nil
}

// starter is a cost-model transfer object.
type starter interface{ Start() }

func (p *prober) costmodel() error {
	// restart runs n transfers back to back: build returns the transfer
	// wired to the given done callback, and done restarts it.
	restart := func(n int, build func(m *costmodel.Model, done func()) starter) measured {
		env := des.NewEnv()
		model := costmodel.New(env, cluster.Aurora(8), costmodel.Default())
		var x starter
		count := 0
		x = build(model, func() {
			if count++; count < n {
				x.Start()
			}
		})
		return measure(func() { x.Start(); env.Run() })
	}
	n := p.n(200_000)
	for _, b := range []datastore.Backend{datastore.NodeLocal, datastore.Dragon, datastore.Redis, datastore.FileSystem} {
		r := restart(n, func(m *costmodel.Model, done func()) starter { return m.NewLocalWrite(b, 0, 8, done) })
		p.m.set("costmodel.ns_per_xfer."+b.String(), r.nsPer(n))
		if b == datastore.NodeLocal {
			p.m.set("costmodel.allocs_per_xfer", r.allocsPer(n))
		}
	}
	r := restart(n, func(m *costmodel.Model, done func()) starter {
		return m.NewSharedLocalWrite(datastore.Redis, 0, 8, done)
	})
	p.m.set("costmodel.ns_per_xfer.shared-redis", r.nsPer(n))
	const ensemble = 128
	fetches := max(n/ensemble, 1)
	r = restart(fetches, func(m *costmodel.Model, done func()) starter {
		return m.NewEnsembleFetch(datastore.Redis, ensemble, 8, done)
	})
	p.m.set("costmodel.ns_per_fetch", r.nsPer(fetches*ensemble))
	return nil
}

// cellReps is how often each isolated harness cell runs; the median is
// reported.
const cellReps = 3

// medianRun runs fn reps times and returns the run with the median
// elapsed time.
func medianRun(reps int, fn func() error) (measured, error) {
	rs := make([]measured, reps)
	for i := range rs {
		var err error
		rs[i] = measure(func() { err = fn() })
		if err != nil {
			return measured{}, err
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].elapsed < rs[j].elapsed })
	return rs[reps/2], nil
}

func (p *prober) experiments() error {
	iters, shrink := 600, 1
	if p.quick {
		iters, shrink = 30, 16
	}
	workers := lpWorkers()
	var simOps int64 // Writes+Reads of the last Pattern-1 point
	p1 := func(n int, b datastore.Backend, w int) func() error {
		return func() error {
			pt, err := experiments.RunPattern1Checked(experiments.Pattern1Config{
				Nodes: n / shrink, Backend: b, SizeMB: 8, TrainIters: iters, Workers: w})
			simOps = pt.Writes + pt.Reads
			return err
		}
	}
	cells := []func() error{
		p1(512, datastore.NodeLocal, 1),
		p1(512, datastore.FileSystem, 1),
		func() error {
			_, err := experiments.RunFig6Checked(experiments.Fig6Config{
				Nodes: 128 / shrink, Backend: datastore.Redis, SizeMB: 4, TrainIters: iters})
			return err
		},
		func() error {
			_, err := experiments.RunScaleOutChecked(experiments.ScaleOutConfig{
				Tenants: 16, Backend: datastore.Redis, SizeMB: 8, TrainIters: iters})
			return err
		},
		func() error {
			_, err := experiments.RunResilienceChecked(experiments.ResilienceConfig{
				Tenants: 4, Backend: datastore.Redis, TrainIters: iters, MTBFS: 20, CkptIntervalS: 4})
			return err
		},
		func() error {
			_, err := experiments.RunCampaignChecked(experiments.CampaignConfig{
				Load: 1.2, Policy: "fifo", Jobs: p.n(2000)})
			return err
		},
		func() error {
			_, err := experiments.RunGradSync(experiments.GradSyncConfig{
				Ranks: 512 / shrink, ModelMB: 4, Algo: "hier", Steps: iters, Workers: workers})
			return err
		},
		p1(4096, datastore.NodeLocal, workers),
	}
	var lp measured
	for i, cell := range cells {
		r, err := medianRun(cellReps, cell)
		if err != nil {
			return fmt.Errorf("%s: %w", cellNames[i], err)
		}
		p.m.set("experiments.cell_ms."+cellNames[i], r.elapsed.Seconds()*1e3)
		p.m.set("experiments.cell_mallocs."+cellNames[i], float64(r.mallocs))
		if i < 2 {
			p.m.set("experiments.ns_per_sim_op."+cellNames[i], r.nsPer(int(max(simOps, 1))))
		}
		lp = r
	}
	// The last cell is the 4096-node LP run; its sequential twin gives
	// the speedup per this host's cores and the replay's allocation tax.
	seq, err := medianRun(cellReps, p1(4096, datastore.NodeLocal, 1))
	if err != nil {
		return err
	}
	p.m.set("experiments.lp_speedup.p1-nl-4096", float64(seq.elapsed)/float64(lp.elapsed))
	p.m.set("experiments.lp_alloc_ratio.p1-nl-4096", float64(lp.bytes)/float64(seq.bytes))
	return nil
}

func (p *prober) sweep() error {
	n := p.n(100_000)
	var rep *sweep.Report[int]
	r := measure(func() {
		rep = sweep.Run(context.Background(), n, sweep.Options{}, func(_ context.Context, i int) (int, error) { return i, nil })
	})
	if err := rep.Err(); err != nil {
		return err
	}
	p.m.set("sweep.ns_per_cell", r.nsPer(n))
	p.m.set("sweep.allocs_per_cell", r.allocsPer(n))
	return nil
}

func (p *prober) scenario() error {
	// One traced pass of sim-sweep and of emulation; the scenario.Run
	// spans are the per-scenario figures.
	o := options{seed: 1, quick: p.quick}
	for _, name := range []string{"sim-sweep", "emulation"} {
		def, _ := lookupWorkload(name)
		w, err := newBatchWorkload(def, o, nil)
		if err != nil {
			return err
		}
		rec := newRecorder()
		if u := w.unit(rec, -1, 0); u.failed > 0 {
			return fmt.Errorf("%s probe pass: %d operations failed", name, u.failed)
		}
		for _, op := range w.ops {
			scen := strings.TrimPrefix(op.id, name+"/")
			p.m.set("scenario.run_ms."+scen, rec.durations("scenario.Run:" + scen)[0]*1e3)
		}
	}

	// A fig3-shaped Result (its table shape does not depend on the
	// iteration count) through each reporter.
	fig3, _ := scenario.Lookup("fig3")
	res, err := fig3.Run(context.Background(), scenario.Params{SweepIters: 20})
	if err != nil {
		return err
	}
	n := p.n(2000)
	for _, format := range scenario.Formats() {
		rep, err := scenario.NewReporter(format)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		r := measure(func() {
			for i := 0; i < n && err == nil; i++ {
				buf.Reset()
				err = rep.Report(&buf, []*scenario.Result{res})
			}
		})
		if err != nil {
			return err
		}
		p.m.set("scenario.report_us."+format, r.usPer(n))
	}

	hot := hotSet(true)
	n = p.n(20_000)
	r := measure(func() {
		for i := 0; i < n && err == nil; i++ {
			req := hot[i%len(hot)]
			sc, _ := scenario.Lookup(req.Scenario)
			_, err = scenario.CacheKey(req.Scenario, req.Params, sc.Defaults(), req.Seed)
		}
	})
	if err != nil {
		return err
	}
	p.m.set("scenario.cachekey_us", r.usPer(n))
	p.m.set("scenario.cachekey_allocs", r.allocsPer(n))
	return nil
}

// post serves one pre-encoded request straight through the handler, no
// TCP, and returns the recorded response.
func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	return rr
}

func (p *prober) serve() error {
	// Handler hit: the hot set (quick-sized cells; the reply shapes are
	// the same), primed, then served from the cache.
	hot, err := encodeKeys(hotSet(true))
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{})
	defer shutdownSim(srv)
	h := srv.Handler()
	for _, k := range hot {
		if rr := post(h, k.body); rr.Code != http.StatusOK {
			return fmt.Errorf("priming %s: status %d: %s", k.label, rr.Code, rr.Body)
		}
	}
	n := p.n(20_000)
	bad := 0
	r := measure(func() {
		for i := 0; i < n; i++ {
			if rr := post(h, hot[i%len(hot)].body); rr.Header().Get("X-Cache") != "hit" {
				bad++
			}
		}
	})
	if bad > 0 {
		return fmt.Errorf("handler hit probe: %d replies were not cache hits", bad)
	}
	p.m.set("serve.handler_hit_us", r.usPer(n))
	p.m.set("serve.handler_hit_allocs", r.allocsPer(n))

	// Handler miss: the cold key stream against a 64-entry cache, and
	// the same cells run and encoded directly.
	coldReqs := coldSet()
	cold, err := encodeKeys(coldReqs)
	if err != nil {
		return err
	}
	coldSrv := serve.New(serve.Config{CacheSize: coldCache})
	defer shutdownSim(coldSrv)
	ch := coldSrv.Handler()
	n = p.n(2 * coldKeys)
	r = measure(func() {
		for i := 0; i < n; i++ {
			if rr := post(ch, cold[i%coldKeys].body); rr.Header().Get("X-Cache") != "miss" {
				bad++
			}
		}
	})
	if bad > 0 {
		return fmt.Errorf("handler miss probe: %d replies were not cache misses", bad)
	}
	p.m.set("serve.handler_miss_us", r.usPer(n))
	p.m.set("serve.handler_miss_allocs", r.allocsPer(n))
	fig5, _ := scenario.Lookup("fig5")
	direct := measure(func() {
		for i := 0; i < n && err == nil; i++ {
			var res *scenario.Result
			if res, err = fig5.Run(context.Background(), coldReqs[i%coldKeys].Params); err == nil {
				_, err = json.Marshal(res)
			}
		}
	})
	if err != nil {
		return err
	}
	p.m.set("serve.miss_overhead_us", r.usPer(n)-direct.usPer(n))

	// Loopback floor: the same generator against a handler that does
	// nothing but return 2 KB.
	reply := bytes.Repeat([]byte("x"), 2048)
	floor, err := startHTTP(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		w.Write(reply)
	}))
	if err != nil {
		return err
	}
	defer floor.stop()
	target := &loadTarget{url: floor.url + "/v1/run", keys: []serveKey{{label: "floor", body: hot[0].body, ref: reply}}}
	var clients []*loadClient
	for c := 0; c < lpWorkers(); c++ {
		clients = append(clients, newLoadClient([]int{0}))
	}
	window := time.Second
	if p.quick {
		window /= 10
	}
	runWindow(target, clients, window/4, nil, -1) // connect and warm up
	u := runWindow(target, clients, window, nil, -1)
	for _, c := range clients {
		c.hc.CloseIdleConnections()
	}
	if u.failed > 0 {
		return fmt.Errorf("loopback floor probe: %d requests failed", u.failed)
	}
	p.m.set("serve.loopback_floor_us", u.p50ms*1e3)

	// Typed client: the round trip the old BENCH_DES.json reported as
	// the serving floor, JSON decode included.
	sim, err := startSimServer(serve.Config{})
	if err != nil {
		return err
	}
	defer sim.stop()
	typed := &serve.Client{BaseURL: sim.url, HTTP: &http.Client{Transport: &http.Transport{}}}
	defer typed.HTTP.CloseIdleConnections()
	req := hotSet(true)[0]
	if _, _, err := typed.Run(context.Background(), req); err != nil {
		return err
	}
	n = p.n(4000)
	r = measure(func() {
		for i := 0; i < n && err == nil; i++ {
			var cached bool
			if _, cached, err = typed.Run(context.Background(), req); err == nil && !cached {
				err = fmt.Errorf("typed client probe: reply %d was not a cache hit", i)
			}
		}
	})
	if err != nil {
		return err
	}
	p.m.set("serve.typed_client_hit_us", r.usPer(n))
	return nil
}

func (p *prober) clock() error {
	const participants = 8
	sleeps := p.n(10_000)
	v := clock.NewVirtual()
	for i := 0; i < participants; i++ {
		v.Join()
	}
	var wg sync.WaitGroup
	r := measure(func() {
		for i := 0; i < participants; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer v.Leave()
				for s := 0; s < sleeps; s++ {
					v.Sleep(time.Duration(i+1) * time.Millisecond)
				}
			}()
		}
		wg.Wait()
	})
	p.m.set("clock.virtual_ns_per_wake", r.nsPer(participants*sleeps))
	return nil
}

func (p *prober) datastore() error {
	const mb = 1 << 20
	payload := bytes.Repeat([]byte{0xA5}, mb)
	ops := p.n(200)
	// Eight keys, overwritten in turn, bound the backend's memory.
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("probe-%d", i)
	}
	for _, b := range datastore.Backends() {
		err := func() error {
			mgr, info, err := datastore.StartBackend(b, "")
			if err != nil {
				return err
			}
			defer mgr.Stop()
			st, err := datastore.Connect(info)
			if err != nil {
				return err
			}
			defer st.Close()
			w := measure(func() {
				for i := 0; i < ops && err == nil; i++ {
					err = st.StageWrite(keys[i%len(keys)], payload)
				}
			})
			if err != nil {
				return err
			}
			r := measure(func() {
				for i := 0; i < ops && err == nil; i++ {
					var got []byte
					if got, err = st.StageRead(keys[i%len(keys)]); err == nil && len(got) != mb {
						err = fmt.Errorf("read %d bytes, want %d", len(got), mb)
					}
				}
			})
			if err != nil {
				return err
			}
			p.m.set("datastore.write_mbps."+b.String(), float64(ops)/w.elapsed.Seconds())
			p.m.set("datastore.read_mbps."+b.String(), float64(ops)/r.elapsed.Seconds())
			return st.Clean(keys...)
		}()
		if err != nil {
			return fmt.Errorf("%s: %w", b, err)
		}
	}
	return nil
}

func (p *prober) mpi() error {
	const ranks, floats = 8, 1 << 17 // 1 MB of float64 per rank
	reps := p.n(20)
	for _, algo := range []struct {
		name string
		a    mpi.CollAlgo
	}{{"flat", mpi.AlgoFlat}, {"ring", mpi.AlgoRing}} {
		world := mpi.NewWorld(ranks)
		r := measure(func() {
			world.Run(func(c *mpi.Comm) {
				buf := make([]float64, floats)
				for i := 0; i < reps; i++ {
					c.AllReduceAlgo(algo.a, mpi.Sum, buf)
				}
			})
		})
		p.m.set("mpi.allreduce_us."+algo.name+"-8x1mb", r.usPer(reps))
	}
	return nil
}

// schedule covers the campaign's two layers: generating the open-loop
// job stream and scheduling it.
func (p *prober) schedule() error {
	const nodes = 64
	cfg := loadgen.Config{Seed: 1, Jobs: p.n(100_000), Tenants: 8, DiurnalAmp: 0.3, DiurnalPeriodS: 3600,
		BurstFactor: 2, BurstMTBS: 1800, BurstDurS: 300, Classes: loadgen.DefaultClasses()}
	cfg.RatePerS = cfg.RateForLoad(1.2, nodes)
	var err error
	r := measure(func() { _, err = loadgen.Generate(cfg) })
	if err != nil {
		return err
	}
	p.m.set("loadgen.ns_per_job", r.nsPer(cfg.Jobs))

	cfg.Jobs = 2000
	jobs, err := loadgen.Generate(cfg)
	if err != nil {
		return err
	}
	reps := p.n(20)
	r = measure(func() {
		for i := 0; i < reps && err == nil; i++ {
			env := des.NewEnv()
			var s *schedule.Scheduler
			if s, err = schedule.New(env, cluster.Aurora(nodes), schedule.Config{Policy: schedule.FIFO(), OnComplete: env.Stop}); err != nil {
				break
			}
			if err = s.Submit(jobs); err == nil {
				env.Run()
			}
		}
	})
	if err != nil {
		return err
	}
	p.m.set("schedule.ns_per_job", r.nsPer(reps*len(jobs)))
	return nil
}
