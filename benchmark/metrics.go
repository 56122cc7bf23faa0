package main

import (
	"fmt"
	"io"
	"strings"
)

// This file is the benchmark's catalogue: the five workloads, the
// end-to-end metrics with their regression bounds, and every per-layer
// metric with the end-to-end metric and workload it is predicted to
// move. BENCHMARK.json and the README tables are generated from it
// (-write-contract, -list), so the names cannot drift apart.

// runSeconds is the measuring time of one run (BENCHMARK.json
// run_seconds): the batch workloads derive their pass counts from it
// and the serve workloads split it into ten windows.
const runSeconds = 18

// workloadDef names one workload and records why it was chosen.
type workloadDef struct {
	Name string
	Why  string
	// Serve marks the two closed-loop request workloads; the others are
	// batch workloads timed pass by pass.
	Serve bool
}

var workloadDefs = []workloadDef{
	{Name: "sim-sweep", Why: "sequential DES path a researcher waits on: des heap, costmodel chains, rank machines, sweep fan-out; serve, clock and live backends idle"},
	{Name: "lp-scale", Why: "four large single cells at Workers=min(GOMAXPROCS,4): the only traffic that reaches des.LPSet, per-LP heaps and the sampleLog replay merge"},
	{Name: "emulation", Why: "real stack on the virtual clock: workflow, mpi, datastore against live mini-Redis/Dragon/fskv, stream over TCP, kernels/nn; des does nothing"},
	{Name: "serve-hot", Serve: true, Why: "every request is a cache read (decode, CacheKey, LRU get, write); no simulation runs, so des/costmodel changes must not show"},
	{Name: "serve-cold", Serve: true, Why: "every request is a cache write with an eviction (256 cells over a 64-entry cache): admission, hardened cell, scenario run, encode, LRU put"},
}

// metricDef is one named metric. Bound is set on end-to-end metrics
// only: the share of the parent's median by which the metric may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	// Layer, How and Moves document per-layer metrics: the package
	// measured, how it is measured from outside, and the end-to-end
	// metric @ workload the number is predicted to move.
	Layer, How, Moves string
}

// endToEnd lists the metrics a user of the system feels. Every workload
// reports every one of them (see README "End-to-end metrics" for what
// each means on a batch and on a serve workload). fail_frac is reported
// through the result line's attempted/failed counts, not as a bounded
// metric: its healthy value is 0, which has no relative bound.
//
// The bounds are the widest the benchmark contract allows. The host the
// benchmark was sized on drifts by 15-20 % for minutes at a time, and
// ten-run quartile spreads between 4 % and 17 % were measured
// (README "Measured spread"); a tighter bound would flag the host, not
// the code.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "qps", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	simSweepScenarios = "fig3 fig4 fig5 fig6 scale-out resilience campaign"
	emulationOps      = "table2 table3 fig2 streaming"
)

// cellNames are the isolated harness cells of the experiments layer.
var cellNames = []string{
	"p1-nl-512", "p1-fs-512", "fig6-redis-128", "scaleout-redis-16",
	"resilience-redis-mtbf20", "campaign-1.2-fifo", "gradsync-512-hier", "p1-nl-4096-lp",
}

var datastoreBackends = []string{"redis", "dragon", "filesystem", "node-local"}

// perLayer is built once from the tables above.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(layer, name, unit, better, how, moves string) {
		m = append(m, metricDef{Name: name, Unit: unit, Better: better, Layer: layer, How: how, Moves: moves})
	}
	const ctx = "context for every row"
	hostHow := "getrusage / runtime.MemStats deltas over the untraced timed units; VmHWM"
	add("host", "host.ops", "count", "higher", "operations attempted in the untraced timed units (scenario or harness runs; requests)", ctx)
	add("host", "host.cpu_ms_per_op", "ms", "lower", hostHow, ctx)
	add("host", "host.alloc_kb_per_op", "kB", "lower", hostHow, ctx)
	add("host", "host.mallocs_per_op", "count", "lower", hostHow, ctx+"; the count later allocation PRs cite")
	add("host", "host.peak_rss_mb", "MB", "lower", hostHow, ctx)
	add("host", "host.gc_cpu_frac", "ratio", "lower", "MemStats.GCCPUFraction at the end of the run", ctx)

	tick := "self-rescheduling Env.After ticks, empty heap"
	add("des", "des.ns_per_event", "ns", "lower", tick, "wall_s@sim-sweep, wall_s@lp-scale")
	add("des", "des.allocs_per_event", "count", "lower", tick, "wall_s@sim-sweep, wall_s@lp-scale")
	add("des", "des.ns_per_event_deep", "ns", "lower", "same with 49152 pending timers (4096-node rank count)", "wall_s@sim-sweep (fig3/512); little @lp-scale (per-LP heaps are shallow)")
	add("des", "des.ns_per_grant", "ns", "lower", "Resource.Request/Release cycle, capacity 1, 64 queued claimants", "wall_s@sim-sweep (file-system, shared-redis cells)")
	add("des", "des.ns_per_hold_cancel", "ns", "lower", "NewHold arm + Cancel", "wall_s@sim-sweep (resilience, campaign)")
	lp := "64 share-nothing LPs of self-rescheduling ticks, LPSet.Run(workers, +Inf) at workers=GOMAXPROCS vs 1"
	add("des", "des.lp_ns_per_event", "ns", "lower", lp, "wall_s@lp-scale only")
	add("des", "des.lp_speedup", "ratio", "higher", lp+" (base: workers=1 wall)", "wall_s@lp-scale only")

	xfer := "costmodel.New(env, cluster.Aurora(8), Default()); a transfer restarted from its own done callback; host ns per modeled transfer"
	for _, b := range []string{"node-local", "dragon", "redis", "filesystem"} {
		moves := "wall_s@sim-sweep"
		if b == "node-local" || b == "dragon" {
			moves += ", wall_s@lp-scale"
		}
		add("costmodel", "costmodel.ns_per_xfer."+b, "ns", "lower", xfer+" (NewLocalWrite)", moves)
	}
	add("costmodel", "costmodel.ns_per_xfer.shared-redis", "ns", "lower", xfer+" (NewSharedLocalWrite)", "wall_s@sim-sweep")
	add("costmodel", "costmodel.ns_per_fetch", "ns", "lower", xfer+" (NewEnsembleFetch n=128, per fetched array)", "wall_s@sim-sweep")
	add("costmodel", "costmodel.allocs_per_xfer", "count", "lower", "mallocs per transfer over the node-local restart loop", "wall_s@sim-sweep")

	for i, c := range cellNames {
		moves := "wall_s@sim-sweep"
		if i >= 6 {
			moves = "wall_s@lp-scale"
		}
		how := "one Run*Checked / RunGradSync call, median of the repetitions"
		add("experiments", "experiments.cell_ms."+c, "ms", "lower", how, moves)
		add("experiments", "experiments.cell_mallocs."+c, "count", "lower", how, moves)
	}
	simOp := "host ns / (Writes+Reads) of the point"
	add("experiments", "experiments.ns_per_sim_op.p1-nl-512", "ns", "lower", simOp, "wall_s@sim-sweep")
	add("experiments", "experiments.ns_per_sim_op.p1-fs-512", "ns", "lower", simOp, "wall_s@sim-sweep")
	add("experiments", "experiments.lp_speedup.p1-nl-4096", "ratio", "higher", "Workers=1 wall / Workers=GOMAXPROCS wall (base: Workers=1)", "wall_s@lp-scale only")
	add("experiments", "experiments.lp_alloc_ratio.p1-nl-4096", "ratio", "lower", "bytes allocated at Workers=GOMAXPROCS / at Workers=1 (base: Workers=1)", "wall_s@lp-scale only")

	add("sweep", "sweep.ns_per_cell", "ns", "lower", "sweep.Run over no-op cells", "p50_ms@serve-cold (one hardened cell per miss); negligible @sim-sweep")
	add("sweep", "sweep.allocs_per_cell", "count", "lower", "sweep.Run over no-op cells", "p50_ms@serve-cold; negligible @sim-sweep")

	for _, s := range strings.Fields(simSweepScenarios) {
		add("scenario", "scenario.run_ms."+s, "ms", "lower", "scenario.Run:<name> span of one probe pass", "wall_s@sim-sweep; shows which scenario dominates a pass")
	}
	for _, s := range strings.Fields(emulationOps) {
		add("scenario", "scenario.run_ms."+s, "ms", "lower", "scenario.Run:<name> span of one probe pass (table2/table3/fig2 share one validation cache)", "wall_s@emulation")
	}
	add("scenario", "scenario.report_us.text", "us", "lower", "render the default fig3 Result", "wall_s@sim-sweep (negligible)")
	add("scenario", "scenario.report_us.json", "us", "lower", "render the default fig3 Result", "p50_ms@serve-cold")
	add("scenario", "scenario.report_us.csv", "us", "lower", "render the default fig3 Result", "nothing measured here")
	add("scenario", "scenario.cachekey_us", "us", "lower", "scenario.CacheKey on the hot-set requests", "qps, p50_ms@serve-hot; not sim-sweep")
	add("scenario", "scenario.cachekey_allocs", "count", "lower", "scenario.CacheKey on the hot-set requests", "qps, p50_ms@serve-hot")

	hit := "Handler().ServeHTTP with httptest.NewRecorder, no TCP, hot key"
	miss := "same, cold key stream"
	add("serve", "serve.handler_hit_us", "us", "lower", hit, "qps, p50_ms, p99_ms@serve-hot")
	add("serve", "serve.handler_hit_allocs", "count", "lower", hit, "qps, p50_ms, p99_ms@serve-hot")
	add("serve", "serve.handler_miss_us", "us", "lower", miss, "qps, p50_ms@serve-cold")
	add("serve", "serve.handler_miss_allocs", "count", "lower", miss, "qps, p50_ms@serve-cold")
	add("serve", "serve.miss_overhead_us", "us", "lower", "handler miss minus direct scenario.Run + json.Marshal of the same cells", "qps, p50_ms@serve-cold (the only addressable part)")
	add("serve", "serve.loopback_floor_us", "us", "lower", "the load generator against a trivial handler returning a fixed 2 KB body", "nothing in this repo: the floor; p50_ms@serve-hot minus floor is the server's share")
	add("serve", "serve.typed_client_hit_us", "us", "lower", "serve.Client.Run round trip incl. JSON decode, hot key", "no end-to-end metric; explains the old BENCH_DES.json p50")
	statz := "Server.Stats deltas over the timed windows (0 on batch workloads, which start no server)"
	add("serve", "serve.hit_ratio", "ratio", "higher", statz, "must be 1 @serve-hot and 0 @serve-cold")
	add("serve", "serve.evictions_per_op", "ratio", "lower", statz, "must be 0 @serve-hot and ~1 @serve-cold")
	add("serve", "serve.dedup_joins", "count", "lower", statz, "must be 0 on both serve workloads")
	add("serve", "serve.shed", "count", "lower", statz, "must be 0 on both serve workloads")

	add("clock", "clock.virtual_ns_per_wake", "ns", "lower", "8 joined participants sleeping on clock.NewVirtual()", "wall_s@emulation only")
	for _, dir := range []string{"write", "read"} {
		for _, b := range datastoreBackends {
			add("datastore", "datastore."+dir+"_mbps."+b, "MB/s", "higher", "StartBackend + Connect, 1 MB StageWrite then StageRead, one client, real bytes", "wall_s@emulation only")
		}
	}
	add("mpi", "mpi.allreduce_us.flat-8x1mb", "us", "lower", "NewWorld(8).Run with AllReduceAlgo, 1 MB per rank", "wall_s@emulation")
	add("mpi", "mpi.allreduce_us.ring-8x1mb", "us", "lower", "NewWorld(8).Run with AllReduceAlgo, 1 MB per rank", "wall_s@emulation")
	add("loadgen", "loadgen.ns_per_job", "ns", "lower", "loadgen.Generate", "wall_s@sim-sweep (campaign share)")
	add("schedule", "schedule.ns_per_job", "ns", "lower", "2000 jobs FIFO at 1.2x load on a fresh Env", "wall_s@sim-sweep (campaign share)")
	add("trace", "trace.overhead_frac", "ratio", "lower", "median traced unit / median untraced unit - 1, units alternating in one run", "must stay < 0.05; end-to-end metrics are always taken with tracing off")
	return m
}

// metricUnits maps every metric name to its unit.
func metricUnits() map[string]string {
	u := map[string]string{}
	for _, d := range endToEnd {
		u[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		u[d.Name] = d.Unit
	}
	return u
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractLayer    `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildContract() contract {
	c := contract{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		c.Workloads = append(c.Workloads, contractWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, contractMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, contractLayer{m.Name, m.Unit, m.Better})
	}
	return c
}

// printCatalogue writes the workload and metric tables as markdown (the
// README embeds this output).
func printCatalogue(w io.Writer) {
	fmt.Fprintln(w, "| workload | why |\n|---|---|")
	for _, d := range workloadDefs {
		fmt.Fprintf(w, "| `%s` | %s |\n", d.Name, d.Why)
	}
	fmt.Fprintln(w, "\n| end-to-end metric | unit | better | bound |\n|---|---|---|---|")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %.0f %% |\n", d.Name, d.Unit, d.Better, d.Bound*100)
	}
	fmt.Fprintln(w, "\n| layer | metric | unit | how measured (from outside) | should move |\n|---|---|---|---|---|")
	for _, d := range perLayer {
		fmt.Fprintf(w, "| %s | `%s` | %s | %s | %s |\n", d.Layer, d.Name, d.Unit, d.How, d.Moves)
	}
}
