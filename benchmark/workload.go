package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"simaibench/internal/sweep"
)

// unitResult is the outcome of one timed unit: a pass over a batch
// workload's operations, or one window of a serve workload.
type unitResult struct {
	seconds float64
	ops     int // operations attempted: scenario/harness runs, or requests
	failed  int
	// p50ms and p99ms are the unit's latency figures: a window's
	// request-latency percentiles, or a pass's own latency and that of
	// its slowest operation.
	p50ms, p99ms float64
}

// workload is one set-up workload instance, ready to be timed unit by
// unit. rec is nil for an untraced unit; parent and id place the unit's
// spans under the caller's.
type workload interface {
	unit(rec *recorder, parent, id int) unitResult
	// finish adds the workload's own per-layer readings (serve counter
	// deltas) once the timed units are over.
	finish(m metricSet)
	// digests returns every digest the workload checked, by operation
	// id, for -update-expected.
	digests() map[string]string
	close()
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	return names
}

// nominalPassS is the per-pass host time each batch workload was sized
// at on the reference host (2 cores, 2.1 GHz): the pass count of a run
// is seconds / nominalPassS, so the work of a run is fixed by -seconds
// and repeats exactly, instead of depending on how fast the host is.
var nominalPassS = map[string]float64{"sim-sweep": 2.25, "lp-scale": 0.75, "emulation": 1.8}

const serveWindows = 10

// plan is how many units a run times and, for serve workloads, how long
// each window lasts. A traced run spends half its measuring time on the
// workload, alternating untraced and traced units so their ratio is the
// tracing overhead; the other half goes to the probes.
type plan struct {
	units  int
	window time.Duration
}

func makePlan(def workloadDef, o options) plan {
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	p := plan{units: 2} // -quick
	switch {
	case def.Serve && o.quick:
		p.window = 500 * time.Millisecond
	case def.Serve:
		p.units = serveWindows
		if o.trace {
			p.units = 6
		}
		p.window = time.Duration(budget / float64(p.units) * float64(time.Second))
	case !o.quick:
		p.units = max(2, int(budget/nominalPassS[def.Name]))
	}
	if o.trace {
		p.units = max(4, p.units-p.units%2) // as many traced as untraced, two of each at least
	}
	return p
}

// runChild is the body of one child process: set the workload up, run
// one untimed warm-up unit, then time the planned units and (traced)
// the probes.
func runChild(o options, stderr io.Writer) (*runResult, error) {
	def, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	t0 := time.Now()
	if o.t0 != 0 {
		t0 = time.Unix(0, o.t0)
	}
	// All cores for sweep fan-out, as the CLIs default to.
	sweep.Workers = 0
	pl := makePlan(def, o)

	var pinned map[string]string
	if !o.quick {
		var err error
		if pinned, err = loadExpected(); err != nil {
			return nil, err
		}
	}
	w, err := setupWorkload(def, o, pl, pinned)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", def.Name, err)
	}
	defer w.close()
	warm := w.unit(nil, -1, -1)
	res := &runResult{Metrics: metricSet{}}
	res.Metrics.set("setup_s", time.Since(t0).Seconds())
	if o.setupOnly {
		res.Correct, res.Attempted = warm.failed == 0, max(warm.ops, 1)
		res.Failed = warm.failed
		return res, nil
	}

	var rec *recorder
	root := -1
	if o.trace {
		rec = newRecorder()
		root = rec.begin("workload:"+def.Name, -1, 0, 0)
	}
	unitName := "pass"
	if def.Serve {
		unitName = "window"
	}
	var untraced, traced []unitResult
	var hostBusy hostSnap // resource use summed over the untraced units
	hostOps := 0
	runtime.GC()
	for i := 0; i < pl.units; i++ {
		if o.trace && i%2 == 1 {
			s := rec.begin(unitName, root, i, 0)
			traced = append(traced, w.unit(rec, s, i))
			rec.end(s)
			continue
		}
		// An untraced unit records nothing inside; the one span around it
		// only keeps the root's self time down to the glue between units.
		s := rec.begin(unitName+" (untraced)", root, i, 0)
		before := snapHost()
		u := w.unit(nil, -1, i)
		after := snapHost()
		rec.end(s)
		hostBusy.cpu += after.cpu - before.cpu
		hostBusy.allocB += after.allocB - before.allocB
		hostBusy.mallocs += after.mallocs - before.mallocs
		hostBusy.gcCPUFrac = after.gcCPUFrac
		hostOps += u.ops
		untraced = append(untraced, u)
	}
	rec.end(root)

	for _, u := range append(append([]unitResult{}, untraced...), traced...) {
		res.Attempted += u.ops
		res.Failed += u.failed
	}
	res.Correct = res.Failed == 0 && warm.failed == 0
	endToEndMetrics(res.Metrics, def, untraced)
	hostMetrics(res.Metrics, hostBusy, hostOps)
	printUnits(stderr, def, untraced)

	if o.trace {
		w.finish(res.Metrics)
		res.Metrics.set("trace.overhead_frac", medianOf(traced, unitSeconds)/medianOf(untraced, unitSeconds)-1)
		if !def.Serve {
			rec.whereTimeGoes(stderr, root)
		}
		path := outPath("trace-" + def.Name + ".json")
		if err := rec.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "%s: %d spans written to %s\n", def.Name, len(rec.spans), path)
		// The workload's server and backends are shut down before the
		// probes so the probes measure each layer alone.
		w.close()
		if err := runProbes(res.Metrics, o, stderr); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		if def.Serve {
			serveBreakdown(stderr, def, res.Metrics)
		}
	}
	return res, nil
}

// serveBreakdown is the serve workloads' "where the time goes": request
// spans overlap across clients, so instead of span self times it stacks
// the probes that bound one request from below.
func serveBreakdown(w io.Writer, def workloadDef, m metricSet) {
	us := func(name string) float64 { return m[name].Value }
	fmt.Fprintf(w, "where the time goes (%s, microseconds per request)\n", def.Name)
	row := func(label string, v float64) { fmt.Fprintf(w, "  %-58s %10.1f\n", label, v) }
	row("end-to-end p50 (closed loop, TCP, untraced windows)", us("p50_ms")*1e3)
	row("loopback floor: generator + TCP + trivial handler", us("serve.loopback_floor_us"))
	if def.Name == "serve-hot" {
		row("handler, cache hit, no TCP", us("serve.handler_hit_us"))
		row("  of which scenario.CacheKey", us("scenario.cachekey_us"))
		return
	}
	row("handler, cache miss, no TCP", us("serve.handler_miss_us"))
	row("  of which the cell itself: scenario.Run + json.Marshal", us("serve.handler_miss_us")-us("serve.miss_overhead_us"))
	row("  of which serving overhead (the addressable part)", us("serve.miss_overhead_us"))
}

func unitSeconds(u unitResult) float64 { return u.seconds }

func medianOf(us []unitResult, f func(unitResult) float64) float64 {
	xs := make([]float64, len(us))
	for i, u := range us {
		xs[i] = f(u)
	}
	_, med, _ := quartiles(xs)
	return med
}

// sweepRequests is the size of the sweep a serve workload's wall_s
// refers to: the host seconds a closed-loop sweep driver waits for this
// many replies.
const sweepRequests = 10000

// endToEndMetrics derives the end-to-end metrics from the untraced timed
// units, each as the median over the units. Every workload reports all
// of them:
//
//	batch  wall_s = seconds per pass; qps = operations per second of a
//	       pass; p50_ms = pass latency; p99_ms = the slowest single
//	       operation of a pass (a pass has 4-7 operations, so its highest
//	       supported percentile is its maximum).
//	serve  qps, p50_ms, p99_ms = a window's completed requests per second
//	       and request-latency percentiles; wall_s = seconds per
//	       sweepRequests requests.
func endToEndMetrics(m metricSet, def workloadDef, us []unitResult) {
	ok := func(u unitResult) float64 { return math.Max(float64(u.ops-u.failed), 1) }
	wall := unitSeconds
	if def.Serve {
		wall = func(u unitResult) float64 { return u.seconds * sweepRequests / ok(u) }
	}
	m.set("wall_s", medianOf(us, wall))
	m.set("qps", medianOf(us, func(u unitResult) float64 { return ok(u) / u.seconds }))
	m.set("p50_ms", medianOf(us, func(u unitResult) float64 { return u.p50ms }))
	m.set("p99_ms", medianOf(us, func(u unitResult) float64 { return u.p99ms }))
}

// printUnits prints the timed units' quartiles and count.
func printUnits(w io.Writer, def workloadDef, us []unitResult) {
	xs := make([]float64, len(us))
	n := 0
	for i, u := range us {
		xs[i] = u.seconds
		n += u.ops
	}
	q1, med, q3 := quartiles(xs)
	kind := "passes"
	if def.Serve {
		kind = "windows"
	}
	fmt.Fprintf(w, "%s: %d untraced %s, seconds each q1=%.4f median=%.4f q3=%.4f, %d operations\n  each:",
		def.Name, len(us), kind, q1, med, q3, n)
	for _, x := range xs {
		fmt.Fprintf(w, " %.4f", x)
	}
	fmt.Fprintln(w)
	if def.Serve {
		fmt.Fprintf(w, "  req/s, p50 ms, p99 ms each:")
		for _, u := range us {
			fmt.Fprintf(w, " %.0f/%.4f/%.3f", float64(u.ops-u.failed)/u.seconds, u.p50ms, u.p99ms)
		}
		fmt.Fprintln(w)
	}
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (exclusive
// method), so spreads reported here match the driver's.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// percentile returns the q-quantile of sorted xs (nearest rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// resultsFile is what the all-workloads mode writes and -compare reads:
// the host stamp and every run of the set.
type resultsFile struct {
	Host hostStamp   `json:"host"`
	Runs []recordRun `json:"runs"`
}

type recordRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	runResult
}

// runAll runs every workload, one after another, runs times with
// consecutive seeds, prints every metric and writes the results file.
func runAll(o options, runs int, out string, stdout, stderr io.Writer) error {
	host := newHostStamp(o.seed, o.seconds, o.quick)
	fmt.Fprintln(stdout, "host:", host)
	file := resultsFile{Host: host}
	allCorrect := true
	for r := 0; r < runs; r++ {
		for _, def := range workloadDefs {
			ro := o
			ro.workload, ro.seed = def.Name, o.seed+int64(r)
			res, err := runWorkload(ro, stderr)
			if err != nil {
				return err
			}
			printMetrics(stdout, fmt.Sprintf("%s (seed %d)", def.Name, ro.seed), res)
			allCorrect = allCorrect && res.Correct
			file.Runs = append(file.Runs, recordRun{Workload: def.Name, Seed: ro.seed, Traced: o.trace, runResult: *res})
		}
	}
	if out == "" {
		out = outPath("results.json")
		if o.trace {
			out = outPath("results-trace.json")
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "results written to", out)
	if runs > 1 && !o.trace {
		printSpread(stdout, file)
	}
	if !allCorrect {
		return fmt.Errorf("at least one workload reported failed operations")
	}
	return nil
}

// updateExpected recomputes every pinned digest (one pass per batch
// workload, the reference replies of the serve workloads) and rewrites
// benchmark/expected.json.
func updateExpected(o options, stderr io.Writer) error {
	sweep.Workers = 0
	all := map[string]string{}
	for _, def := range workloadDefs {
		w, err := setupWorkload(def, o, makePlan(def, o), nil)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", def.Name, err)
		}
		u := w.unit(nil, -1, -1)
		ds := w.digests()
		w.close()
		if u.failed > 0 {
			return fmt.Errorf("%s: %d operations failed; digests not updated", def.Name, u.failed)
		}
		for k, v := range ds {
			all[k] = v
		}
		fmt.Fprintf(stderr, "%s: %d digests\n", def.Name, len(ds))
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir(), "expected.json"), append(data, '\n'), 0o644)
}
