package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"simaibench/internal/datastore"
	"simaibench/internal/experiments" // registers the scenarios
	"simaibench/internal/scenario"
)

// batchOp is one operation of a batch workload: a scenario run rendered
// as text, or a harness call encoded as JSON. run returns the bytes
// whose SHA-256 is pinned in expected.json.
type batchOp struct {
	id  string // "<workload>/<name>", the expected.json key
	run func(ctx context.Context, rec *recorder, parent, pass int) ([]byte, error)
}

// digestChecker compares output digests with expected.json and with the
// first digest the run saw for the same operation.
type digestChecker struct {
	pinned map[string]string // nil: nothing is pinned (-quick, -update-expected)
	seen   map[string]string
}

func (d *digestChecker) check(id, got string) error {
	if first, ok := d.seen[id]; !ok {
		d.seen[id] = got
	} else if got != first {
		return fmt.Errorf("%s: digest %s differs from the first one seen, %s", id, got, first)
	}
	if d.pinned == nil {
		return nil
	}
	if want, ok := d.pinned[id]; !ok {
		return fmt.Errorf("%s: no pinned digest in expected.json (got %s)", id, got)
	} else if got != want {
		return fmt.Errorf("%s: digest %s differs from the pinned %s", id, got, want)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// batchWorkload times passes over a fixed list of operations. Every
// operation's output digest must equal the pinned digest and the digest
// of the first pass; a mismatch is a failed operation, never a silent
// pass.
type batchWorkload struct {
	ops   []batchOp
	check digestChecker
	// passCtx derives the context one pass's operations share.
	passCtx func(context.Context) context.Context
}

func (w *batchWorkload) unit(rec *recorder, parent, pass int) unitResult {
	ctx := context.Background()
	if w.passCtx != nil {
		ctx = w.passCtx(ctx)
	}
	var u unitResult
	start := time.Now()
	for _, op := range w.ops {
		u.ops++
		opStart := time.Now()
		out, err := op.run(ctx, rec, parent, pass)
		u.p99ms = max(u.p99ms, time.Since(opStart).Seconds()*1e3)
		if err == nil {
			err = w.check.check(op.id, digest(out))
		}
		if err != nil {
			u.failed++
			fmt.Fprintf(os.Stderr, "FAILED %s (pass %d): %v\n", op.id, pass, err)
		}
	}
	u.seconds = time.Since(start).Seconds()
	u.p50ms = u.seconds * 1e3
	return u
}

// finish reports the serve counters as zero: a batch workload starts no
// server.
func (w *batchWorkload) finish(m metricSet) {
	for _, name := range []string{"serve.hit_ratio", "serve.evictions_per_op", "serve.dedup_joins", "serve.shed"} {
		m.set(name, 0)
	}
}

func (w *batchWorkload) digests() map[string]string { return w.check.seen }
func (w *batchWorkload) close()                     {}

// scenarioOp runs one registered scenario through scenario.Lookup(...).Run
// and the text reporter, as the experiments CLI does.
func scenarioOp(workload, name string, p scenario.Params) (batchOp, error) {
	sc, ok := scenario.Lookup(name)
	if !ok {
		return batchOp{}, fmt.Errorf("scenario %q is not registered", name)
	}
	text, err := scenario.NewReporter("text")
	if err != nil {
		return batchOp{}, err
	}
	return batchOp{id: workload + "/" + name, run: func(ctx context.Context, rec *recorder, parent, pass int) ([]byte, error) {
		s := rec.begin("scenario.Run:"+name, parent, pass, 0)
		res, err := sc.Run(ctx, p)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		if len(res.Failures) > 0 {
			return nil, fmt.Errorf("%d sweep cells failed: %s", len(res.Failures), res.Failures[0].Error)
		}
		var buf bytes.Buffer
		s = rec.begin("scenario.Report:text", parent, pass, 0)
		err = text.Report(&buf, []*scenario.Result{res})
		rec.end(s)
		return buf.Bytes(), err
	}}, nil
}

// harnessOp runs one large single cell at the given worker count. The
// result must equal the Workers=1 result computed once during set-up —
// the repo's bit-identity contract — and its JSON digest is pinned.
func harnessOp[T comparable](name string, workers int, run func(workers int) (T, error)) (batchOp, error) {
	ref, err := run(1)
	if err != nil {
		return batchOp{}, fmt.Errorf("%s at Workers=1: %w", name, err)
	}
	return batchOp{id: "lp-scale/" + name, run: func(_ context.Context, rec *recorder, parent, pass int) ([]byte, error) {
		s := rec.begin("harness:"+name, parent, pass, 0)
		got, err := run(workers)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		if got != ref {
			return nil, fmt.Errorf("Workers=%d result %+v differs from the Workers=1 result %+v", workers, got, ref)
		}
		return json.Marshal(got)
	}}, nil
}

// lpWorkers is the worker count of the lp-scale cells and the client
// count of the serve workloads: never more goroutine-level load than
// cores, and at most 4.
func lpWorkers() int { return min(runtime.GOMAXPROCS(0), 4) }

// lpScaleOps builds the four large cells. Quick mode shrinks them by
// 16x in nodes and 10x in iterations.
func lpScaleOps(quick bool) ([]batchOp, error) {
	shrink, iters := 1, 600
	if quick {
		shrink, iters = 16, 60
	}
	w := lpWorkers()
	p1a, err := harnessOp("p1-nl-4096", w, func(workers int) (experiments.Pattern1Point, error) {
		return experiments.RunPattern1Checked(experiments.Pattern1Config{
			Nodes: 4096 / shrink, Backend: datastore.NodeLocal, SizeMB: 8, TrainIters: iters, Workers: workers})
	})
	if err != nil {
		return nil, err
	}
	p1b, err := harnessOp("p1-dragon-2048", w, func(workers int) (experiments.Pattern1Point, error) {
		return experiments.RunPattern1Checked(experiments.Pattern1Config{
			Nodes: 2048 / shrink, Backend: datastore.Dragon, SizeMB: 32, TrainIters: iters, Workers: workers})
	})
	if err != nil {
		return nil, err
	}
	gs, err := harnessOp("gradsync-512-hier", w, func(workers int) (experiments.GradSyncPoint, error) {
		return experiments.RunGradSync(experiments.GradSyncConfig{
			Ranks: 512 / shrink, ModelMB: 4, Algo: "hier", Steps: iters, Workers: workers})
	})
	if err != nil {
		return nil, err
	}
	so, err := harnessOp("scaleout-nl-64", w, func(workers int) (experiments.ScaleOutPoint, error) {
		return experiments.RunScaleOutChecked(experiments.ScaleOutConfig{
			Tenants: 64 / shrink, Backend: datastore.NodeLocal, SizeMB: 8, TrainIters: iters, Workers: workers})
	})
	if err != nil {
		return nil, err
	}
	return []batchOp{p1a, p1b, gs, so}, nil
}

// emulationParams are the validation settings of `experiments -exp all`
// (-train-iters 2500 is the CLI's default); quick mode shortens them.
func emulationParams(quick bool) scenario.Params {
	if quick {
		return scenario.Params{TrainIters: 100}
	}
	return scenario.Params{TrainIters: 2500}
}

// quickSweepParams shrink the sim-sweep scenarios for the shape check.
var quickSweepParams = scenario.Params{SweepIters: 20, Transfers: 10, Jobs: 100, Tenants: 4}

func newBatchWorkload(def workloadDef, o options, pinned map[string]string) (*batchWorkload, error) {
	w := &batchWorkload{check: digestChecker{pinned: pinned, seen: map[string]string{}}}
	switch def.Name {
	case "sim-sweep":
		var p scenario.Params // scenario defaults
		if o.quick {
			p = quickSweepParams
		}
		for _, name := range strings.Fields(simSweepScenarios) {
			op, err := scenarioOp(def.Name, name, p)
			if err != nil {
				return nil, err
			}
			w.ops = append(w.ops, op)
		}
	case "lp-scale":
		ops, err := lpScaleOps(o.quick)
		if err != nil {
			return nil, err
		}
		w.ops = ops
	case "emulation":
		// table2, table3 and fig2 share one validation measurement per
		// pass, as they do inside one CLI invocation.
		w.passCtx = experiments.WithValidationCache
		for _, name := range strings.Fields(emulationOps) {
			p := emulationParams(o.quick)
			if name == "streaming" {
				p = scenario.Params{}
			}
			op, err := scenarioOp(def.Name, name, p)
			if err != nil {
				return nil, err
			}
			w.ops = append(w.ops, op)
		}
	default:
		return nil, fmt.Errorf("%s is not a batch workload", def.Name)
	}
	// The seed only orders the operations within a pass.
	rand.New(rand.NewSource(o.seed)).Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	return w, nil
}

// setupWorkload builds one workload instance, everything short of the
// warm-up unit.
func setupWorkload(def workloadDef, o options, pl plan, pinned map[string]string) (workload, error) {
	if def.Serve {
		return newServeWorkload(def, o, pl, pinned)
	}
	return newBatchWorkload(def, o, pinned)
}
