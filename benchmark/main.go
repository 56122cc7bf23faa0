// Command benchmark is the repo's own benchmark: five named workloads,
// a small set of end-to-end metrics with regression bounds, and a traced
// run that yields one figure per layer. See README.md.
//
//	bash benchmark/run.sh                       all five workloads, untraced
//	bash benchmark/run.sh -trace 1              the traced run: per-layer metrics + Chrome traces
//	bash benchmark/run.sh -runs 10 -o A.json    ten seeds per workload, with the measured spread
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh --workload serve-hot --seed 3 --seconds 18 --trace 0   (one run; last line is the result)
//
// Every workload runs in its own child process (this binary re-executed
// with -child), one after another, so heap state, page cache and
// listener sockets of one workload never leak into the next and set-up
// time is measured from a cold process.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many cold child processes measure set-up time in
// one untraced run; setup_s is their median.
const setupSamples = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

var units = metricUnits()

// set stores a value under a catalogued name; an unknown name is a bug
// in the benchmark, not a runtime condition.
func (m metricSet) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	m[name] = metric{Value: v, Unit: u}
}

// runResult is the result line: exactly the keys the benchmark contract
// names. It is the last line of standard output of every single-workload
// run, parent and child alike.
type runResult struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// options are the settings shared by every mode.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	quick     bool
	setupOnly bool
	t0        int64
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload and print its result line (empty = all five)")
	fs.Int64Var(&o.seed, "seed", 1, "orders the generated requests and operations; the program under test never sees it")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 = the traced run: spans, probes and the per-layer metrics; 0 = end-to-end metrics with tracing off")
	fs.BoolVar(&o.quick, "quick", false, "shape check: 2 passes / 2 x 0.5 s windows of shrunken cells, probes at 1/20 size; digests are not compared to expected.json")
	child := fs.Bool("child", false, "internal: run the workload in this process")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child, stop after set-up")
	fs.Int64Var(&o.t0, "t0", 0, "internal: with -child, the parent's spawn time in unix nanoseconds")
	runs := fs.Int("runs", 1, "all-workloads mode: repeat the set this many times with seeds seed, seed+1, ...")
	out := fs.String("o", "", "all-workloads mode: results file (default benchmark/out/results[-trace].json)")
	compare := fs.Bool("compare", false, "compare two results files: -compare A.json B.json; exit 1 on any regression")
	force := fs.Bool("force", false, "with -compare: compare sets taken at different core counts anyway")
	update := fs.Bool("update-expected", false, "recompute every pinned digest and rewrite benchmark/expected.json")
	writeContract := fs.Bool("write-contract", false, "rewrite BENCHMARK.json from the metric catalogue")
	list := fs.Bool("list", false, "print the workload and metric tables as markdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace != 0

	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *list:
		printCatalogue(stdout)
		return 0
	case *writeContract:
		data, err := json.MarshalIndent(buildContract(), "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile("BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two results files"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1), *force)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *update:
		if o.quick {
			return fail(errors.New("-update-expected pins the full-size outputs; drop -quick"))
		}
		if err := updateExpected(o, stderr); err != nil {
			return fail(err)
		}
		return 0
	case *child:
		res, err := runChild(o, stderr)
		if err != nil {
			return fail(err)
		}
		return printResult(stdout, res)
	case o.workload != "":
		if _, ok := lookupWorkload(o.workload); !ok {
			return fail(fmt.Errorf("unknown workload %q (valid: %s)", o.workload, strings.Join(workloadNames(), ", ")))
		}
		fmt.Fprintln(stderr, "host:", newHostStamp(o.seed, o.seconds, o.quick))
		res, err := runWorkload(o, stderr)
		if err != nil {
			return fail(err)
		}
		printMetrics(stderr, o.workload, res)
		// The result line carries exactly the contract's metrics for this
		// mode; everything else was printed above.
		res.Metrics = filterMetrics(res.Metrics, o.trace)
		return printResult(stdout, res)
	default:
		if err := runAll(o, *runs, *out, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
}

func printResult(w io.Writer, res *runResult) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	return 0
}

// filterMetrics keeps the metrics the contract asks of one mode: every
// end-to-end metric untraced, every per-layer metric traced.
func filterMetrics(all metricSet, traced bool) metricSet {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	kept := metricSet{}
	for _, d := range defs {
		if v, ok := all[d.Name]; ok {
			kept[d.Name] = v
		}
	}
	return kept
}

// printMetrics lists every metric of a run by name with its unit, in
// catalogue order.
func printMetrics(w io.Writer, workload string, res *runResult) {
	failFrac := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d fail_frac=%g\n", workload, res.Correct, res.Attempted, res.Failed, failFrac)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-46s %16.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
}

// runWorkload runs one workload in child processes and returns its
// result. An untraced run first measures set-up in setupSamples-1
// set-up-only children, then measures the workload in one more child
// whose own set-up is the last sample; setup_s is the median. A traced
// run is a single child (set-up time is an untraced, end-to-end metric).
func runWorkload(o options, stderr io.Writer) (*runResult, error) {
	var setups []float64
	if !o.trace {
		for i := 1; i < setupSamples; i++ {
			so := o
			so.setupOnly = true
			res, err := spawnChild(so, stderr)
			if err != nil {
				return nil, err
			}
			setups = append(setups, res.Metrics["setup_s"].Value)
		}
	}
	res, err := spawnChild(o, stderr)
	if err != nil {
		return nil, err
	}
	setups = append(setups, res.Metrics["setup_s"].Value)
	_, med, _ := quartiles(setups)
	res.Metrics.set("setup_s", med)
	return res, nil
}

// spawnChild re-executes this binary for one workload, waits for it and
// decodes the result line it prints last. The child's diagnostics pass
// through to stderr.
func spawnChild(o options, stderr io.Writer) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-t0", strconv.FormatInt(time.Now().UnixNano(), 10)}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s child result: %w", o.workload, err)
	}
	return &res, nil
}

// benchDir is the benchmark's own directory relative to the working
// directory: "benchmark" from the repo root (run.sh), "." from inside it
// (go test).
func benchDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark"
	}
	return "."
}

func outPath(name string) string { return filepath.Join(benchDir(), "out", name) }

//go:embed expected.json
var expectedJSON []byte

// loadExpected returns the pinned digests (operation id → SHA-256).
func loadExpected() (map[string]string, error) {
	exp := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return exp, nil
}
