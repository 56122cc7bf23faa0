package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// benchmark re-executes os.Executable() with -child for every workload.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogueWithinContract checks the catalogue against the limits
// the benchmark contract sets on BENCHMARK.json.
func TestCatalogueWithinContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		name(m.Name)
		if m.Moves == "" || m.How == "" {
			t.Errorf("%s: every per-layer metric states how it is measured and what it should move", m.Name)
		}
	}
}

// TestContractFileRoundTrips pins BENCHMARK.json to the catalogue: the
// file decodes into the program's own types with no unknown keys and
// equals what -write-contract would write.
func TestContractFileRoundTrips(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var got contract
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := buildContract(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; run `bash benchmark/run.sh -write-contract`\n got %+v\nwant %+v", got, want)
	}
}

// lastLine runs the benchmark in-process and decodes its result line.
func lastLine(t *testing.T, args ...string) runResult {
	t.Helper()
	var stdout bytes.Buffer
	if code := realMain(args, &stdout, io.Discard); code != 0 {
		t.Fatalf("benchmark %v: exit %d", args, code)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if len(raw) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// checkMetrics asserts res carries exactly the metrics of defs, each
// once, with its catalogued unit and a finite value.
func checkMetrics(t *testing.T, res runResult, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: not emitted", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: value %v", d.Name, m.Value)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestQuickRuns drives every workload through both modes at -quick size:
// every end-to-end metric untraced, every per-layer metric traced, no
// failed operation, and the fixed operation counts of the batch
// workloads.
func TestQuickRuns(t *testing.T) {
	opsPerPass := map[string]float64{"sim-sweep": 7, "lp-scale": 4, "emulation": 4}
	for _, def := range workloadDefs {
		t.Run(def.Name, func(t *testing.T) {
			t.Parallel()
			res := lastLine(t, "--workload", def.Name, "--seed", "3", "--seconds", "1", "--trace", "0", "-quick")
			checkMetrics(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never 0", name, m.Value)
				}
			}
			if n, ok := opsPerPass[def.Name]; ok && float64(res.Attempted) != 2*n {
				t.Errorf("attempted %d operations in 2 passes, want %v", res.Attempted, 2*n)
			}

			res = lastLine(t, "--workload", def.Name, "--seed", "3", "--seconds", "1", "--trace", "1", "-quick")
			checkMetrics(t, res, perLayer)
			// A traced quick run alternates 2 untraced and 2 traced units;
			// host.ops counts the untraced ones.
			if n, ok := opsPerPass[def.Name]; ok && res.Metrics["host.ops"].Value != 2*n {
				t.Errorf("host.ops = %v, want %v", res.Metrics["host.ops"].Value, 2*n)
			}
			hit, evict := res.Metrics["serve.hit_ratio"].Value, res.Metrics["serve.evictions_per_op"].Value
			switch def.Name {
			case "serve-hot":
				if hit != 1 || evict != 0 {
					t.Errorf("hit_ratio %v evictions_per_op %v, want 1 and 0", hit, evict)
				}
			case "serve-cold":
				if hit != 0 || evict < 0.95 || evict > 1 {
					t.Errorf("hit_ratio %v evictions_per_op %v, want 0 and ~1", hit, evict)
				}
			}
			if j, s := res.Metrics["serve.dedup_joins"].Value, res.Metrics["serve.shed"].Value; j != 0 || s != 0 {
				t.Errorf("dedup_joins %v shed %v, want 0 and 0", j, s)
			}
			if _, err := os.Stat(outPath("trace-" + def.Name + ".json")); err != nil {
				t.Errorf("no Chrome trace written: %v", err)
			}
		})
	}
}

// TestSeedOrdersInputs: equal seeds generate equal inputs, and the seed
// is what orders them.
func TestSeedOrdersInputs(t *testing.T) {
	def, _ := lookupWorkload("sim-sweep")
	order := func(seed int64) string {
		w, err := newBatchWorkload(def, options{seed: seed, quick: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, op := range w.ops {
			ids = append(ids, op.id)
		}
		return strings.Join(ids, " ")
	}
	if a, b := order(5), order(5); a != b {
		t.Errorf("seed 5 ordered the operations %q then %q", a, b)
	}
	if order(5) == order(6) && order(6) == order(7) {
		t.Error("seeds 5, 6 and 7 all give the same order")
	}

	hot, _ := lookupWorkload("serve-hot")
	walks := func(seed int64) [][]int {
		o := options{seed: seed, quick: true}
		w, err := newServeWorkload(hot, o, makePlan(hot, o), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		var orders [][]int
		for _, c := range w.clients {
			orders = append(orders, c.order)
		}
		return orders
	}
	if a, b := walks(9), walks(9); !reflect.DeepEqual(a, b) {
		t.Errorf("seed 9 gave client walks %v then %v", a, b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

// TestCompareVerdicts builds two results sets by hand and checks the
// three verdicts and the regression exit.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, gomaxprocs int, wall, qps []float64, failed int) string {
		f := resultsFile{Host: hostStamp{GOMAXPROCS: gomaxprocs, NProc: 2, CPUModel: "x"}}
		for i := range wall {
			m := metricSet{}
			m.set("wall_s", wall[i])
			m.set("qps", qps[i])
			f.Runs = append(f.Runs, recordRun{Workload: "sim-sweep", Seed: int64(i),
				runResult: runResult{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: m}})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 2, []float64{1.00, 1.01, 0.99, 1.00}, []float64{100, 101, 99, 100}, 0)
	for _, tc := range []struct {
		name      string
		path      string
		wantWall  string
		regressed bool
	}{
		{"same", write("same.json", 2, []float64{1.02, 1.01, 1.00, 1.03}, []float64{100, 101, 99, 100}, 0), "ok", false},
		{"slower", write("slow.json", 2, []float64{1.40, 1.41, 1.39, 1.40}, []float64{100, 101, 99, 100}, 0), "regressed", true},
		{"noisy", write("noisy.json", 2, []float64{0.60, 1.50, 0.80, 1.30}, []float64{100, 101, 99, 100}, 0), "unresolved", false},
		{"failing", write("fail.json", 2, []float64{1.00, 1.01, 0.99, 1.00}, []float64{100, 101, 99, 100}, 1), "ok", true},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, tc.path, false)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, regressed, tc.regressed, out.String())
		}
		wallRow := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "sim-sweep") && strings.Contains(line, "wall_s") {
				wallRow = line
			}
		}
		if !strings.HasSuffix(wallRow, tc.wantWall) {
			t.Errorf("%s: wall_s row %q, want verdict %s", tc.name, wallRow, tc.wantWall)
		}
	}
	other := write("other.json", 8, []float64{1}, []float64{100}, 0)
	if _, err := compareFiles(io.Discard, base, other, false); err == nil {
		t.Error("comparing sets taken at different GOMAXPROCS must be refused without -force")
	}
	if _, err := compareFiles(io.Discard, base, other, true); err != nil {
		t.Errorf("-force: %v", err)
	}
}
