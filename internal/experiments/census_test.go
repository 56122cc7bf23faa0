package experiments

import (
	"sync"
	"testing"

	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/scenario"
)

// eventCensus runs one registered scenario and returns the DES events it
// executed, summed over every cell's environment.
func eventCensus(t *testing.T, name string, p scenario.Params) int64 {
	t.Helper()
	var (
		mu   sync.Mutex
		envs []*des.Env
	)
	onCellEnv = func(e *des.Env) {
		mu.Lock()
		envs = append(envs, e)
		mu.Unlock()
	}
	defer func() { onCellEnv = nil }()
	s, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	if _, err := s.Run(bg, p); err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range envs {
		n += e.Executed()
	}
	return n
}

// TestEventCensus answers "where do the events go": it logs (-v) the
// events each scenario of a sim-sweep pass executes at its defaults and
// holds each to the ceiling recorded in EXPERIMENTS.md ("Where the
// events of a sim-sweep pass go"). The counts repeat exactly on every
// host, so a harness that starts simulating what no report observes —
// Fig 6 writers no fetch waits on, Pattern 1 polls that find nothing —
// fails here by name.
func TestEventCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven scenarios at their defaults")
	}
	var total int64
	for _, c := range []struct {
		name    string
		ceiling int64
	}{
		{"fig3", 2_528_456},
		{"fig4", 1_405_256},
		{"fig5", 0}, // closed form: no Env
		{"fig6", 0}, // closed form: no Env
		{"scale-out", 1_781_748},
		{"resilience", 1_801_501},
		{"campaign", 128_876},
	} {
		n := eventCensus(t, c.name, scenario.Params{})
		t.Logf("%-10s %10d events", c.name, n)
		if n > c.ceiling {
			t.Errorf("%s executed %d events, ceiling %d", c.name, n, c.ceiling)
		}
		total += n
	}
	t.Logf("%-10s %10d events", "pass", total)
}

// TestFileSystemCellEvents pins the events of the benchmark's p1-fs-512
// cell (Pattern 1, 512 nodes, file system, 8 MB, 600 iterations), the
// costliest cell of a sim-sweep pass: 205 507, where an event per client
// RPC and per MDS grant made it 411 006.
func TestFileSystemCellEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 512-node file-system cell")
	}
	var env *des.Env
	onCellEnv = func(e *des.Env) { env = e }
	defer func() { onCellEnv = nil }()
	checked(t, RunPattern1Checked, Pattern1Config{Nodes: 512, Backend: datastore.FileSystem, SizeMB: 8, TrainIters: 600})
	if n := env.Executed(); n > 205_507 {
		t.Errorf("p1-fs-512 executed %d events, ceiling 205 507", n)
	}
}
