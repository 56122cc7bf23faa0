package experiments

import (
	"sync"
	"testing"

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
		{"fig3", 3_359_926},
		{"fig4", 2_236_726},
		{"fig5", 0}, // closed form: no Env
		{"fig6", 438_966},
		{"scale-out", 2_049_773},
		{"resilience", 1_983_253},
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
