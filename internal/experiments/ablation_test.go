package experiments

import (
	"bytes"
	"strings"
	"testing"

	"simaibench/internal/scenario"
)

func TestMDSAblationDrivesCollapse(t *testing.T) {
	// The 512-node FS collapse must be caused by the MDS service time:
	// with a near-zero service time the 8-vs-512-node gap shrinks
	// drastically; with the default it is large.
	points, fails, err := mdsAblationGrid(bg, scenario.Params{SweepIters: 200}, []float64{0.00001, 0.0004})
	gridOK(t, fails, err)
	get := func(svc float64, nodes int) float64 {
		for _, pt := range points {
			if pt.MDSServiceS == svc && pt.Nodes == nodes {
				return pt.WriteMeanS
			}
		}
		t.Fatalf("missing point svc=%v nodes=%d", svc, nodes)
		return 0
	}
	fastGap := get(0.00001, 512) / get(0.00001, 8)
	slowGap := get(0.0004, 512) / get(0.0004, 8)
	if slowGap < 3 {
		t.Fatalf("default MDS service should collapse at 512 nodes: gap %v", slowGap)
	}
	if fastGap > slowGap/2 {
		t.Fatalf("ablating MDS service should remove the collapse: %v vs %v", fastGap, slowGap)
	}
}

func TestCacheAblationMovesDip(t *testing.T) {
	// With a huge cache share the 32 MB dip disappears (monotonic
	// profile); with the default it is present.
	points, fails, err := cacheAblationGrid(bg, scenario.Params{SweepIters: 200}, []float64{8.75, 1000})
	gridOK(t, fails, err)
	get := func(share, size float64) float64 {
		for _, pt := range points {
			if pt.CacheShareMB == share && pt.SizeMB == size {
				return pt.WriteGBps
			}
		}
		t.Fatalf("missing point share=%v size=%v", share, size)
		return 0
	}
	if !(get(8.75, 32) < get(8.75, 8)) {
		t.Fatal("default share lost the 32 MB dip")
	}
	if !(get(1000, 32) > get(1000, 8)) {
		t.Fatal("huge cache share should make the profile monotonic")
	}
}

func TestIncastAblationControlsCrossover(t *testing.T) {
	// With incast latency ablated to zero, Dragon's small-message fetch
	// should beat or match FS; with the default it clearly lags.
	points, fails, err := incastAblationGrid(bg, scenario.Params{SweepIters: 100}, []float64{0, 0.010})
	gridOK(t, fails, err)
	get := func(lat, size float64) (dragon, fs float64) {
		for _, pt := range points {
			if pt.IncastLatencyS == lat && pt.SizeMB == size {
				return pt.DragonFetchS, pt.FSFetchS
			}
		}
		t.Fatalf("missing point lat=%v size=%v", lat, size)
		return 0, 0
	}
	drDefault, fsDefault := get(0.010, 1)
	if drDefault < 2*fsDefault {
		t.Fatalf("default incast latency should make dragon lag FS at 1MB: %v vs %v", drDefault, fsDefault)
	}
	drZero, fsZero := get(0, 1)
	if drZero > 1.2*fsZero {
		t.Fatalf("zero incast latency should close the 1MB gap: dragon %v vs fs %v", drZero, fsZero)
	}
}

func TestAblationPrinters(t *testing.T) {
	var buf bytes.Buffer
	mds, fails, err := mdsAblationGrid(bg, scenario.Params{SweepIters: 100}, []float64{0.0004})
	gridOK(t, fails, err)
	writeTable(t, &buf, mdsAblationTable(mds))
	cache, fails, err := cacheAblationGrid(bg, scenario.Params{SweepIters: 100}, []float64{8.75})
	gridOK(t, fails, err)
	writeTable(t, &buf, cacheAblationTable(cache))
	incast, fails, err := incastAblationGrid(bg, scenario.Params{SweepIters: 50}, []float64{0.010})
	gridOK(t, fails, err)
	writeTable(t, &buf, incastAblationTable(incast))
	out := buf.String()
	for _, want := range []string{"MDS service", "L3 share", "incast latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}
