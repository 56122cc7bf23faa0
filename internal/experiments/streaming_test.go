package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestStreamingComparisonRuns(t *testing.T) {
	// A deliberately wide poll interval: the property under test is that
	// push streaming removes the polling floor from delivery latency, so
	// the floor must sit clearly above scheduler/TCP jitter (~ms here).
	points, err := RunStreamingComparison(bg, StreamingConfig{
		SizeMB: 0.5, Snapshots: 8, PollInterval: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3 methods", len(points))
	}
	byMethod := map[StreamingMethod]StreamingPoint{}
	for _, pt := range points {
		if pt.LatencyMeanS <= 0 || pt.GBps <= 0 {
			t.Fatalf("degenerate point %+v", pt)
		}
		byMethod[pt.Method] = pt
	}
	// The push paths remove the poll interval from the delivery latency:
	// streaming must beat staged polling for this size.
	staged := byMethod[MethodStagedPolling]
	for _, m := range []StreamingMethod{MethodStreamInProc, MethodStreamTCP} {
		if byMethod[m].LatencyMeanS >= staged.LatencyMeanS {
			t.Errorf("%s latency %v not below staged polling %v",
				m, byMethod[m].LatencyMeanS, staged.LatencyMeanS)
		}
	}
}

func TestStagedPollingLatencyIncludesPollInterval(t *testing.T) {
	fast, err := RunStagedPolling(bg, StreamingConfig{
		SizeMB: 0.1, Snapshots: 5, PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunStagedPolling(bg, StreamingConfig{
		SizeMB: 0.1, Snapshots: 5, PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow.LatencyMeanS < fast.LatencyMeanS+0.010 {
		t.Fatalf("poll interval not reflected in latency: %v vs %v",
			fast.LatencyMeanS, slow.LatencyMeanS)
	}
}

func TestPrintStreaming(t *testing.T) {
	points, err := RunStreamingComparison(bg, StreamingConfig{SizeMB: 0.2, Snapshots: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeTable(t, &buf, streamingTable(points))
	out := buf.String()
	for _, want := range []string{"staged-poll", "stream-inproc", "stream-tcp", "latency-mean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("streaming output missing %q:\n%s", want, out)
		}
	}
}
