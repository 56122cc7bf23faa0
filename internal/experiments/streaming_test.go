package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/scenario"
	"simaibench/internal/stream"
	"simaibench/internal/sweep"
)

// streamingComparison measures all three methods at one size, one after
// another.
func streamingComparison(t *testing.T, cfg StreamingConfig) []StreamingPoint {
	t.Helper()
	var points []StreamingPoint
	for _, method := range streamingMethods {
		pt, err := runStreamingCell(bg, cfg, method)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pt)
	}
	return points
}

func TestStreamingComparisonRuns(t *testing.T) {
	// A deliberately wide poll interval: the property under test is that
	// push streaming removes the polling floor from delivery latency, so
	// the floor must sit clearly above scheduler/TCP jitter (~ms here).
	points := streamingComparison(t, StreamingConfig{
		SizeMB: 0.5, Snapshots: 8, PollInterval: 15 * time.Millisecond,
	})
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
	fast, err := runStreamingCell(bg, StreamingConfig{
		SizeMB: 0.1, Snapshots: 5, PollInterval: time.Millisecond,
	}, MethodStagedPolling)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := runStreamingCell(bg, StreamingConfig{
		SizeMB: 0.1, Snapshots: 5, PollInterval: 20 * time.Millisecond,
	}, MethodStagedPolling)
	if err != nil {
		t.Fatal(err)
	}
	if slow.LatencyMeanS < fast.LatencyMeanS+0.010 {
		t.Fatalf("poll interval not reflected in latency: %v vs %v",
			fast.LatencyMeanS, slow.LatencyMeanS)
	}
}

func TestPrintStreaming(t *testing.T) {
	points := streamingComparison(t, StreamingConfig{SizeMB: 0.2, Snapshots: 4})
	var buf bytes.Buffer
	writeTable(t, &buf, streamingTable(points))
	out := buf.String()
	for _, want := range []string{"staged-poll", "stream-inproc", "stream-tcp", "latency-mean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("streaming output missing %q:\n%s", want, out)
		}
	}
}

// settlesTo fails the test unless the goroutine count is back to base
// (or below) within a second.
func settlesTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second later, %d before the run", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hookedReader calls hook before every NextStep from call number `from`
// on; an error from the hook is returned in the step's place.
type hookedReader struct {
	stream.Reader
	from, calls int
	hook        func() error
}

func (h *hookedReader) NextStep() (*stream.Step, error) {
	if h.calls++; h.calls >= h.from {
		if err := h.hook(); err != nil {
			return nil, err
		}
	}
	return h.Reader.NextStep()
}

// hookedWriter fails BeginStep with err from call number `from` on.
type hookedWriter struct {
	stream.Writer
	from, calls int
	err         error
}

func (h *hookedWriter) BeginStep() (*stream.OpenStep, error) {
	if h.calls++; h.calls >= h.from {
		return nil, h.err
	}
	return h.Writer.BeginStep()
}

// TestStreamingDeliveryEarlyReturnLeavesNoGoroutine: a delivery that
// stops early — its reader or its writer fails, or its context is
// cancelled — returns that error (a failed writer's own, not the end of
// stream the consumer sees because of it), and the producer it started
// is gone: not parked for the life of the process on a queue or a socket
// nobody drains.
func TestStreamingDeliveryEarlyReturnLeavesNoGoroutine(t *testing.T) {
	boom, wboom := errors.New("reader failed"), errors.New("writer failed")
	for _, method := range []StreamingMethod{MethodStreamInProc, MethodStreamTCP} {
		for _, tc := range []struct {
			name    string
			from    int   // the NextStep call the fault arrives on; 0 = cancelled before the run
			cancels bool  // the fault cancels the context and the step is still delivered
			fails   error // the fault is this error in the step's place
			wfails  error // the fault is this error from the writer's BeginStep instead
			want    error
		}{
			{"reader fails at step 3", 3, false, boom, nil, boom},
			{"writer fails at step 3", 3, false, nil, wboom, wboom},
			{"cancelled at step 3", 3, true, nil, nil, context.Canceled},
			{"cancelled before the run", 0, true, nil, nil, context.Canceled},
		} {
			t.Run(string(method)+"/"+tc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				var w stream.Writer
				var r stream.Reader
				if method == MethodStreamInProc {
					w, r = stream.Pipe(4)
				} else {
					tw, err := stream.ListenTCP("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					w = tw
					if r, err = stream.DialTCP(tw.Addr()); err != nil {
						t.Fatal(err)
					}
				}
				ctx, cancel := context.WithCancel(bg)
				defer cancel()
				if tc.from == 0 {
					cancel()
				} else if tc.wfails != nil {
					w = &hookedWriter{Writer: w, from: tc.from, err: tc.wfails}
				} else {
					r = &hookedReader{Reader: r, from: tc.from, hook: func() error {
						if tc.cancels {
							cancel()
						}
						return tc.fails
					}}
				}
				// 20 snapshots against a queue of 4 and a socket buffer
				// far below 10 MB: the producer is parked when the
				// consumer stops.
				_, err := RunStreamDelivery(ctx, StreamingConfig{SizeMB: 0.5}, method, w, r)
				if !errors.Is(err, tc.want) {
					t.Fatalf("got error %v, want %v", err, tc.want)
				}
				w.Close()
				r.Close()
				settlesTo(t, base)
			})
		}
	}
}

// TestStreamingConfigRejectsBadInput: a value that would panic in an
// allocation or yield a negative or infinite pad is an error naming the
// field, on every method, before a transport exists.
func TestStreamingConfigRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   StreamingConfig
	}{
		{"SizeMB", StreamingConfig{SizeMB: -1}},
		{"SizeMB", StreamingConfig{SizeMB: math.NaN()}},
		{"SizeMB", StreamingConfig{SizeMB: math.Inf(1)}},
		{"SizeMB", StreamingConfig{SizeMB: 1e13}},
		{"Snapshots", StreamingConfig{Snapshots: -1}},
		{"PollInterval", StreamingConfig{PollInterval: -time.Millisecond}},
		{"XferGBps", StreamingConfig{XferGBps: -2}},
		{"XferGBps", StreamingConfig{XferGBps: math.NaN()}},
		{"XferGBps", StreamingConfig{XferGBps: math.Inf(1)}},
		{"XferGBps", StreamingConfig{XferGBps: 1e-300}},
	} {
		base := runtime.NumGoroutine()
		for _, method := range streamingMethods {
			_, err := runStreamingCell(bg, tc.cfg, method)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s, %+v: got error %v, want one naming %s", method, tc.cfg, err, tc.field)
			}
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%+v: %d goroutines after the refusals, %d before: something was deployed", tc.cfg, n, base)
		}
	}
	w, r := stream.Pipe(1)
	if _, err := RunStreamDelivery(bg, StreamingConfig{Snapshots: -1}, MethodStreamInProc, w, r); err == nil || !strings.Contains(err.Error(), "Snapshots") {
		t.Errorf("RunStreamDelivery: got error %v, want one naming Snapshots", err)
	}
	if _, err := runStreamingCell(bg, StreamingConfig{}, "carrier-pigeon"); err == nil {
		t.Error("an unknown method was measured")
	}
}

// withSweepWorkers sets the sweep worker pool for the test's duration.
func withSweepWorkers(t *testing.T, n int) {
	t.Helper()
	prev := sweep.Workers
	t.Cleanup(func() { sweep.Workers = prev })
	sweep.Workers = n
}

// TestStreamingFanOutEqualsSerial: what the scenario reports, as text
// and as JSON, does not depend on how many of its cells run at once.
func TestStreamingFanOutEqualsSerial(t *testing.T) {
	var want [2][]byte
	for _, workers := range []int{1, 1, 4, 4} {
		withSweepWorkers(t, workers)
		res, err := runStreamingScenario(bg, scenario.Params{Clock: clock.KindVirtual})
		if err != nil {
			t.Fatal(err)
		}
		for i, format := range []string{"text", "json"} {
			got := renderResult(t, format, res)
			if want[i] == nil {
				want[i] = got
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s at %d workers differs from the first serial run:\n%s\n--- serial ---\n%s", format, workers, got, want[i])
			}
		}
	}
}

// streamingCell names one cell a stand-in runner was asked for.
type streamingCell struct {
	sizeMB float64
	method StreamingMethod
}

// rowMajorStreamingCells is the order the scenario tabulates in.
func rowMajorStreamingCells() []streamingCell {
	var cells []streamingCell
	for _, size := range StreamingSizes {
		for _, method := range streamingMethods {
			cells = append(cells, streamingCell{size, method})
		}
	}
	return cells
}

// TestStreamingCellsOverlapOnlyOnVirtualClock: as for the validation
// pair, side by side or one after another follows the clock kind and
// nothing else — two workers are on offer both times.
func TestStreamingCellsOverlapOnlyOnVirtualClock(t *testing.T) {
	withSweepWorkers(t, 2)
	measure := func(o *overlap, kind string) []streamingCell {
		var order []streamingCell
		points, err := streamingGridVia(bg, scenario.Params{Clock: kind},
			func(_ context.Context, cfg StreamingConfig, method StreamingMethod) (StreamingPoint, error) {
				if cfg.Clock != kind {
					t.Errorf("cell got clock %q, want the scenario's %q", cfg.Clock, kind)
				}
				o.during(func() { order = append(order, streamingCell{cfg.SizeMB, method}) })
				return StreamingPoint{Method: method, SizeMB: cfg.SizeMB}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		// Whatever order they ran in, the points come back row-major.
		for i, c := range rowMajorStreamingCells() {
			if points[i].SizeMB != c.sizeMB || points[i].Method != c.method {
				t.Fatalf("clock %q: point %d is %+v, want cell %+v", kind, i, points[i], c)
			}
		}
		return order
	}
	first := streamingCell{StreamingSizes[len(StreamingSizes)-1], MethodStagedPolling}
	for _, kind := range []string{"", clock.KindVirtual} {
		o := rendezvous()
		order := measure(&o, kind)
		if o.peak < 2 {
			t.Fatalf("clock %q: peak of %d cells in flight with two workers, want them side by side", kind, o.peak)
		}
		if !slices.Contains(order[:2], first) {
			t.Fatalf("clock %q: the two workers started %v, want the largest staged-poll cell among them", kind, order[:2])
		}
	}
	var o overlap
	order := measure(&o, clock.KindWall)
	if o.peak != 1 || !slices.Equal(order, rowMajorStreamingCells()) {
		t.Fatalf("wall clock: peak %d, order %v; want the row-major order, one cell at a time", o.peak, order)
	}
	// One worker shows the order the virtual grid feeds the pool in:
	// largest size first, each size's methods in table order.
	withSweepWorkers(t, 1)
	var want []streamingCell
	for i := len(StreamingSizes) - 1; i >= 0; i-- {
		for _, method := range streamingMethods {
			want = append(want, streamingCell{StreamingSizes[i], method})
		}
	}
	if order := measure(&o, clock.KindVirtual); !slices.Equal(order, want) {
		t.Fatalf("virtual clock, one worker: order %v, want %v", order, want)
	}
}

// TestStreamingFirstFailureWins: when two cells fail the scenario's
// error is the one of lower table index, even when it failed later —
// in one size row, and in two size rows whose order of running is not
// their table order — and the seven healthy cells — real ones,
// shortened — have all run and taken their servers, listeners and
// producers down again.
func TestStreamingFirstFailureWins(t *testing.T) {
	withSweepWorkers(t, 2)
	cells := rowMajorStreamingCells()
	for _, pair := range [][2]int{{3, 4}, {1, 7}} {
		lower, higher := cells[pair[0]], cells[pair[1]]
		lowerErr, higherErr := fmt.Errorf("cell %d failed", pair[0]), fmt.Errorf("cell %d failed", pair[1])
		higherFailed := make(chan struct{})
		var failOnce sync.Once
		var healthy atomic.Int32
		base := runtime.NumGoroutine()
		_, err := streamingGridVia(bg, scenario.Params{},
			func(ctx context.Context, cfg StreamingConfig, method StreamingMethod) (StreamingPoint, error) {
				switch (streamingCell{cfg.SizeMB, method}) {
				case lower:
					select {
					case <-higherFailed:
					case <-time.After(5 * time.Second):
					}
					return StreamingPoint{}, lowerErr
				case higher:
					failOnce.Do(func() { close(higherFailed) })
					return StreamingPoint{}, higherErr
				}
				cfg.Snapshots = 2
				defer healthy.Add(1)
				return runStreamingCell(ctx, cfg, method)
			})
		if err != lowerErr {
			t.Fatalf("cells %v: got error %v, want the lower-index cell's", pair, err)
		}
		if n := healthy.Load(); n != 7 {
			t.Fatalf("cells %v: %d healthy cells ran, want the other 7", pair, n)
		}
		settlesTo(t, base)
	}
}
