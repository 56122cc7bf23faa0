package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestSpansSortedByStart(t *testing.T) {
	tl := New()
	tl.AddSpan("Training", KindCompute, 5, 6, "")
	tl.AddSpan("Simulation", KindCompute, 1, 2, "")
	tl.AddSpan("Simulation", KindTransfer, 3, 3.1, "write")
	spans := tl.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans unsorted: %v", spans)
		}
	}
}

func TestLanesFirstAppearanceOrder(t *testing.T) {
	tl := New()
	tl.AddSpan("Simulation", KindInit, 0, 1, "")
	tl.AddSpan("Training", KindInit, 0, 2, "")
	tl.AddSpan("Simulation", KindCompute, 1, 2, "")
	lanes := tl.Lanes()
	if len(lanes) != 2 || lanes[0] != "Simulation" || lanes[1] != "Training" {
		t.Fatalf("lanes = %v", lanes)
	}
}

func TestConcurrentAdd(t *testing.T) {
	tl := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tl.AddSpan("lane", KindCompute, float64(i), float64(i)+1, "")
			}
		}()
	}
	wg.Wait()
	if len(tl.Spans()) != 800 {
		t.Fatalf("spans = %d, want 800", len(tl.Spans()))
	}
}

func TestWriteCSV(t *testing.T) {
	tl := New()
	tl.AddSpan("Sim", KindTransfer, 1.5, 1.75, "key=a,b") // comma must be escaped
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %v", lines)
	}
	if lines[0] != "lane,kind,start,end,label" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "transfer") || strings.Count(lines[1], ",") != 4 {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestRenderGlyphs(t *testing.T) {
	tl := New()
	tl.AddSpan("Simulation", KindInit, 0, 2, "")
	tl.AddSpan("Simulation", KindCompute, 2, 8, "")
	tl.AddSpan("Simulation", KindTransfer, 5, 5.05, "")
	tl.AddSpan("Training", KindCompute, 0, 10, "")
	var buf bytes.Buffer
	if err := tl.Render(&buf, 0, 10, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "░") {
		t.Error("render missing init glyph")
	}
	if !strings.Contains(out, "█") {
		t.Error("render missing compute glyph")
	}
	if !strings.Contains(out, "|") {
		t.Error("render missing transfer glyph (short transfers must stay visible)")
	}
	if !strings.Contains(out, "Simulation") || !strings.Contains(out, "Training") {
		t.Error("render missing lane names")
	}
}

func TestRenderEmptyWindowErrors(t *testing.T) {
	tl := New()
	var buf bytes.Buffer
	if err := tl.Render(&buf, 5, 5, 40); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestRenderClipsOutOfWindowSpans(t *testing.T) {
	tl := New()
	tl.AddSpan("L", KindCompute, 100, 200, "") // outside window
	var buf bytes.Buffer
	if err := tl.Render(&buf, 0, 10, 20); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "█") {
		t.Fatal("out-of-window span rendered")
	}
}

// TestLanesOrderedByStartThenName pins the lane order against
// insertion-order nondeterminism: concurrently-recording components
// whose first spans share a start time must render in (start, name)
// order no matter which Add landed first.
func TestLanesOrderedByStartThenName(t *testing.T) {
	// "Training" inserted before "Simulation", both starting at 0: the
	// name breaks the tie, not the insertion order.
	tl := New()
	tl.AddSpan("Training", KindInit, 0, 1, "")
	tl.AddSpan("Simulation", KindInit, 0, 2, "")
	tl.AddSpan("Late", KindCompute, 5, 6, "")
	want := []string{"Simulation", "Training", "Late"}
	got := tl.Lanes()
	if len(got) != len(want) {
		t.Fatalf("lanes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lanes = %v, want %v", got, want)
		}
	}
	// An earlier span added later still pulls its lane forward.
	tl.AddSpan("Late", KindCompute, -1, 0, "")
	if got := tl.Lanes(); got[0] != "Late" {
		t.Fatalf("after backdated span, lanes = %v, want Late first", got)
	}
}
