package experiments

import (
	"context"
	"testing"

	"simaibench/internal/scenario"
)

// bg is the context for test runs that never cancel.
var bg = context.Background()

// checked runs one harness entry point (RunPattern1Checked, …) and
// fails the test on error.
func checked[C, P any](t testing.TB, run func(C) (P, error), cfg C) P {
	t.Helper()
	pt, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// gridOK fails the test unless a grid function (pattern1Grid, …) ran
// every cell: call it with the grid's last two results.
func gridOK(t testing.TB, fails []scenario.CellFailure, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) > 0 {
		t.Fatalf("%d cell(s) failed, first: %+v", len(fails), fails[0])
	}
}
