package workflow

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleComponent(t *testing.T) {
	w := New("wf")
	ran := false
	w.Register(Component{Name: "only", Body: func(ctx Ctx) error {
		ran = true
		if ctx.Component != "only" {
			t.Errorf("ctx.Component = %q", ctx.Component)
		}
		return nil
	}})
	if err := w.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("component did not run")
	}
}

func TestDependencyOrdering(t *testing.T) {
	// The paper's Listing 1: run_sim must complete before run_sim2.
	w := New("wf")
	var mu sync.Mutex
	var order []string
	log := func(name string) Body {
		return func(ctx Ctx) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}
	}
	w.Register(Component{Name: "sim2", Deps: []string{"sim"}, Body: log("sim2")})
	w.Register(Component{Name: "sim", Body: log("sim")})
	if err := w.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "sim" || order[1] != "sim2" {
		t.Fatalf("order = %v", order)
	}
}

func TestDiamondDAG(t *testing.T) {
	w := New("wf")
	var mu sync.Mutex
	finished := map[string]bool{}
	mk := func(name string, deps ...string) {
		w.Register(Component{Name: name, Deps: deps, Body: func(ctx Ctx) error {
			mu.Lock()
			defer mu.Unlock()
			for _, d := range deps {
				if !finished[d] {
					t.Errorf("%s started before dep %s finished", name, d)
				}
			}
			finished[name] = true
			return nil
		}})
	}
	mk("a")
	mk("b", "a")
	mk("c", "a")
	mk("d", "b", "c")
	if err := w.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(finished) != 4 {
		t.Fatalf("finished = %v", finished)
	}
}

func TestIndependentComponentsRunConcurrently(t *testing.T) {
	w := New("wf")
	gate := make(chan struct{})
	// Two components that each wait for the other via the gate: they can
	// only finish if they truly overlap.
	w.Register(Component{Name: "a", Body: func(ctx Ctx) error {
		select {
		case gate <- struct{}{}:
		case <-gate:
		}
		return nil
	}})
	w.Register(Component{Name: "b", Body: func(ctx Ctx) error {
		select {
		case gate <- struct{}{}:
		case <-gate:
		}
		return nil
	}})
	done := make(chan error, 1)
	go func() { done <- w.Launch(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("independent components did not overlap (deadlock)")
	}
}

func TestRemoteComponentGetsWorld(t *testing.T) {
	w := New("wf")
	var ranksSeen int32
	w.Register(Component{Name: "mpi-job", Type: Remote, Ranks: 6, Body: func(ctx Ctx) error {
		if ctx.Comm == nil {
			t.Error("remote component without comm")
			return nil
		}
		if ctx.Comm.Size() != 6 {
			t.Errorf("world size = %d", ctx.Comm.Size())
		}
		ctx.Comm.Barrier()
		atomic.AddInt32(&ranksSeen, 1)
		return nil
	}})
	if err := w.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ranksSeen != 6 {
		t.Fatalf("ranks ran = %d, want 6", ranksSeen)
	}
}

func TestLocalComponentHasNoComm(t *testing.T) {
	w := New("wf")
	w.Register(Component{Name: "local", Type: Local, Body: func(ctx Ctx) error {
		if ctx.Comm != nil {
			t.Error("local component got a comm")
		}
		return nil
	}})
	if err := w.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCycleDetected(t *testing.T) {
	w := New("wf")
	w.Register(Component{Name: "a", Deps: []string{"b"}, Body: func(Ctx) error { return nil }})
	w.Register(Component{Name: "b", Deps: []string{"a"}, Body: func(Ctx) error { return nil }})
	err := w.Launch(context.Background())
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle detection", err)
	}
}

func TestUnknownDependency(t *testing.T) {
	w := New("wf")
	w.Register(Component{Name: "a", Deps: []string{"ghost"}, Body: func(Ctx) error { return nil }})
	if err := w.Launch(context.Background()); err == nil {
		t.Fatal("unknown dependency accepted")
	}
}

func TestSelfDependency(t *testing.T) {
	w := New("wf")
	w.Register(Component{Name: "a", Deps: []string{"a"}, Body: func(Ctx) error { return nil }})
	if err := w.Launch(context.Background()); err == nil {
		t.Fatal("self dependency accepted")
	}
}

func TestDuplicateRegistration(t *testing.T) {
	w := New("wf")
	ok := func(Ctx) error { return nil }
	if err := w.Register(Component{Name: "a", Body: ok}); err != nil {
		t.Fatal(err)
	}
	if err := w.Register(Component{Name: "a", Body: ok}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	w := New("wf")
	if err := w.Register(Component{Name: "", Body: func(Ctx) error { return nil }}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := w.Register(Component{Name: "x"}); err == nil {
		t.Fatal("nil body accepted")
	}
	if err := w.Register(Component{Name: "y", Ranks: -1, Body: func(Ctx) error { return nil }}); err == nil {
		t.Fatal("negative ranks accepted")
	}
}

func TestFailurePropagatesAndSkipsDependents(t *testing.T) {
	w := New("wf")
	boom := errors.New("boom")
	depRan := false
	w.Register(Component{Name: "bad", Body: func(Ctx) error { return boom }})
	w.Register(Component{Name: "after", Deps: []string{"bad"}, Body: func(Ctx) error {
		depRan = true
		return nil
	}})
	err := w.Launch(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if depRan {
		t.Fatal("dependent ran after dependency failed")
	}
}

func TestPanicInComponentBecomesError(t *testing.T) {
	w := New("wf")
	w.Register(Component{Name: "panicky", Body: func(Ctx) error { panic("kaboom") }})
	err := w.Launch(context.Background())
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestContextCancellationStopsWorkflow(t *testing.T) {
	w := New("wf")
	started := make(chan struct{})
	w.Register(Component{Name: "long", Body: func(ctx Ctx) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	err := w.Launch(ctx)
	if err == nil {
		t.Fatal("canceled workflow returned nil")
	}
}

func TestLaunchTwiceFails(t *testing.T) {
	w := New("wf")
	w.Register(Component{Name: "a", Body: func(Ctx) error { return nil }})
	if err := w.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Launch(context.Background()); err == nil {
		t.Fatal("second launch succeeded")
	}
}

func TestRemoteRankErrorPropagates(t *testing.T) {
	w := New("wf")
	bad := errors.New("rank 2 failed")
	w.Register(Component{Name: "job", Type: Remote, Ranks: 4, Body: func(ctx Ctx) error {
		if ctx.Comm.Rank() == 2 {
			return bad
		}
		return nil
	}})
	if err := w.Launch(context.Background()); !errors.Is(err, bad) {
		t.Fatalf("err = %v, want rank error", err)
	}
}
