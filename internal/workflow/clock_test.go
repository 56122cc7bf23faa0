package workflow

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/mpi"
)

// TestVirtualClockTwoComponents is the emulation-layer barrier in
// miniature: two concurrent Local components padding on one virtual
// clock interleave in virtual-deadline order, serialized one at a time,
// and the whole workflow finishes in negligible real time.
func TestVirtualClockTwoComponents(t *testing.T) {
	v := clock.NewVirtual()
	w := New("wf", WithClock(v))
	if w.Clock() != v {
		t.Fatal("Clock() should return the attached clock")
	}
	var mu sync.Mutex
	var order []string
	comp := func(name string, period time.Duration, n int) Body {
		return func(ctx Ctx) error {
			for i := 0; i < n; i++ {
				ctx.Clock.Sleep(period)
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			}
			return nil
		}
	}
	w.Register(Component{Name: "a", Body: comp("a", 2*time.Second, 3)})
	w.Register(Component{Name: "b", Body: comp("b", 3*time.Second, 2)})
	wallStart := time.Now()
	if err := w.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if real := time.Since(wallStart); real > 2*time.Second {
		t.Fatalf("virtual workflow took %v of real time", real)
	}
	// Deadlines: a at 2,4,6; b at 3,6 — b reschedules toward 6 first.
	want := []string{"a", "b", "a", "b", "a"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if got := v.NowNS(); got != int64(6*time.Second) {
		t.Fatalf("virtual makespan %v, want 6s", time.Duration(got))
	}
}

// TestVirtualClockDependencyHandoff: a finishing component hands its
// barrier slot to the dependent it releases, and the dependent's sleeps
// then drive virtual time.
func TestVirtualClockDependencyHandoff(t *testing.T) {
	v := clock.NewVirtual()
	w := New("wf", WithClock(v))
	w.Register(Component{Name: "first", Body: func(ctx Ctx) error {
		ctx.Clock.Sleep(5 * time.Second)
		return nil
	}})
	w.Register(Component{Name: "second", Deps: []string{"first"}, Body: func(ctx Ctx) error {
		ctx.Clock.Sleep(3 * time.Second)
		return nil
	}})
	if err := w.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := v.NowNS(); got != int64(8*time.Second) {
		t.Fatalf("virtual makespan %v, want 8s", time.Duration(got))
	}
}

// TestVirtualClockSkipsFailedDependents: barrier accounting must not
// leak when a dependency fails and its dependents never run.
func TestVirtualClockSkipsFailedDependents(t *testing.T) {
	v := clock.NewVirtual()
	w := New("wf", WithClock(v))
	boom := errors.New("boom")
	w.Register(Component{Name: "bad", Body: func(ctx Ctx) error {
		ctx.Clock.Sleep(time.Second)
		return boom
	}})
	w.Register(Component{Name: "bystander", Body: func(ctx Ctx) error {
		ctx.Clock.Sleep(4 * time.Second)
		return nil
	}})
	w.Register(Component{Name: "orphan", Deps: []string{"bad"}, Body: func(ctx Ctx) error {
		return nil
	}})
	if err := w.Launch(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The bystander's sleeps must still complete (no leaked barrier
	// slot from the never-started orphan).
	if got := v.NowNS(); got != int64(4*time.Second) {
		t.Fatalf("virtual end %v, want 4s", time.Duration(got))
	}
}

// TestVirtualClockCancelRacingFinisher: a dependency that finishes
// successfully AFTER its dependent already gave up on a cancelled
// context must not join barrier slots for that dependent — phantom
// participants would park the remaining sleepers forever and hang
// Launch.
func TestVirtualClockCancelRacingFinisher(t *testing.T) {
	v := clock.NewVirtual()
	w := New("wf", WithClock(v))
	release := make(chan struct{})
	w.Register(Component{Name: "slow", Body: func(ctx Ctx) error {
		<-release // keeps running across the cancellation, then succeeds
		return nil
	}})
	w.Register(Component{Name: "dependent", Deps: []string{"slow"}, Body: func(ctx Ctx) error {
		return nil
	}})
	w.Register(Component{Name: "sleeper", Body: func(ctx Ctx) error {
		ctx.Clock.Sleep(time.Second)
		return nil
	}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Launch(ctx) }()
	cancel()
	// Give the dependent's launcher goroutine time to observe the
	// cancellation and abandon before the dependency completes.
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Launch hung: a finished dependency joined barrier slots for an abandoned dependent")
	}
}

// TestVirtualClockRemoteRanks: a multi-rank Remote component under the
// virtual clock — rank sleeps pad in virtual time and collective waits
// release the barrier through the MPI block bridge instead of
// deadlocking it.
func TestVirtualClockRemoteRanks(t *testing.T) {
	v := clock.NewVirtual()
	w := New("wf", WithClock(v))
	const ranks = 4
	sums := make([]float64, ranks)
	w.Register(Component{Name: "ddp", Type: Remote, Ranks: ranks, Body: func(ctx Ctx) error {
		// Skew the ranks so the collective genuinely waits: rank r
		// sleeps (r+1) virtual seconds before contributing.
		ctx.Clock.Sleep(time.Duration(ctx.Comm.Rank()+1) * time.Second)
		buf := []float64{float64(ctx.Comm.Rank())}
		ctx.Comm.AllReduce(mpi.Sum, buf)
		sums[ctx.Comm.Rank()] = buf[0]
		ctx.Clock.Sleep(time.Second)
		return nil
	}})
	done := make(chan error, 1)
	go func() { done <- w.Launch(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("remote ranks deadlocked under the virtual clock")
	}
	for r, s := range sums {
		if s != 6 { // 0+1+2+3
			t.Fatalf("rank %d allreduce sum = %v, want 6", r, s)
		}
	}
	// Slowest rank contributes at 4s; everyone resumes there and pads
	// one more second.
	if got := v.NowNS(); got != int64(5*time.Second) {
		t.Fatalf("virtual makespan %v, want 5s", time.Duration(got))
	}
}

// TestVirtualClockRemoteSendRecv exercises the mailbox side of the MPI
// clock bridge: a receiver parked in Recv releases the barrier so the
// sender's pad can advance virtual time, and is rejoined by the send.
func TestVirtualClockRemoteSendRecv(t *testing.T) {
	v := clock.NewVirtual()
	w := New("wf", WithClock(v))
	var got []byte
	w.Register(Component{Name: "pair", Type: Remote, Ranks: 2, Body: func(ctx Ctx) error {
		if ctx.Comm.Rank() == 0 {
			ctx.Clock.Sleep(7 * time.Second)
			ctx.Comm.Send(1, 0, []byte("snapshot"))
			return nil
		}
		data, _ := ctx.Comm.Recv(0, 0)
		got = data
		ctx.Clock.Sleep(2 * time.Second)
		return nil
	}})
	done := make(chan error, 1)
	go func() { done <- w.Launch(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send/recv deadlocked under the virtual clock")
	}
	if string(got) != "snapshot" {
		t.Fatalf("recv got %q", got)
	}
	if end := v.NowNS(); end != int64(9*time.Second) {
		t.Fatalf("virtual makespan %v, want 9s", time.Duration(end))
	}
}

// TestWallClockDefault: workflows without WithClock run on the wall
// clock and bodies see it in their Ctx.
func TestWallClockDefault(t *testing.T) {
	w := New("wf")
	w.Register(Component{Name: "c", Body: func(ctx Ctx) error {
		if ctx.Clock != clock.Wall {
			t.Errorf("default ctx clock = %v, want Wall", ctx.Clock)
		}
		return nil
	}})
	if err := w.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidAllReduceTearsDownClockBridge injects a hard crash into
// one rank while its siblings are parked inside an AllReduce with their
// barrier slots released through the mpi clock bridge — the teardown
// path a node failure exercises in a virtual-clock run. The workflow
// must surface the failure (no deadlock: the killed world unblocks the
// parked collective waiters), every body having run once. Run
// under -race in CI, this also checks the bridge's join/leave
// accounting races cleanly with the kill broadcast.
func TestCrashMidAllReduceTearsDownClockBridge(t *testing.T) {
	v := clock.NewVirtual()
	w := New("wf", WithClock(v))
	const ranks = 4
	var mu sync.Mutex
	runs := 0
	_ = w.Register(Component{
		Name:  "train",
		Type:  Remote,
		Ranks: ranks,
		Body: func(ctx Ctx) error {
			mu.Lock()
			runs++
			mu.Unlock()
			ctx.Clock.Sleep(5)
			if ctx.Comm.Rank() == 1 {
				// Let the other ranks reach the collective and park
				// (leaving the clock barrier through the bridge), then
				// die without ever depositing.
				ctx.Clock.Sleep(20)
				panic("node 1 hardware failure")
			}
			// Bare AllReduce: collective waits are bridged to the clock
			// barrier by Launch, so a Leave/Join around them would
			// double-release the caller's slot.
			buf := []float64{1}
			ctx.Comm.AllReduce(mpi.Sum, buf)
			return nil
		},
	})
	err := w.Launch(context.Background())
	if err == nil || !strings.Contains(err.Error(), "node 1 hardware failure") {
		t.Fatalf("Launch = %v, want the injected crash", err)
	}
	if runs != ranks {
		t.Fatalf("bodies ran %d times, want %d", runs, ranks)
	}
}

// TestCrashMidHierAllReduceTearsDownClockBridge mirrors the flat-
// rendezvous crash test for the hierarchical algorithmic AllReduce,
// whose waits park in point-to-point mailboxes (member→leader gather,
// leader ring, leader→member broadcast) rather than the collective
// barrier. A rank dying mid-hierarchy must still unwind every parked
// sibling through the killed world — leaders waiting on a member that
// never sends, members waiting on a broadcast that never comes — with
// the bridge's barrier accounting intact (run under -race in CI).
func TestCrashMidHierAllReduceTearsDownClockBridge(t *testing.T) {
	v := clock.NewVirtual()
	w := New("wf", WithClock(v))
	const ranks = 4
	// Two routers of two: rank 1 is router 0's non-leader member, so
	// leader 0 parks in the gather Recv and router 1's ranks park in
	// the leader-ring Recv when it dies.
	routerOf := []int{0, 0, 1, 1}
	var mu sync.Mutex
	runs := 0
	_ = w.Register(Component{
		Name:  "train",
		Type:  Remote,
		Ranks: ranks,
		Body: func(ctx Ctx) error {
			mu.Lock()
			runs++
			mu.Unlock()
			ctx.Clock.Sleep(5)
			if ctx.Comm.Rank() == 1 {
				// Let the other ranks park inside the hierarchy's p2p
				// waits (leaving the clock barrier through the mailbox
				// bridge), then die without ever sending upward.
				ctx.Clock.Sleep(20)
				panic("node 1 hardware failure")
			}
			buf := []float64{1}
			ctx.Comm.AllReduceAlgoOn(mpi.AlgoHier, mpi.Sum, buf, routerOf)
			return nil
		},
	})
	err := w.Launch(context.Background())
	if err == nil || !strings.Contains(err.Error(), "node 1 hardware failure") {
		t.Fatalf("Launch = %v, want the injected crash", err)
	}
	if runs != ranks {
		t.Fatalf("bodies ran %d times, want %d", runs, ranks)
	}
}
