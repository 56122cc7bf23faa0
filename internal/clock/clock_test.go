package clock

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWallSleepAndNow(t *testing.T) {
	start := Wall.Now()
	Wall.Sleep(2 * time.Millisecond)
	if el := Wall.Now().Sub(start); el < 2*time.Millisecond {
		t.Fatalf("wall sleep too short: %v", el)
	}
	// The participant protocol is a no-op.
	Wall.Join()
	Wall.Leave()
}

func TestFromKind(t *testing.T) {
	if c, err := FromKind(""); err != nil {
		t.Fatal(err)
	} else if _, ok := c.(*Virtual); !ok {
		t.Fatalf("empty kind should default to virtual, got %T", c)
	}
	if c, err := FromKind(KindWall); err != nil || c != Wall {
		t.Fatalf("wall kind: %v %v", c, err)
	}
	if _, err := FromKind("sundial"); err == nil {
		t.Fatal("unknown kind should error")
	}
	if !IsVirtual("") || !IsVirtual(KindVirtual) || IsVirtual(KindWall) {
		t.Fatal("IsVirtual misclassifies")
	}
}

func TestVirtualSingleSleeperAdvances(t *testing.T) {
	v := NewVirtual()
	v.Join()
	defer v.Leave()
	start := v.Now()
	wallStart := time.Now()
	v.Sleep(10 * time.Second) // ten virtual seconds, ~zero real time
	if got := v.Now().Sub(start); got != 10*time.Second {
		t.Fatalf("virtual elapsed %v, want 10s", got)
	}
	if real := time.Since(wallStart); real > time.Second {
		t.Fatalf("virtual sleep took %v of real time", real)
	}
	v.Sleep(0)
	v.Sleep(-time.Second)
	if got := v.Now().Sub(start); got != 10*time.Second {
		t.Fatalf("non-positive sleeps advanced time: %v", got)
	}
}

// TestVirtualBarrierInterleaving is the tentpole property: two
// participants padding concurrently interleave in virtual-deadline
// order, serialized one at a time, deterministically.
func TestVirtualBarrierInterleaving(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		v := NewVirtual()
		var mu sync.Mutex
		var order []string
		v.Join() // participant a
		v.Join() // participant b
		var wg sync.WaitGroup
		run := func(name string, period time.Duration, n int) {
			defer wg.Done()
			defer v.Leave()
			for i := 0; i < n; i++ {
				v.Sleep(period)
				mu.Lock()
				order = append(order, fmt.Sprintf("%s%d@%v", name, i, v.Now().Unix()))
				mu.Unlock()
			}
		}
		wg.Add(2)
		go run("a", 2*time.Second, 6)
		go run("b", 3*time.Second, 4)
		wg.Wait()
		// Deadlines: a at 2,4,6,8,10,12; b at 3,6,9,12. Ties (6, 12) go
		// to the sleeper that was scheduled first: b reschedules toward
		// 6 on waking at 3, before a does on waking at 4, so b wins at
		// 6 — and likewise at 12 (b schedules at 9, a at 10).
		want := "a0@2 b0@3 a1@4 b1@6 a2@6 a3@8 b2@9 a4@10 b3@12 a5@12"
		got := ""
		for i, o := range order {
			if i > 0 {
				got += " "
			}
			got += o
		}
		if got != want {
			t.Fatalf("trial %d: interleaving %q, want %q", trial, got, want)
		}
	}
}

func TestVirtualLeaveReleasesBarrier(t *testing.T) {
	v := NewVirtual()
	v.Join()
	v.Join()
	done := make(chan struct{})
	go func() {
		v.Sleep(5 * time.Second)
		v.Leave()
		close(done)
	}()
	// The sleeper cannot advance until this participant leaves.
	time.Sleep(5 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("sleeper advanced while a participant was running")
	default:
	}
	v.Leave()
	<-done
}

// A participant blocked on a sibling through anything but Sleep leaves
// the barrier around the wait (what the mpi clock bridge does), so the
// sibling's sleep can advance time.
func TestVirtualBlockAllowsCrossWaits(t *testing.T) {
	v := NewVirtual()
	v.Join()
	v.Join()
	ch := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // participant 1 waits on participant 2 through a channel
		defer wg.Done()
		defer v.Leave()
		v.Leave()
		<-ch
		v.Join()
		v.Sleep(time.Second)
	}()
	go func() { // participant 2 sleeps first, then signals
		defer wg.Done()
		defer v.Leave()
		v.Sleep(2 * time.Second)
		ch <- struct{}{}
	}()
	wg.Wait()
	if got := v.NowNS(); got != int64(3*time.Second) {
		t.Fatalf("virtual end time %v, want 3s", time.Duration(got))
	}
}

// TestVirtualNoParticipantsDrains: with nothing joined, sleeps behave
// as an auto-advancing simulated clock for single-goroutine harnesses.
func TestVirtualNoParticipantsDrains(t *testing.T) {
	v := NewVirtual()
	for i := 0; i < 100; i++ {
		v.Sleep(time.Second)
	}
	if got := v.NowNS(); got != int64(100*time.Second) {
		t.Fatalf("drained to %v, want 100s", time.Duration(got))
	}
}

// TestVirtualSleepAllocatesNothing: a Sleep parks on a recycled wake
// channel, so padding on the virtual clock allocates nothing — alone,
// and with a second participant handing the barrier back and forth.
func TestVirtualSleepAllocatesNothing(t *testing.T) {
	v := NewVirtual()
	if allocs := testing.AllocsPerRun(100, func() { v.Sleep(time.Millisecond) }); allocs != 0 {
		t.Fatalf("a lone Sleep allocates %v times, want 0", allocs)
	}
	v.Join()
	v.Join()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer v.Leave()
		for {
			select {
			case <-stop:
				return
			default:
				v.Sleep(time.Millisecond)
			}
		}
	}()
	allocs := testing.AllocsPerRun(100, func() { v.Sleep(time.Millisecond) })
	close(stop)
	v.Leave()
	<-done
	if allocs != 0 {
		t.Fatalf("a Sleep beside another participant allocates %v times, want 0", allocs)
	}
}

// An unmatched Leave must panic loudly instead of silently corrupting
// the barrier condition with a negative participant count.
func TestLeaveUnderflowPanics(t *testing.T) {
	v := NewVirtual()
	v.Join()
	v.Leave()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unbalanced Leave did not panic")
		}
		if !strings.Contains(r.(string), "without a matching Join") {
			t.Fatalf("panic message undiagnosable: %v", r)
		}
	}()
	v.Leave()
}
