package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Lifecycle robustness: shutdown mid-run must lose nothing that
// completed. The in-flight slow run finishes inside the drain window and
// its waiting caller is served the full result; requests arriving during
// the drain get typed 503s; and the server exits within its deadline.

// startServing runs ListenAndServe on cfg under a cancellable context
// and returns the base URL, the cancel that triggers the drain, and the
// channel carrying ListenAndServe's return.
func startServing(t *testing.T, cfg Config) (url string, shutdown context.CancelFunc, done chan error) {
	t.Helper()
	registerTestScenarios()
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx); close(done) }()
	select {
	case <-s.Ready():
	case <-time.After(5 * time.Second):
		t.Fatalf("server never bound its listener")
	}
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Errorf("server never exited")
		}
	})
	return "http://" + s.Addr(), cancel, done
}

// settlesTo fails the test unless the goroutine count is back to base
// (or below) within a second: the drain left nothing running.
func settlesTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after the drain, %d before the server started", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGracefulShutdownServesInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	url, shutdown, done := startServing(t, Config{Workers: 2, DrainTimeout: 5 * time.Second})

	// A slow run (~400ms) goes in flight...
	inflight := make(chan error, 1)
	var body []byte
	var cacheTag string
	go func() {
		resp, err := http.Post(url+"/v1/run", "application/json",
			strings.NewReader(`{"scenario":"t-slow","params":{"timeline_window_s":0.4}}`))
		if err != nil {
			inflight <- err
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		body, cacheTag = buf.Bytes(), resp.Header.Get("X-Cache")
		if resp.StatusCode != http.StatusOK {
			inflight <- errors.New(buf.String())
			return
		}
		inflight <- nil
	}()
	<-tSlowStarted

	// ...then the SIGTERM path fires mid-run.
	shutdown()

	// New work is refused with the typed shutting_down error while the
	// drain is in progress (the listener still answers).
	deadline := time.Now().Add(2 * time.Second)
	sawRefusal := false
	for time.Now().Before(deadline) && !sawRefusal {
		resp, err := http.Post(url+"/v1/run", "application/json",
			strings.NewReader(`{"scenario":"t-ok","params":{"rate":301}}`))
		if err != nil {
			break // listener already closed: drain finished first
		}
		func() {
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				var eb errorBody
				if json.NewDecoder(resp.Body).Decode(&eb) == nil &&
					eb.Error != nil && eb.Error.Kind == KindShuttingDown {
					sawRefusal = true
				}
			}
		}()
		time.Sleep(10 * time.Millisecond)
	}

	// The in-flight run completes and its caller is served the result.
	select {
	case err := <-inflight:
		if err != nil {
			t.Fatalf("in-flight request lost to shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("in-flight request never resolved")
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil || rr.Result == nil {
		t.Fatalf("in-flight caller got a broken body (X-Cache %q): %s", cacheTag, body)
	}
	if !sawRefusal {
		t.Fatalf("no request observed the typed shutting_down refusal during the drain")
	}

	// And the server exits cleanly, well within the drain deadline.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndServe: %v (want clean drain)", err)
		}
	case <-time.After(6 * time.Second):
		t.Fatalf("server did not exit within the drain deadline")
	}
	settlesTo(t, base)
}

func TestDrainDeadlineAbandonsWedgedRun(t *testing.T) {
	base := runtime.NumGoroutine()
	url, shutdown, done := startServing(t, Config{Workers: 1, DrainTimeout: 200 * time.Millisecond})

	// A run that ignores its context occupies the worker. Its own
	// timeout is long, so only the drain deadline can abandon it.
	hung := make(chan struct {
		status int
		body   []byte
	}, 1)
	go func() {
		resp, err := http.Post(url+"/v1/run", "application/json",
			strings.NewReader(`{"scenario":"t-wedge","timeout_s":60}`))
		if err != nil {
			hung <- struct {
				status int
				body   []byte
			}{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		hung <- struct {
			status int
			body   []byte
		}{resp.StatusCode, buf.Bytes()}
	}()
	time.Sleep(100 * time.Millisecond) // let the run get admitted
	start := time.Now()
	shutdown()

	select {
	case err := <-done:
		if !errors.Is(err, ErrDrainTimeout) {
			t.Fatalf("ListenAndServe = %v, want ErrDrainTimeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("server wedged on an unfinishable run")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain deadline did not bound shutdown: took %v", elapsed)
	}
	// The abandoned caller got a typed error, not a dropped connection.
	r := <-hung
	if r.status != http.StatusServiceUnavailable && r.status != http.StatusGatewayTimeout {
		t.Fatalf("abandoned caller: status %d body %s", r.status, r.body)
	}
	// The abandoned run is the one goroutine the server may leave
	// behind; once the test releases it, nothing else remains.
	select {
	case tWedge <- struct{}{}:
	case <-time.After(5 * time.Second):
		t.Fatalf("the wedged run is not running")
	}
	settlesTo(t, base)
}
