package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// The singleflight contracts, exercised under -race in CI: a stampede of
// identical requests costs exactly one simulation and every caller gets
// the same bytes; and one caller abandoning its request mid-flight does
// not cancel the shared run the other joiners are waiting on.

func TestSingleflightStampede(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	const callers = 16
	req := `{"scenario":"t-count","params":{"rate":3}}`

	before := tCountRuns.Load()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(req))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())
				return
			}
			mu.Lock()
			bodies = append(bodies, buf.Bytes())
			mu.Unlock()
		}()
	}
	wg.Wait()

	if got := tCountRuns.Load() - before; got != 1 {
		t.Fatalf("%d concurrent identical requests ran the simulation %d times, want exactly 1", callers, got)
	}
	if len(bodies) != callers {
		t.Fatalf("only %d/%d callers got a 200", len(bodies), callers)
	}
	for i, b := range bodies[1:] {
		if !bytes.Equal(bodies[0], b) {
			t.Fatalf("caller %d body differs from caller 0:\n%s\nvs\n%s", i+1, b, bodies[0])
		}
	}
	if st := s.Stats(); st.DedupJoins == 0 && st.CacheHits == 0 {
		t.Fatalf("no request joined the flight or hit the cache: %+v", st)
	}
}

func TestCallerCancelDoesNotCancelSharedRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	// t-slow runs ~300ms; impatient's 50ms client deadline expires
	// mid-flight while patient waits the run out.
	req := `{"scenario":"t-slow","params":{"timeline_window_s":0.3}}`

	patientDone := make(chan error, 1)
	var patientBody []byte
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(req))
		if err != nil {
			patientDone <- err
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		patientBody = buf.Bytes()
		if resp.StatusCode != http.StatusOK {
			patientDone <- &APIError{Status: resp.StatusCode, Kind: "http", Message: buf.String()}
			return
		}
		patientDone <- nil
	}()
	<-tSlowStarted // the run is in flight

	// The impatient caller joins the same flight, then gives up.
	ictx, icancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer icancel()
	c := &Client{BaseURL: ts.URL}
	if _, _, err := c.Run(ictx, RunRequest{Scenario: "t-slow",
		Params: paramsFromJSON(t, `{"timeline_window_s":0.3}`)}); err == nil {
		t.Fatalf("impatient caller unexpectedly got a result before its deadline")
	}

	select {
	case err := <-patientDone:
		if err != nil {
			t.Fatalf("patient caller failed after impatient cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("patient caller never completed")
	}
	if len(patientBody) == 0 {
		t.Fatalf("patient caller got an empty body")
	}
	if st := s.Stats(); st.RunsFailed != 0 {
		t.Fatalf("the shared run failed (runs_failed = %d): caller cancel leaked into it", st.RunsFailed)
	}
	// The completed run populated the cache despite the cancelled joiner.
	st, _, tag := postRun(t, ts.URL, req)
	if st != http.StatusOK || tag != "hit" {
		t.Fatalf("replay after cancel: status %d X-Cache %q, want 200 hit", st, tag)
	}
}
