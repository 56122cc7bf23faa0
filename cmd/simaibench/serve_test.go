package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// End-to-end coverage of the serve subcommand against the real scenario
// registry (the experiments import), including the signal path the unit
// tests can only simulate: a genuine SIGTERM delivered to the process
// mid-serve must drain gracefully and exit 0.

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the
// subcommand's stderr while it runs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingLine = regexp.MustCompile(`serving on (http://\S+)`)

// startServe launches serveMain with the given extra args on an
// ephemeral port and returns the announced base URL plus the exit-code
// channel.
func startServe(t *testing.T, args ...string) (string, chan int, *syncBuffer) {
	t.Helper()
	var errBuf syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- serveMain(context.Background(),
			append([]string{"-addr", "127.0.0.1:0"}, args...), &errBuf)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := servingLine.FindStringSubmatch(errBuf.String()); m != nil {
			return m[1], done, &errBuf
		}
		select {
		case code := <-done:
			t.Fatalf("serve exited early with code %d: %s", code, errBuf.String())
		default:
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("serve never announced its address: %s", errBuf.String())
	return "", nil, nil
}

func TestServeSubcommandSIGTERM(t *testing.T) {
	base, done, errBuf := startServe(t, "-workers", "2", "-drain-timeout", "10s")

	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v (status %d)", err, resp.StatusCode)
	}
	resp.Body.Close()

	// One real scenario, cold then hot: byte-identical bodies, the
	// disposition only in X-Cache.
	req := `{"scenario":"fig5","params":{"transfers":20}}`
	post := func() (int, []byte, string) {
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatalf("POST /v1/run: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body, resp.Header.Get("X-Cache")
	}
	st, cold, tag := post()
	if st != http.StatusOK || tag != "miss" {
		t.Fatalf("cold run: status %d X-Cache %q: %s", st, tag, cold)
	}
	st, hot, tag := post()
	if st != http.StatusOK || tag != "hit" {
		t.Fatalf("hot run: status %d X-Cache %q", st, tag)
	}
	if !bytes.Equal(cold, hot) {
		t.Fatalf("cached body differs from computed body")
	}

	// The real thing: SIGTERM to this very process. sigctx catches it,
	// the server drains, serveMain returns 0.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d after SIGTERM: %s", code, errBuf.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("serve did not exit after SIGTERM: %s", errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "drained cleanly") {
		t.Fatalf("no clean-drain confirmation: %s", errBuf.String())
	}
	// The listener is gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatalf("listener still answering after shutdown")
	}
}

func TestServeSubcommandBadFlags(t *testing.T) {
	// -retries was a flag until nothing could trigger a retry.
	for _, args := range [][]string{{"-no-such-flag"}, {"-retries", "1"}} {
		var errBuf syncBuffer
		if code := serveMain(context.Background(), args, &errBuf); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
}
