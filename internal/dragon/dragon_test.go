package dragon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// serve starts a manager on a loopback listener and returns it with its
// address.
func serve(t testing.TB) (*Manager, string) {
	t.Helper()
	m := NewManager()
	t.Cleanup(m.Close)
	ln, err := ListenAndServe(m, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return m, ln.Addr().String()
}

// newDict attaches a client to the given number of freshly served
// managers.
func newDict(t testing.TB, managers int) (*Dict, []*Manager) {
	t.Helper()
	var addrs []string
	var ms []*Manager
	for i := 0; i < managers; i++ {
		m, addr := serve(t)
		ms = append(ms, m)
		addrs = append(addrs, addr)
	}
	d, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, ms
}

// overTCP runs fn against a dictionary of managers served over TCP.
func overTCP(t *testing.T, managers int, fn func(t *testing.T, d *Dict)) {
	t.Run("tcp", func(t *testing.T) {
		d, _ := newDict(t, managers)
		fn(t, d)
	})
}

// size reports how many keys m's shard holds.
func (m *Manager) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.data)
}

func TestPutGetRoundTrip(t *testing.T) {
	overTCP(t, 3, func(t *testing.T, d *Dict) {
		want := []byte("payload-123")
		if err := d.Put("k", want); err != nil {
			t.Fatal(err)
		}
		got, err := d.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("got %q", got)
		}
	})
}

func TestGetMissing(t *testing.T) {
	overTCP(t, 2, func(t *testing.T, d *Dict) {
		_, err := d.Get("missing")
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	})
}

func TestHasDel(t *testing.T) {
	overTCP(t, 2, func(t *testing.T, d *Dict) {
		d.Put("k", []byte("v"))
		ok, err := d.Has("k")
		if err != nil || !ok {
			t.Fatalf("has = %v,%v", ok, err)
		}
		if err := d.Del("k"); err != nil {
			t.Fatal(err)
		}
		ok, _ = d.Has("k")
		if ok {
			t.Fatal("key survives delete")
		}
		// Deleting a missing key is not an error.
		if err := d.Del("k"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEmptyValue(t *testing.T) {
	overTCP(t, 2, func(t *testing.T, d *Dict) {
		if err := d.Put("empty", nil); err != nil {
			t.Fatal(err)
		}
		got, err := d.Get("empty")
		if err != nil || len(got) != 0 {
			t.Fatalf("empty value: %v,%v", got, err)
		}
	})
}

func TestShardingSpreadsKeys(t *testing.T) {
	d, ms := newDict(t, 4)
	for i := 0; i < 400; i++ {
		d.Put(fmt.Sprintf("key-%d", i), []byte("v"))
	}
	for i, m := range ms {
		if n := m.size(); n < 40 || n > 400/4*2 {
			t.Fatalf("manager %d has %d keys, far from uniform 100", i, n)
		}
	}
}

func TestRouteStableAcrossClients(t *testing.T) {
	d1, _ := newDict(t, 5)
	d2, _ := newDict(t, 5)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("route-%d", i)
		if d1.Route(k) != d2.Route(k) {
			t.Fatalf("routing disagrees for %q", k)
		}
	}
}

func TestValueIsolation(t *testing.T) {
	// Mutating a buffer after Put or a returned slice after Get must not
	// corrupt the stored value.
	d, _ := newDict(t, 1)
	buf := []byte{1, 2, 3}
	d.Put("iso", buf)
	buf[0] = 99
	got1, _ := d.Get("iso")
	got1[1] = 88
	got2, _ := d.Get("iso")
	if got2[0] != 1 || got2[1] != 2 {
		t.Fatalf("stored value corrupted: %v", got2)
	}
}

// TestReplaceDuringGetIsWhole: a get writes the stored slice to its
// socket after the shard's lock is released, while puts on another
// connection replace the key. The slice is never written again, so
// every reply is one whole value that was stored.
func TestReplaceDuringGetIsWhole(t *testing.T) {
	_, addr := serve(t)
	dial := func() *Dict {
		d, err := Dial([]string{addr})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	getter, putter := dial(), dial()
	const size, rounds = 1 << 20, 100
	values := [2][]byte{bytes.Repeat([]byte{0xAA}, size), bytes.Repeat([]byte{0x55}, size)}
	if err := putter.Put("k", values[0]); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for r := 1; r <= rounds; r++ {
			if err := putter.Put("k", values[r%2]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for r := 0; r < rounds; r++ {
		got, err := getter.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != size || !bytes.Equal(got[1:], got[:size-1]) || (got[0] != 0xAA && got[0] != 0x55) {
			t.Fatalf("get %d: a reply of %d bytes is not one stored value", r, len(got))
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLargeValueOverTCP(t *testing.T) {
	d, _ := newDict(t, 2)
	val := bytes.Repeat([]byte{0x5A}, 8<<20)
	if err := d.Put("big", val); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get("big")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatal("8MB TCP round trip failed")
	}
}

func TestBinaryKeysAndValues(t *testing.T) {
	d, _ := newDict(t, 2)
	key := string([]byte{0, 1, 255, 254, '\r', '\n'})
	val := []byte{0, 255, 10, 13, 0}
	if err := d.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(key)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("binary kv failed: %v %v", got, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	d, ms := newDict(t, 3)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				k := fmt.Sprintf("c%d-%d", i, j)
				if err := d.Put(k, []byte(k)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, err := d.Get(k)
				if err != nil || string(got) != k {
					t.Errorf("get %s: %q %v", k, got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	n := 0
	for _, m := range ms {
		n += m.size()
	}
	if n != 8*25 {
		t.Fatalf("shards hold %d keys, want 200", n)
	}
}

func TestManagerCloseUnblocksClients(t *testing.T) {
	d, ms := newDict(t, 1)
	ms[0].Close()
	if err := d.Put("k", []byte("v")); err == nil || !strings.Contains(err.Error(), ErrClosed.Error()) {
		t.Fatalf("put after close = %v, want a server error naming %q", err, ErrClosed)
	}
}

// TestManagerCloseEndsConnections: Close hangs up on a connected
// client instead of leaving its goroutine parked on the socket: the
// client's next call fails with ErrClosed, and no goroutine Serve
// started outlives the manager and its listener.
func TestManagerCloseEndsConnections(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := NewManager()
	ln, err := ListenAndServe(m, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Dial([]string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	m.Close()
	ln.Close()
	if _, err := d.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close = %v, want ErrClosed", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after close, %d before the manager", runtime.NumGoroutine(), baseline)
		}
	}
}

func TestManagerCloseIdempotent(t *testing.T) {
	m := NewManager()
	m.Close()
	m.Close()
}

// TestAttachEmpty: attaching to no manager is refused.
func TestAttachEmpty(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Fatal("Dial(nil) succeeded")
	}
}

func TestServerSurvivesClientDisconnect(t *testing.T) {
	_, addr := serve(t)
	// Abruptly drop a half-written request.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{opPut, 0, 0})
	conn.Close()
	// Server must still serve new clients.
	d, err := Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("k", []byte("v")); err != nil {
		t.Fatalf("server wedged after bad client: %v", err)
	}
}

// frame encodes one request as the client sends it.
func frame(op byte, key string, value []byte) []byte {
	var buf bytes.Buffer
	writeRequest(bufio.NewWriter(&buf), op, key, value)
	return buf.Bytes()
}

// rawConn dials addr for hand-written frames, with a deadline so a
// server that waits for more bytes fails the test instead of hanging it.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}

// TestServerRefusesUnknownOp: a well-formed frame naming no operation
// gets an error response naming the op, changes nothing, and leaves the
// connection serving.
func TestServerRefusesUnknownOp(t *testing.T) {
	m, addr := serve(t)
	conn := rawConn(t, addr)
	if _, err := conn.Write(append(frame(9, "k", []byte("v")), frame(opHas, "k", nil)...)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for i, want := range []struct {
		status  byte
		payload string
	}{{statusError, "dragon: unknown op 9"}, {statusOK, "\x00"}} {
		var hdr [9]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		payload := make([]byte, binary.BigEndian.Uint64(hdr[1:]))
		if _, err := io.ReadFull(r, payload); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if hdr[0] != want.status || string(payload) != want.payload {
			t.Errorf("response %d = status %d %q, want status %d %q", i, hdr[0], payload, want.status, want.payload)
		}
	}
	if n := m.size(); n != 0 {
		t.Fatalf("the shard holds %d keys after an unknown op, want 0", n)
	}
}

// TestServerRefusesOversizedKey: a header announcing a key longer than
// maxWireKey makes the server hang up at once, allocating nothing for
// it, where a 1 GiB key buffer used to be made and waited on. A key of
// exactly the limit is served, and the client refuses a longer one
// before sending it.
func TestServerRefusesOversizedKey(t *testing.T) {
	_, addr := serve(t)
	conn := rawConn(t, addr)
	if _, err := conn.Write(binary.BigEndian.AppendUint32([]byte{opPut}, 1<<30)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after an oversized key header = %d, %v; want the server to hang up (EOF)", n, err)
	}
	d, err := Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	key := strings.Repeat("k", maxWireKey)
	if err := d.Put(key, []byte("v")); err != nil {
		t.Fatalf("key of %d bytes: %v", len(key), err)
	}
	if err := d.Put(key+"k", []byte("v")); err == nil || !strings.Contains(err.Error(), "key length") {
		t.Fatalf("key of %d bytes: err = %v, want the client to refuse it", len(key)+1, err)
	}
}

// FuzzDragonFrame: readRequest never panics on arbitrary bytes, and each
// frame it accepts re-encodes through the client's writeRequest to the
// bytes it consumed. Inputs announcing a value longer than the input
// (but within maxWireValue) are skipped: the server allocates an
// announced value, after checking its limit, before the bytes arrive.
func FuzzDragonFrame(f *testing.F) {
	f.Add(frame(opPut, "k", []byte("v")))
	f.Add(frame(opGet, "data/12/rank0", nil))
	f.Add(frame(9, "", nil))
	f.Add(append(frame(opHas, "k", nil), frame(opDel, "k", nil)...))
	f.Add(binary.BigEndian.AppendUint32([]byte{opPut}, maxWireKey+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off < len(data); {
			rest := data[off:]
			if len(rest) >= 5 {
				if k := int(binary.BigEndian.Uint32(rest[1:])); k <= maxWireKey && 5+k+8 <= len(rest) {
					if n := binary.BigEndian.Uint64(rest[5+k:]); n > uint64(len(rest)) && n <= maxWireValue {
						t.Skip("announces a value longer than the input")
					}
				}
			}
			in := bytes.NewReader(rest)
			r := bufio.NewReader(in)
			op, key, value, err := readRequest(r)
			if err != nil {
				return
			}
			consumed := len(rest) - r.Buffered() - in.Len()
			if got := frame(op, key, value); !bytes.Equal(got, rest[:consumed]) {
				t.Fatalf("frame %q re-encodes as %q", rest[:consumed], got)
			}
			off += consumed
		}
	})
}

func TestPropertyRoundTripArbitraryKV(t *testing.T) {
	d, _ := newDict(t, 4)
	f := func(key string, value []byte) bool {
		if err := d.Put(key, value); err != nil {
			return false
		}
		got, err := d.Get(key)
		return err == nil && bytes.Equal(got, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTCPPutGet1MB(b *testing.B) {
	d, _ := newDict(b, 1)
	val := make([]byte, 1<<20)
	b.SetBytes(2 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Put("bench", val)
		d.Get("bench")
	}
}
