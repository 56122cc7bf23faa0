package redis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := newServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

// --- RESP codec ---

func array(vs ...Value) Value { return Value{Kind: KindArray, Array: vs} }

func respRoundTrip(t *testing.T, v Value) Value {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(v); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	got, err := NewReader(&buf).Read()
	if err != nil {
		t.Fatalf("decode %q: %v", buf.String(), err)
	}
	return got
}

func TestRESPSimpleString(t *testing.T) {
	got := respRoundTrip(t, Simple("OK"))
	if got.Kind != KindSimple || got.Str != "OK" {
		t.Fatalf("got %+v", got)
	}
}

func TestRESPError(t *testing.T) {
	got := respRoundTrip(t, Errorf("ERR boom %d", 7))
	if got.Kind != KindError || got.Str != "ERR boom 7" {
		t.Fatalf("got %+v", got)
	}
}

// TestRESPLineLongerThanBuffer: a status or error line longer than the
// reader's buffer is gathered whole.
func TestRESPLineLongerThanBuffer(t *testing.T) {
	long := strings.Repeat("x", 3*4096+17)
	for _, v := range []Value{Simple(long), Errorf("ERR %s", long)} {
		if got := respRoundTrip(t, v); !reflect.DeepEqual(got, v) {
			t.Fatalf("got a %d-byte %v line back, want %d bytes", len(got.Str), got.Kind, len(v.Str))
		}
	}
}

func TestRESPInteger(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 1 << 40} {
		got := respRoundTrip(t, Integer(n))
		if got.Kind != KindInteger || got.Int != n {
			t.Fatalf("int %d round-tripped to %+v", n, got)
		}
	}
}

func TestRESPBulkWithCRLFInside(t *testing.T) {
	payload := []byte("line1\r\nline2\r\n$5\r\nfake!")
	got := respRoundTrip(t, Bulk(payload))
	if !bytes.Equal(got.Bulk, payload) {
		t.Fatalf("binary-safe bulk broken: %q", got.Bulk)
	}
}

func TestRESPNullBulk(t *testing.T) {
	got := respRoundTrip(t, NullBulk())
	if !got.IsNull() {
		t.Fatalf("null bulk round-tripped to %+v", got)
	}
}

func TestRESPNestedArray(t *testing.T) {
	v := array(Bulk([]byte("SET")), array(Integer(1), Simple("x")), NullBulk())
	got := respRoundTrip(t, v)
	if len(got.Array) != 3 || len(got.Array[1].Array) != 2 || !got.Array[2].IsNull() {
		t.Fatalf("got %+v", got)
	}
}

func TestRESPRejectsGarbage(t *testing.T) {
	for _, raw := range []string{"!bad\r\n", ":\r\n", "$abc\r\n", "+no-terminator"} {
		_, err := NewReader(strings.NewReader(raw)).Read()
		if err == nil {
			t.Fatalf("garbage %q accepted", raw)
		}
	}
}

func TestRESPBulkLengthLimit(t *testing.T) {
	_, err := NewReader(strings.NewReader("$999999999999\r\n")).Read()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized bulk accepted: %v", err)
	}
}

// TestRESPArrayLengthLimit: an array header is held to a bound of its
// own before its elements are allocated. Checked against the bulk limit
// alone, the 12-byte first frame asked for 536870912 Values (47 GB) and
// ended the process with a fatal, unrecoverable out-of-memory error.
func TestRESPArrayLengthLimit(t *testing.T) {
	for _, raw := range []string{"*536870912\r\n", "*" + strconv.Itoa(maxArrayLen+1) + "\r\n"} {
		if _, err := NewReader(strings.NewReader(raw)).Read(); !errors.Is(err, ErrProtocol) {
			t.Errorf("%q: err = %v, want ErrProtocol", raw, err)
		}
	}
}

func TestRESPNestingDepthLimit(t *testing.T) {
	nested := func(depth int) string { return strings.Repeat("*1\r\n", depth) + ":1\r\n" }
	if _, err := NewReader(strings.NewReader(nested(maxDepth))).Read(); err != nil {
		t.Fatalf("%d nested arrays refused: %v", maxDepth, err)
	}
	if _, err := NewReader(strings.NewReader(nested(maxDepth + 1))).Read(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("%d nested arrays: err = %v, want ErrProtocol", maxDepth+1, err)
	}
}

// FuzzRESPReader: Read never panics on arbitrary bytes, and every value
// it accepts is written back by Writer into a frame that reads as the
// same value. Inputs announcing a bulk or an array larger than the input
// (but within the frame limits) are skipped: the reader allocates an
// announced size, after checking its limit, before the bytes arrive.
func FuzzRESPReader(f *testing.F) {
	for _, seed := range []string{
		"*536870912\r\n",
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n",
		"+OK\r\n", "-ERR no\r\n", ":-42\r\n", "$-1\r\n", "*-1\r\n", "*0\r\n", "$0\r\n\r\n",
		strings.Repeat("*1\r\n", maxDepth+1) + ":1\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, c := range data {
			if c != '$' && c != '*' {
				continue
			}
			j := i + 1
			if j < len(data) && data[j] == '+' {
				j++
			}
			for j < len(data) && data[j] >= '0' && data[j] <= '9' {
				j++
			}
			limit := maxBulkLen
			if c == '*' {
				limit = maxArrayLen
			}
			if n, err := strconv.Atoi(string(data[i+1 : j])); err == nil && n > len(data) && n <= limit {
				t.Skip("announces more than the input holds")
			}
		}
		v, err := NewReader(bytes.NewReader(data)).Read()
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(v); err != nil {
			t.Fatalf("accepted %+v does not encode: %v", v, err)
		}
		w.Flush()
		got, err := NewReader(&buf).Read()
		if err != nil {
			t.Fatalf("re-encoded %q does not decode: %v", buf.Bytes(), err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip of %q: got %+v, want %+v", data, got, v)
		}
	})
}

func TestPropertyRESPRoundTrip(t *testing.T) {
	f := func(payload []byte, n int64, s string) bool {
		s = strings.Map(func(r rune) rune { // simple strings cannot contain CR/LF
			if r == '\r' || r == '\n' {
				return '_'
			}
			return r
		}, s)
		v := array(Bulk(payload), Integer(n), Simple(s))
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(v); err != nil {
			return false
		}
		w.Flush()
		got, err := NewReader(&buf).Read()
		if err != nil {
			return false
		}
		return bytes.Equal(got.Array[0].Bulk, payload) &&
			got.Array[1].Int == n && got.Array[2].Str == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- Server commands over TCP ---

func TestSetGet(t *testing.T) {
	_, c := newPair(t)
	val := []byte("hello world")
	if err := c.Set("greeting", val); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetInto("greeting", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("got %q", got)
	}
}

func TestGetMissingIsErrNil(t *testing.T) {
	_, c := newPair(t)
	_, err := c.GetInto("missing", nil)
	if !errors.Is(err, ErrNil) {
		t.Fatalf("err = %v, want ErrNil", err)
	}
}

func TestSetOverwrite(t *testing.T) {
	_, c := newPair(t)
	c.Set("k", []byte("one"))
	c.Set("k", []byte("two"))
	got, _ := c.GetInto("k", nil)
	if string(got) != "two" {
		t.Fatalf("got %q", got)
	}
}

func TestDelAndExists(t *testing.T) {
	_, c := newPair(t)
	c.Set("a", []byte("1"))
	c.Set("b", []byte("2"))
	ok, err := c.Exists("a")
	if err != nil || !ok {
		t.Fatalf("exists a = %v,%v", ok, err)
	}
	n, err := c.Del("a", "b", "ghost")
	if err != nil || n != 2 {
		t.Fatalf("del = %d,%v want 2", n, err)
	}
	ok, _ = c.Exists("a")
	if ok {
		t.Fatal("a exists after del")
	}
}

func TestUnknownCommand(t *testing.T) {
	_, c := newPair(t)
	_, err := c.do("NOSUCH", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("err = %v", err)
	}
}

func TestWrongArity(t *testing.T) {
	_, c := newPair(t)
	_, err := c.do("SET", []string{"only-key"})
	if err == nil || !strings.Contains(err.Error(), "wrong number of arguments") {
		t.Fatalf("err = %v", err)
	}
}

func TestBinaryValues(t *testing.T) {
	_, c := newPair(t)
	val := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(val)
	c.Set("bin", val)
	got, err := c.GetInto("bin", nil)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("binary round trip failed: %v", err)
	}
}

func TestLargeValue8MB(t *testing.T) {
	_, c := newPair(t)
	val := bytes.Repeat([]byte{0xAB}, 8<<20)
	if err := c.Set("big", val); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetInto("big", nil)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatal("8MB round trip failed")
	}
}

// TestServerSetOwnsValue: SET stores the bulk its connection's reader
// decoded, without copying it. That is only sound while every
// decoded bulk is a buffer of its own, so write several large values
// over one connection and read the first back: a reader that recycled
// its buffer would have overwritten it with a later one.
func TestServerSetOwnsValue(t *testing.T) {
	big := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 1<<20) }
	sameAs := func(t *testing.T, c *Client, key string, want []byte) {
		t.Helper()
		got, err := c.GetInto(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s starts %x, want %x: a later write reached the stored value", key, got[:4], want[:4])
		}
	}
	t.Run("SET", func(t *testing.T) {
		_, c := newPair(t)
		for i, key := range []string{"first", "second", "third"} {
			if err := c.Set(key, big(byte(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		sameAs(t, c, "first", big(1))
		sameAs(t, c, "second", big(2))
	})
}

// TestRecycledValueNeverReachesInFlightReply: one connection GETs an
// 8 MB value while two others DEL it and SET a different 8 MB value.
// The GET's reply is still being written when the DEL drops its buffer
// and the SET's reader asks the free list for one, so a buffer recycled
// while a reply holds it would show up as a reply mixing two values.
// Every reply must be the whole value the key held when the GET ran,
// and the server must recycle: 200 rounds of fresh 8 MB buffers would
// allocate 1.6 GB.
func TestRecycledValueNeverReachesInFlightReply(t *testing.T) {
	s := newServer(t)
	dial := func() *Client {
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	getter, deleter, setter := dial(), dial(), dial()
	const size, rounds = 8 << 20, 200
	// Round r stores values[r%2], so consecutive values differ.
	values := [2][]byte{bytes.Repeat([]byte{0xAA}, size), bytes.Repeat([]byte{0x55}, size)}
	if err := setter.Set("k", values[0]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var got []byte
	for r := 1; r <= rounds; r++ {
		payload := values[r%2]
		done := make(chan error, 1)
		go func() {
			if _, err := deleter.Del("k"); err != nil {
				done <- err
				return
			}
			done <- setter.Set("k", payload)
		}()
		v, err := getter.GetInto("k", got)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if errors.Is(err, ErrNil) {
			continue // the DEL ran first
		}
		if err != nil {
			t.Fatal(err)
		}
		got = v
		if len(got) != size || !bytes.Equal(got[1:], got[:size-1]) {
			t.Fatalf("round %d: reply of %d bytes mixes values (starts %d, ends %d)", r, len(got), got[0], got[len(got)-1])
		}
		if got[0] != values[0][0] && got[0] != values[1][0] {
			t.Fatalf("round %d: reply holds %#x, a value never stored", r, got[0])
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > rounds*size/4 {
		t.Errorf("%d rounds allocated %d MB: the server did not recycle its value buffers", rounds, grew>>20)
	}
}

func TestManyClientsConcurrent(t *testing.T) {
	s := newServer(t)
	const clients, per = 8, 40
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < per; j++ {
				key := fmt.Sprintf("c%d-k%d", i, j)
				if err := c.Set(key, []byte(key)); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				got, err := c.GetInto(key, nil)
				if err != nil || string(got) != key {
					t.Errorf("get %s = %q,%v", key, got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < clients; i++ {
		for j := 0; j < per; j++ {
			if ok, err := c.Exists(fmt.Sprintf("c%d-k%d", i, j)); err != nil || !ok {
				t.Fatalf("c%d-k%d exists = %v,%v", i, j, ok, err)
			}
		}
	}
}

func TestSharedClientConcurrent(t *testing.T) {
	_, c := newPair(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("shared-%d", i)
			if err := c.Set(key, []byte{byte(i)}); err != nil {
				t.Errorf("set: %v", err)
			}
			got, err := c.GetInto(key, nil)
			if err != nil || got[0] != byte(i) {
				t.Errorf("get: %v %v", got, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestServerCloseIdempotent(t *testing.T) {
	s := newServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClientAfterServerClose(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s.Close()
	if _, err := c.GetInto("k", nil); err == nil {
		t.Fatal("request to closed server succeeded")
	}
}

// --- Cluster ---

func TestClusterShardsKeys(t *testing.T) {
	s1, s2 := newServer(t), newServer(t)
	cl, err := DialCluster([]string{s1.Addr(), s2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := cl.Set(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c1, _ := Dial(s1.Addr())
	c2, _ := Dial(s2.Addr())
	defer c1.Close()
	defer c2.Close()
	k1, k2 := 0, 0
	for i := 0; i < n; i++ {
		on1, err1 := c1.Exists(fmt.Sprintf("key-%d", i))
		on2, err2 := c2.Exists(fmt.Sprintf("key-%d", i))
		if err1 != nil || err2 != nil || on1 == on2 {
			t.Fatalf("key-%d on shard 1: %v,%v, on shard 2: %v,%v; want exactly one", i, on1, err1, on2, err2)
		}
		if on1 {
			k1++
		} else {
			k2++
		}
	}
	if k1 == 0 || k2 == 0 {
		t.Fatalf("degenerate sharding: %d/%d", k1, k2)
	}
}

func TestClusterGetRoutesToRightShard(t *testing.T) {
	s1, s2 := newServer(t), newServer(t)
	cl, err := DialCluster([]string{s1.Addr(), s2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("rt-%d", i)
		cl.Set(key, []byte(key))
		got, err := cl.GetInto(key, nil)
		if err != nil || string(got) != key {
			t.Fatalf("cluster get %s = %q,%v", key, got, err)
		}
	}
	for i, c := range cl.clients {
		for j := 0; j < 20; j++ {
			key := fmt.Sprintf("rt-%d", j)
			if ok, err := c.Exists(key); err != nil || ok != (cl.pick(key) == c) {
				t.Fatalf("%s on shard %d = %v,%v; want it on its routed shard only", key, i, ok, err)
			}
		}
	}
}

func TestClusterEmptyAddrs(t *testing.T) {
	if _, err := DialCluster(nil); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func BenchmarkSetGet(b *testing.B) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, size := range []int{1 << 10, 1 << 20} {
		val := make([]byte, size)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := c.Set("bench", val); err != nil {
					b.Fatal(err)
				}
				if _, err := c.GetInto("bench", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// loopReader serves one reply over and over, as a server answering every
// command alike would.
type loopReader struct {
	reply []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.reply[l.off:])
	l.off = (l.off + n) % len(l.reply)
	return n, nil
}

// TestClientControlPlaneAllocatesNothing: the calls a staging poll loop
// makes — Exists, a small Set, a GetInto whose buffer holds the value,
// Del — allocate nothing in the client. The replies are canned, so the
// count is the client's alone, not the server's.
func TestClientControlPlaneAllocatesNothing(t *testing.T) {
	val, dst := []byte("12"), make([]byte, 0, 16)
	for _, c := range []struct {
		name, reply string
		op          func(*Client) error
	}{
		{"Exists", ":1\r\n", func(c *Client) error { _, err := c.Exists("snap/12"); return err }},
		{"Set", "+OK\r\n", func(c *Client) error { return c.Set("control/head", val) }},
		{"GetInto", "$5\r\nhello\r\n", func(c *Client) error { _, err := c.GetInto("control/head", dst); return err }},
		{"Del", ":1\r\n", func(c *Client) error { _, err := c.Del("snap/12"); return err }},
	} {
		cl := &Client{r: NewReader(&loopReader{reply: []byte(c.reply)}), w: NewWriter(io.Discard)}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := c.op(cl); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s allocates %v times, want 0", c.name, allocs)
		}
	}
}

// TestClientEncodesAsWriter: a command the client encodes straight into
// its writer is the frame Writer makes of the same Values, byte for byte.
func TestClientEncodesAsWriter(t *testing.T) {
	var got, want bytes.Buffer
	c := &Client{w: NewWriter(&got)}
	big := bytes.Repeat([]byte{'\r'}, 5000)
	if err := c.send("SET", []string{"k", ""}, []byte("v\r\n"), nil, big); err != nil {
		t.Fatal(err)
	}
	w := NewWriter(&want)
	w.Write(array(Bulk([]byte("SET")), Bulk([]byte("k")), Bulk([]byte("")), Bulk([]byte("v\r\n")), Bulk(nil), Bulk(big)))
	w.Flush()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("client sent %q, Writer encodes %q", got.Bytes(), want.Bytes())
	}
}
