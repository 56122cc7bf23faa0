package dragon

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func newLocalDict(t *testing.T, managers int) (*Dict, []*Manager) {
	t.Helper()
	var eps []Endpoint
	var ms []*Manager
	for i := 0; i < managers; i++ {
		m := NewManager()
		t.Cleanup(m.Close)
		ms = append(ms, m)
		eps = append(eps, Local(m))
	}
	d, err := Attach(eps...)
	if err != nil {
		t.Fatal(err)
	}
	return d, ms
}

func newTCPDict(t *testing.T, managers int) (*Dict, []*Manager) {
	t.Helper()
	var eps []Endpoint
	var ms []*Manager
	for i := 0; i < managers; i++ {
		m := NewManager()
		t.Cleanup(m.Close)
		ms = append(ms, m)
		ln, err := ListenAndServe(m, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		ep, err := DialEndpoint(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps = append(eps, ep)
	}
	d, err := Attach(eps...)
	if err != nil {
		t.Fatal(err)
	}
	return d, ms
}

// runBothTransports runs the same behaviour test over in-proc and TCP
// dictionaries, since both must satisfy the same contract.
func runBothTransports(t *testing.T, managers int, fn func(t *testing.T, d *Dict)) {
	t.Run("local", func(t *testing.T) {
		d, _ := newLocalDict(t, managers)
		fn(t, d)
	})
	t.Run("tcp", func(t *testing.T) {
		d, _ := newTCPDict(t, managers)
		fn(t, d)
	})
}

func TestPutGetRoundTrip(t *testing.T) {
	runBothTransports(t, 3, func(t *testing.T, d *Dict) {
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
	runBothTransports(t, 2, func(t *testing.T, d *Dict) {
		_, err := d.Get("missing")
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	})
}

func TestHasDel(t *testing.T) {
	runBothTransports(t, 2, func(t *testing.T, d *Dict) {
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
	runBothTransports(t, 2, func(t *testing.T, d *Dict) {
		if err := d.Put("empty", nil); err != nil {
			t.Fatal(err)
		}
		got, err := d.Get("empty")
		if err != nil || len(got) != 0 {
			t.Fatalf("empty value: %v,%v", got, err)
		}
	})
}

func TestKeysSortedUnion(t *testing.T) {
	runBothTransports(t, 4, func(t *testing.T, d *Dict) {
		want := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		for _, k := range want {
			d.Put(k, []byte(k))
		}
		got, err := d.Keys()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || !sort.StringsAreSorted(got) {
			t.Fatalf("keys = %v", got)
		}
	})
}

func TestLen(t *testing.T) {
	runBothTransports(t, 3, func(t *testing.T, d *Dict) {
		for i := 0; i < 30; i++ {
			d.Put(fmt.Sprintf("k%d", i), []byte("v"))
		}
		n, err := d.Len()
		if err != nil || n != 30 {
			t.Fatalf("len = %d,%v", n, err)
		}
	})
}

func TestShardingSpreadsKeys(t *testing.T) {
	d, ms := newLocalDict(t, 4)
	for i := 0; i < 400; i++ {
		d.Put(fmt.Sprintf("key-%d", i), []byte("v"))
	}
	for i, m := range ms {
		n, _ := Local(m).Len()
		if n < 40 || n > 400/4*2 {
			t.Fatalf("manager %d has %d keys, far from uniform 100", i, n)
		}
	}
}

func TestRouteStableAcrossClients(t *testing.T) {
	d1, _ := newLocalDict(t, 5)
	d2, _ := newLocalDict(t, 5)
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
	d, _ := newLocalDict(t, 1)
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

func TestLargeValueOverTCP(t *testing.T) {
	d, _ := newTCPDict(t, 2)
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
	d, _ := newTCPDict(t, 2)
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
	d, _ := newTCPDict(t, 3)
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
	n, _ := d.Len()
	if n != 8*25 {
		t.Fatalf("len = %d, want 200", n)
	}
}

func TestManagerCloseUnblocksClients(t *testing.T) {
	m := NewManager()
	ep := Local(m)
	m.Close()
	if err := ep.Put("k", []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close = %v, want ErrClosed", err)
	}
}

func TestManagerCloseIdempotent(t *testing.T) {
	m := NewManager()
	m.Close()
	m.Close()
}

func TestAttachEmpty(t *testing.T) {
	if _, err := Attach(); err == nil {
		t.Fatal("Attach() with no endpoints succeeded")
	}
}

func TestServerSurvivesClientDisconnect(t *testing.T) {
	m := NewManager()
	defer m.Close()
	ln, err := ListenAndServe(m, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Abruptly drop a half-written request.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{byte(opPut), 0, 0})
	conn.Close()
	// Server must still serve new clients.
	ep, err := DialEndpoint(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Put("k", []byte("v")); err != nil {
		t.Fatalf("server wedged after bad client: %v", err)
	}
}

func TestPropertyRoundTripArbitraryKV(t *testing.T) {
	d, _ := newLocalDict(t, 4)
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

func TestPropertyKeyListCodec(t *testing.T) {
	f := func(keys []string) bool {
		got, err := decodeKeys(encodeKeys(keys))
		if err != nil {
			return false
		}
		if len(got) != len(keys) {
			return len(keys) == 0 && len(got) == 0
		}
		for i := range keys {
			if got[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLocalPutGet1MB(b *testing.B) {
	m := NewManager()
	defer m.Close()
	d, _ := Attach(Local(m))
	val := make([]byte, 1<<20)
	b.SetBytes(2 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Put("bench", val)
		d.Get("bench")
	}
}

func BenchmarkTCPPutGet1MB(b *testing.B) {
	m := NewManager()
	defer m.Close()
	ln, err := ListenAndServe(m, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	ep, err := DialEndpoint(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	d, _ := Attach(ep)
	val := make([]byte, 1<<20)
	b.SetBytes(2 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Put("bench", val)
		d.Get("bench")
	}
}
