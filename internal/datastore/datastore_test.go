package datastore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// eachBackend runs fn against a live deployment of every backend — the
// contract test that makes "swap backends at runtime" trustworthy.
func eachBackend(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	for _, b := range Backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			mgr, info, err := StartBackend(b, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mgr.Stop() })
			s, err := Connect(info)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			fn(t, s)
		})
	}
}

func TestParseBackend(t *testing.T) {
	cases := map[string]Backend{
		"redis": Redis, "dragon": Dragon,
		"node-local": NodeLocal, "nodelocal": NodeLocal,
		"filesystem": FileSystem, "fs": FileSystem, "lustre": FileSystem,
	}
	for in, want := range cases {
		got, err := ParseBackend(in)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v,%v want %v", in, got, err, want)
		}
	}
	if _, err := ParseBackend("carrier-pigeon"); err == nil {
		t.Error("unknown backend parsed")
	}
}

func TestBackendStringRoundTrip(t *testing.T) {
	for _, b := range Backends() {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Errorf("round trip %v: %v,%v", b, got, err)
		}
	}
}

func TestStageWriteRead(t *testing.T) {
	eachBackend(t, func(t *testing.T, s Store) {
		want := []byte("snapshot-bytes")
		if err := s.StageWrite("sim/step100", want); err != nil {
			t.Fatal(err)
		}
		got, err := s.StageRead("sim/step100")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("got %q", got)
		}
	})
}

func TestReadUnstagedIsErrNotStaged(t *testing.T) {
	eachBackend(t, func(t *testing.T, s Store) {
		_, err := s.StageRead("never-written")
		if !errors.Is(err, ErrNotStaged) {
			t.Fatalf("err = %v, want ErrNotStaged", err)
		}
	})
}

func TestPoll(t *testing.T) {
	eachBackend(t, func(t *testing.T, s Store) {
		ok, err := s.Poll("k")
		if err != nil || ok {
			t.Fatalf("poll before write = %v,%v", ok, err)
		}
		s.StageWrite("k", []byte("v"))
		ok, err = s.Poll("k")
		if err != nil || !ok {
			t.Fatalf("poll after write = %v,%v", ok, err)
		}
	})
}

func TestCleanIdempotent(t *testing.T) {
	eachBackend(t, func(t *testing.T, s Store) {
		s.StageWrite("a", []byte("1"))
		s.StageWrite("b", []byte("2"))
		if err := s.Clean("a", "b", "ghost"); err != nil {
			t.Fatal(err)
		}
		if ok, _ := s.Poll("a"); ok {
			t.Fatal("a staged after clean")
		}
		if err := s.Clean("a"); err != nil {
			t.Fatalf("second clean: %v", err)
		}
	})
}

// TestCleanManyKeys: one Clean of more keys than a Dragon manager takes
// in one pipelined batch removes every one, on every backend.
func TestCleanManyKeys(t *testing.T) {
	eachBackend(t, func(t *testing.T, s Store) {
		var keys []string
		for i := 0; i < 600; i++ {
			k := fmt.Sprintf("data/%d/x", i)
			if err := s.StageWrite(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
		if err := s.Clean(keys...); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if ok, err := s.Poll(k); err != nil || ok {
				t.Fatalf("%s staged = %v, %v after Clean", k, ok, err)
			}
		}
	})
}

func TestOverwriteLatestWins(t *testing.T) {
	eachBackend(t, func(t *testing.T, s Store) {
		for i := 0; i < 5; i++ {
			s.StageWrite("k", []byte{byte(i)})
		}
		got, err := s.StageRead("k")
		if err != nil || got[0] != 4 {
			t.Fatalf("got %v,%v", got, err)
		}
	})
}

func TestLargeValue(t *testing.T) {
	eachBackend(t, func(t *testing.T, s Store) {
		// 1.2 MB — the per-rank message size of the original workflow.
		want := bytes.Repeat([]byte{0xCD}, 1_200_000)
		if err := s.StageWrite("big", want); err != nil {
			t.Fatal(err)
		}
		got, err := s.StageRead("big")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatal("1.2MB round trip failed")
		}
	})
}

// TestStageReadIntoReusesDst: a read into the previous result lands in
// its array, for a value of the same size and a smaller one, with the
// bytes StageRead returns.
func TestStageReadIntoReusesDst(t *testing.T) {
	eachBackend(t, func(t *testing.T, s Store) {
		var buf []byte
		for i, size := range []int{256 << 10, 256 << 10, 1000} {
			want := bytes.Repeat([]byte{byte(i + 1)}, size)
			if err := s.StageWrite("snap", want); err != nil {
				t.Fatal(err)
			}
			got, err := s.StageReadInto("snap", buf)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && &got[0] != &buf[0] {
				t.Errorf("read %d of %d bytes did not reuse the %d-byte dst", i, size, cap(buf))
			}
			plain, err := s.StageRead("snap")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(got, plain) {
				t.Fatalf("read %d: StageReadInto and StageRead disagree with the staged value", i)
			}
			buf = got
		}
		if _, err := s.StageReadInto("never-written", buf); !errors.Is(err, ErrNotStaged) {
			t.Errorf("missing key: err = %v, want ErrNotStaged", err)
		}
	})
}

// TestStageReadIntoAllocatesNoValue: a read into a dst that fits comes
// back in dst's array without allocating a buffer of the value's size,
// on every backend: the Dragon client reads the reply off the socket and
// the file stores read the file straight into dst.
func TestStageReadIntoAllocatesNoValue(t *testing.T) {
	const size, reads = 1 << 20, 8
	eachBackend(t, func(t *testing.T, s Store) {
		want := bytes.Repeat([]byte{7}, size)
		if err := s.StageWrite("snap", want); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, size+100)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reads {
			got, err := s.StageReadInto("snap", buf)
			if err != nil {
				t.Fatal(err)
			}
			if cap(got) != cap(buf) || &got[0] != &buf[:1][0] || !bytes.Equal(got, want) {
				t.Fatalf("read of %d bytes did not come back in the %d-byte dst", len(got), cap(buf))
			}
		}
		runtime.ReadMemStats(&after)
		if perRead := (after.TotalAlloc - before.TotalAlloc) / reads; perRead >= size/4 {
			t.Fatalf("a read into a fitting dst allocated %d bytes; the value is %d", perRead, size)
		}
	})
}

func TestConcurrentProducerConsumer(t *testing.T) {
	// The one-to-one pattern in miniature: a writer stages snapshots, a
	// reader polls for them asynchronously.
	eachBackend(t, func(t *testing.T, s Store) {
		const steps = 20
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // simulation
			defer wg.Done()
			for i := 0; i < steps; i++ {
				key := fmt.Sprintf("snap/%d", i)
				if err := s.StageWrite(key, []byte{byte(i)}); err != nil {
					t.Errorf("write %s: %v", key, err)
					return
				}
			}
		}()
		go func() { // trainer
			defer wg.Done()
			deadline := time.Now().Add(10 * time.Second)
			for i := 0; i < steps; i++ {
				key := fmt.Sprintf("snap/%d", i)
				v, err := s.StageRead(key)
				for errors.Is(err, ErrNotStaged) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
					v, err = s.StageRead(key)
				}
				if err != nil {
					t.Errorf("wait %s: %v", key, err)
					return
				}
				if v[0] != byte(i) {
					t.Errorf("%s = %v", key, v)
					return
				}
			}
		}()
		wg.Wait()
	})
}

func TestMultiInstanceDeployments(t *testing.T) {
	for _, b := range []Backend{Redis, Dragon} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			mgr, err := NewServerManager(ServerConfig{Backend: b, Instances: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Stop()
			info, err := mgr.Start()
			if err != nil {
				t.Fatal(err)
			}
			if len(info.Addrs) != 3 {
				t.Fatalf("addrs = %v, want 3", info.Addrs)
			}
			s, err := Connect(info)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 60; i++ {
				k := fmt.Sprintf("spread-%d", i)
				if err := s.StageWrite(k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			// One client per address sees only its own instance: each
			// key must be on exactly one, and every instance hold some.
			var single []Store
			for _, a := range info.Addrs {
				c, err := Connect(ClientInfo{Backend: b, Addrs: []string{a}})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				single = append(single, c)
			}
			held := make([]int, len(single))
			for i := 0; i < 60; i++ {
				k := fmt.Sprintf("spread-%d", i)
				if got, err := s.StageRead(k); err != nil || string(got) != k {
					t.Fatalf("read %s = %q,%v", k, got, err)
				}
				on := 0
				for j, c := range single {
					ok, err := c.Poll(k)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						held[j]++
						on++
					}
				}
				if on != 1 {
					t.Fatalf("%s is on %d instances, want 1", k, on)
				}
			}
			for j, n := range held {
				if n == 0 {
					t.Errorf("instance %d holds none of 60 keys: %v", j, held)
				}
			}
		})
	}
}

func TestTwoClientsShareDeployment(t *testing.T) {
	// Simulation and AI components hold separate client handles to the
	// same deployment — data written by one must be visible to the other.
	for _, b := range Backends() {
		t.Run(b.String(), func(t *testing.T) {
			t.Run("two-clients", func(t *testing.T) {
				mgr, info, err := StartBackend(b, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer mgr.Stop()
				c1, err := Connect(info)
				if err != nil {
					t.Fatal(err)
				}
				defer c1.Close()
				c2, err := Connect(info)
				if err != nil {
					t.Fatal(err)
				}
				defer c2.Close()
				if err := c1.StageWrite("shared", []byte("from-c1")); err != nil {
					t.Fatal(err)
				}
				got, err := c2.StageRead("shared")
				if err != nil || string(got) != "from-c1" {
					t.Fatalf("cross-client read = %q,%v", got, err)
				}
			})
		})
	}
}

func TestServerManagerStopIdempotent(t *testing.T) {
	mgr, _, err := StartBackend(Redis, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestServerCrashSurfacesError(t *testing.T) {
	// Failure injection: kill the backend servers mid-run; clients must
	// report errors, not hang or panic.
	for _, b := range []Backend{Redis, Dragon} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			mgr, info, err := StartBackend(b, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s, err := Connect(info)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.StageWrite("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			mgr.Stop()
			if err := s.StageWrite("k2", []byte("v")); err == nil {
				t.Fatal("write to dead server succeeded")
			}
		})
	}
}

// TestStoppedFileStoreRefusesEveryLaterOperation: a file-backed
// deployment stopped while writes are in flight refuses every operation
// after Stop returns, from a client it had or one connected later, and
// its directory is gone: no write in flight kept it in place.
func TestStoppedFileStoreRefusesEveryLaterOperation(t *testing.T) {
	for _, b := range []Backend{NodeLocal, FileSystem} {
		t.Run(b.String(), func(t *testing.T) {
			for range 20 {
				mgr, info, err := StartBackend(b, "")
				if err != nil {
					t.Fatal(err)
				}
				s, err := Connect(info)
				if err != nil {
					t.Fatal(err)
				}
				var (
					wg      sync.WaitGroup
					stopped atomic.Bool
				)
				started := make(chan struct{}, 2)
				for w := range 2 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := 0; !stopped.Load(); k++ {
							if s.StageWrite(fmt.Sprintf("w%d/%d", w, k%8), make([]byte, 4096)) != nil {
								return
							}
							if k == 0 {
								started <- struct{}{}
							}
						}
					}()
				}
				<-started
				<-started
				mgr.Stop()
				stopped.Store(true)
				wg.Wait()
				late, err := Connect(info)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []Store{s, late} {
					ok, err := c.Poll("w0/0")
					if !errors.Is(err, ErrStopped) {
						t.Fatalf("Poll after Stop: %v, %v; want ErrStopped", ok, err)
					}
					for op, err := range map[string]error{
						"write": c.StageWrite("k", []byte("v")),
						"read":  func() error { _, err := c.StageRead("w0/0"); return err }(),
						"clean": c.Clean("w0/0"),
					} {
						if !errors.Is(err, ErrStopped) {
							t.Fatalf("%s after Stop: %v, want ErrStopped", op, err)
						}
					}
				}
				if _, err := os.Stat(info.Dir); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("the stopped deployment's directory is still there: %v", err)
				}
			}
		})
	}
}

func TestClientInfoJSONRoundTrip(t *testing.T) {
	// ClientInfo travels to remote components as JSON launch metadata.
	info := ClientInfo{Backend: Dragon, Addrs: []string{"1.2.3.4:5"}, Shards: 8}
	s := fmt.Sprintf("%v %v %v", info.Backend, info.Addrs, info.Shards)
	if s == "" {
		t.Fatal("unreachable")
	}
}

func TestPropertyRoundTripAllBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live servers")
	}
	for _, b := range Backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			mgr, info, err := StartBackend(b, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Stop()
			s, err := Connect(info)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			f := func(key string, value []byte) bool {
				if key == "" {
					key = "-"
				}
				if err := s.StageWrite(key, value); err != nil {
					return false
				}
				got, err := s.StageRead(key)
				return err == nil && bytes.Equal(got, value)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
