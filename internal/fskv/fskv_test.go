package fskv

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func newStore(t *testing.T, shards int) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), shards)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t, 4)
	if err := s.Put("alpha", []byte("value-1")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "value-1" {
		t.Fatalf("got %q, want value-1", got)
	}
}

func TestGetMissingKey(t *testing.T) {
	s := newStore(t, 2)
	_, err := s.Get("nope")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestOverwrite(t *testing.T) {
	s := newStore(t, 2)
	for i := 0; i < 5; i++ {
		if err := s.Put("k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 {
		t.Fatalf("after overwrites got %v, want [4]", got)
	}
}

func TestEmptyValue(t *testing.T) {
	s := newStore(t, 2)
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes, want 0", len(got))
	}
	if !s.Exists("empty") {
		t.Fatal("empty value should still exist")
	}
}

func TestExists(t *testing.T) {
	s := newStore(t, 2)
	if s.Exists("k") {
		t.Fatal("Exists before put")
	}
	s.Put("k", []byte("v"))
	if !s.Exists("k") {
		t.Fatal("!Exists after put")
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t, 2)
	s.Put("k", []byte("v"))
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("k") {
		t.Fatal("key exists after delete")
	}
	// Deleting again is idempotent.
	if err := s.Delete("k"); err != nil {
		t.Fatalf("second delete: %v", err)
	}
}

func TestKeysListing(t *testing.T) {
	s := newStore(t, 8)
	want := []string{"a", "b/with/slashes", "c with spaces", "d%percent", "häagen"}
	for _, k := range want {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
}

func TestLenAndClean(t *testing.T) {
	s := newStore(t, 4)
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	n, err := s.Len()
	if err != nil || n != 10 {
		t.Fatalf("Len = %d,%v want 10", n, err)
	}
	if err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	n, _ = s.Len()
	if n != 0 {
		t.Fatalf("Len after clean = %d, want 0", n)
	}
	// Store must stay usable after Clean.
	if err := s.Put("again", []byte("v")); err != nil {
		t.Fatalf("put after clean: %v", err)
	}
}

func TestReopenSeesData(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	s1.Put("persist", []byte("xyz"))
	s2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("persist")
	if err != nil || string(got) != "xyz" {
		t.Fatalf("reopen get = %q,%v", got, err)
	}
}

func TestBadShardCount(t *testing.T) {
	if _, err := Open(t.TempDir(), 0); err == nil {
		t.Fatal("Open with 0 shards succeeded")
	}
}

func TestShardStability(t *testing.T) {
	s := newStore(t, 16)
	for _, k := range []string{"a", "b", "key-42", "workflow/sim/0"} {
		if s.Shard(k) != s.Shard(k) {
			t.Fatalf("shard of %q unstable", k)
		}
		if s.Shard(k) < 0 || s.Shard(k) >= 16 {
			t.Fatalf("shard of %q out of range: %d", k, s.Shard(k))
		}
	}
}

func TestShardDistribution(t *testing.T) {
	// CRC32 sharding should spread many keys roughly evenly; assert no
	// shard is pathologically empty or overloaded.
	s := newStore(t, 8)
	counts := make([]int, 8)
	const n = 4000
	for i := 0; i < n; i++ {
		counts[s.Shard(fmt.Sprintf("rank%d/step%d", i%12, i))]++
	}
	for i, c := range counts {
		if c < n/8/2 || c > n/8*2 {
			t.Fatalf("shard %d count %d far from uniform %d: %v", i, c, n/8, counts)
		}
	}
}

func TestConcurrentWritersAtomicity(t *testing.T) {
	// Many writers hammering one key, many readers: a reader must always
	// see one writer's complete value, never a mix or partial write.
	s := newStore(t, 2)
	const writers, iters = 8, 50
	valueFor := func(w int) []byte {
		return bytes.Repeat([]byte{byte('A' + w)}, 1024)
	}
	s.Put("hot", valueFor(0))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := s.Put("hot", valueFor(w)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	var readerWg sync.WaitGroup
	for r := 0; r < 4; r++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := s.Get("hot")
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if len(got) != 1024 {
					t.Errorf("partial read: %d bytes", len(got))
					return
				}
				for _, b := range got {
					if b != got[0] {
						t.Error("torn value: mixed writer bytes")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWg.Wait()
}

func TestConcurrentDistinctKeys(t *testing.T) {
	s := newStore(t, 8)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", i)
			if err := s.Put(key, []byte(key)); err != nil {
				t.Errorf("put %s: %v", key, err)
			}
		}(i)
	}
	wg.Wait()
	cnt, err := s.Len()
	if err != nil || cnt != n {
		t.Fatalf("Len = %d,%v want %d", cnt, err, n)
	}
}

func TestCleanRemovesStrayTempFiles(t *testing.T) {
	s := newStore(t, 2)
	s.Put("k", []byte("v"))
	// Simulate a crashed writer leaving a temp file behind.
	stray := filepath.Join(s.root, "shard0000", ".tmp-crashed")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Keys must skip it...
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k == ".tmp-crashed" {
			t.Fatal("stray temp file listed as key")
		}
	}
	// ...and Clean must remove it.
	if err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stray temp file survived clean")
	}
}

func TestPropertyRoundTripArbitraryKV(t *testing.T) {
	s := newStore(t, 8)
	f := func(key string, value []byte) bool {
		if key == "" {
			key = "-"
		}
		if err := s.Put(key, value); err != nil {
			return false
		}
		got, err := s.Get(key)
		if err != nil {
			return false
		}
		return bytes.Equal(got, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyShardInRange(t *testing.T) {
	f := func(key string, rawShards uint8) bool {
		shards := int(rawShards%32) + 1
		s := &Store{root: "unused", shards: shards}
		sh := s.Shard(key)
		return sh >= 0 && sh < shards
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut1MB(b *testing.B) {
	s, err := Open(b.TempDir(), 8)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i%16), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet1MB(b *testing.B) {
	s, err := Open(b.TempDir(), 8)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 1<<20)
	s.Put("k", val)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("k"); err != nil {
			b.Fatal(err)
		}
	}
}
