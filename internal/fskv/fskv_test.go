package fskv

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"os"
	"strings"
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
	got, err := s.GetInto("alpha", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "value-1" {
		t.Fatalf("got %q, want value-1", got)
	}
}

func TestGetMissingKey(t *testing.T) {
	s := newStore(t, 2)
	_, err := s.GetInto("nope", nil)
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
	got, err := s.GetInto("k", nil)
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
	got, err := s.GetInto("empty", nil)
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
	got, err := s2.GetInto("persist", nil)
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
				got, err := s.GetInto("hot", nil)
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
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		if got, err := s.GetInto(key, nil); err != nil || string(got) != key {
			t.Fatalf("get %s = %q,%v", key, got, err)
		}
	}
}

// TestLongKeysHashedName: a key whose escape exceeds maxNameLen is stored
// under a hashed name. It passes Put/Get/Exists/Delete like any key, two
// long keys sharing their first maxNameLen bytes stay apart, and the
// value file is the only file a key leaves.
func TestLongKeysHashedName(t *testing.T) {
	s := newStore(t, 1)
	prefix := strings.Repeat("p", maxNameLen)
	keys := []string{prefix + "/a", prefix + "/b", strings.Repeat("/", maxNameLen/3+1)}
	for _, k := range keys {
		if len(url.PathEscape(k)) <= maxNameLen {
			t.Fatalf("escape of %q fits in %d bytes: not a long key", k, maxNameLen)
		}
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	shard := shardPath(s.root, 0)
	entries, err := os.ReadDir(shard)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(keys) {
		t.Fatalf("%d keys left %d files, want one each", len(keys), len(entries))
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), longPrefix) || !strings.HasSuffix(e.Name(), valueExt) {
			t.Errorf("file %q is not a hashed value name", e.Name())
		}
	}
	for _, k := range keys {
		if got, err := s.GetInto(k, nil); err != nil || string(got) != k {
			t.Fatalf("get %.20q… = %.20q…,%v", k, got, err)
		}
		if !s.Exists(k) {
			t.Fatalf("%.20q… does not exist after put", k)
		}
	}
	if err := s.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	if s.Exists(keys[0]) || !s.Exists(keys[1]) {
		t.Fatal("deleting one long key did not delete exactly that key")
	}
	for _, k := range keys[1:] {
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if entries, _ := os.ReadDir(shard); len(entries) != 0 {
		t.Fatalf("%d files left after every key was deleted", len(entries))
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
		got, err := s.GetInto(key, nil)
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
		if _, err := s.GetInto("k", nil); err != nil {
			b.Fatal(err)
		}
	}
}
