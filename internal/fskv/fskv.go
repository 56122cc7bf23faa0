// Package fskv implements the sharded file-backed key-value store the
// paper uses for its node-local and parallel-file-system backends (§3.2):
// keys are hashed with CRC32 to pick a shard directory, and every write
// goes to a temporary file that is atomically renamed to its final
// destination (key.pickle in the original; key.val here) so readers never
// observe partial values.
//
// The same implementation serves two backends: pointed at a tmpfs
// directory it is the "node-local" store; pointed at a shared directory it
// is the "file system" (Lustre-style) store. The paper scales the shard
// count linearly with node count; callers control that through Shards.
package fskv

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"path/filepath"
)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("fskv: key not found")

// valueExt is the suffix for committed values (the original uses .pickle).
const valueExt = ".val"

// Store is a sharded key-value store rooted at a directory. It is safe
// for concurrent use by multiple goroutines and multiple processes: all
// cross-writer coordination happens through atomic rename.
type Store struct {
	root   string
	shards int
}

// Open creates (if necessary) and returns a store rooted at dir with the
// given shard count (>= 1). Reopening an existing root with the same
// shard count sees all previously committed values.
func Open(dir string, shards int) (*Store, error) {
	if shards < 1 {
		return nil, fmt.Errorf("fskv: shard count %d < 1", shards)
	}
	for i := 0; i < shards; i++ {
		if err := os.MkdirAll(shardPath(dir, i), 0o755); err != nil {
			return nil, fmt.Errorf("fskv: create shard %d: %w", i, err)
		}
	}
	return &Store{root: dir, shards: shards}, nil
}

func shardPath(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard%04d", i))
}

// Shard returns the shard index for key: CRC32(IEEE) mod shards, matching
// the paper's design.
func (s *Store) Shard(key string) int {
	return int(crc32.ChecksumIEEE([]byte(key)) % uint32(s.shards))
}

// maxNameLen caps the escaped-key filename; longer keys fall back to a
// hashed name (most filesystems limit names to 255 bytes).
const maxNameLen = 200

// longPrefix marks hashed filenames for keys too long to escape inline.
const longPrefix = "long-"

// path returns the final value path for key. Keys are percent-escaped so
// arbitrary strings (including separators) are valid; a key whose escape
// is longer than maxNameLen is stored under the SHA-256 of the key.
func (s *Store) path(key string) string {
	name := url.PathEscape(key)
	if len(name) > maxNameLen {
		sum := sha256.Sum256([]byte(key))
		name = longPrefix + hex.EncodeToString(sum[:])
	}
	return filepath.Join(shardPath(s.root, s.Shard(key)), name+valueExt)
}

// Put atomically writes value under key: write to a temp file in the
// shard, fsync-free rename over the final name. Concurrent writers to the
// same key leave one complete value; readers never see partial data.
func (s *Store) Put(key string, value []byte) error {
	final := s.path(key)
	tmp, err := os.CreateTemp(filepath.Dir(final), ".tmp-*")
	if err != nil {
		return fmt.Errorf("fskv: put %q: %w", key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(value); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("fskv: put %q: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fskv: put %q: %w", key, err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fskv: put %q: %w", key, err)
	}
	return nil
}

// Get returns the value for key, or ErrNotFound.
func (s *Store) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("fskv: get %q: %w", key, err)
	}
	return data, nil
}

// Exists reports whether key has a committed value.
func (s *Store) Exists(key string) bool {
	_, err := os.Stat(s.path(key))
	return err == nil
}

// Delete removes key. Deleting a missing key is not an error, mirroring
// the idempotent clean-up semantics of the paper's clean_staged_data.
func (s *Store) Delete(key string) error {
	err := os.Remove(s.path(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("fskv: delete %q: %w", key, err)
	}
	return nil
}
