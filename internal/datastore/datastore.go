// Package datastore implements the paper's data-transport layer (§3.2):
// the ServerManager that deploys data-staging backends and the DataStore
// client that exposes one uniform API over all of them — stage_write,
// stage_read, poll_staged_data and clean_staged_data in the original.
//
// Four backends are supported, exactly the set the paper benchmarks:
//
//   - Redis        — the mini RESP server(s) of internal/redis
//   - Dragon       — the distributed dictionary of internal/dragon
//   - NodeLocal    — the sharded file store of internal/fskv on a
//     node-local (tmpfs-style) directory
//   - FileSystem   — the same sharded store on a shared (Lustre-style)
//     directory
//
// Selecting a backend is a runtime argument, which is what lets the
// mini-apps benchmark every transport without code changes — the paper's
// central design point.
package datastore

import (
	"errors"
	"fmt"
	"sync"

	"simaibench/internal/dragon"
	"simaibench/internal/fskv"
	"simaibench/internal/redis"
)

// Backend identifies a data-transport implementation.
type Backend int

// The four transport backends from the paper's evaluation.
const (
	Redis Backend = iota
	Dragon
	NodeLocal
	FileSystem

	// NumBackends counts the backends above: the length of an array
	// indexed by Backend.
	NumBackends = iota
)

// ParseBackend converts a CLI/config string to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "redis":
		return Redis, nil
	case "dragon":
		return Dragon, nil
	case "node-local", "nodelocal", "node_local":
		return NodeLocal, nil
	case "filesystem", "file-system", "fs", "lustre":
		return FileSystem, nil
	}
	return Redis, fmt.Errorf("datastore: unknown backend %q", s)
}

// String returns the canonical config name.
func (b Backend) String() string {
	switch b {
	case Redis:
		return "redis"
	case Dragon:
		return "dragon"
	case NodeLocal:
		return "node-local"
	case FileSystem:
		return "filesystem"
	}
	return "unknown"
}

// Backends lists all four, in the paper's presentation order.
func Backends() []Backend { return []Backend{Redis, FileSystem, Dragon, NodeLocal} }

// ErrNotStaged reports a key with no staged value yet; pollers treat it
// as "try again".
var ErrNotStaged = errors.New("datastore: key not staged")

// ErrStopped reports an operation on a file-backed deployment after its
// ServerManager stopped it.
var ErrStopped = errors.New("datastore: deployment stopped")

// Store is the uniform client API (the paper's DataStore class).
// Implementations are safe for concurrent use.
type Store interface {
	// StageWrite publishes value under key. Writes are atomic: a
	// concurrent StageRead sees either the whole value or ErrNotStaged.
	StageWrite(key string, value []byte) error
	// StageRead returns the staged value in a new buffer the caller
	// owns, or ErrNotStaged. It is StageReadInto(key, nil).
	StageRead(key string) ([]byte, error)
	// StageReadInto is StageRead append-style: the value lands in dst's
	// array when its capacity holds it (dst[:0] grown to the value), in
	// a new buffer otherwise. A reader that passes its previous result
	// back stops allocating once the buffer fits. The store keeps no
	// reference to dst or the result.
	StageReadInto(key string, dst []byte) ([]byte, error)
	// Poll reports whether key is currently staged (poll_staged_data).
	Poll(key string) (bool, error)
	// Clean removes the given keys; missing keys are ignored
	// (clean_staged_data). The Redis and Dragon stores send them as one
	// request or pipelined batch per server, not one round trip per key.
	Clean(keys ...string) error
	// Close releases client resources (servers are owned by the
	// ServerManager, not the client).
	Close() error
}

// ClientInfo is everything a client needs to connect to a running
// deployment. The ServerManager returns it from Start (the analogue of
// the paper's server.get_server_info()); it is JSON-serializable so
// remote components can receive it as launch metadata.
type ClientInfo struct {
	Backend Backend  `json:"backend"`
	Addrs   []string `json:"addrs,omitempty"`  // redis / dragon server addresses
	Dir     string   `json:"dir,omitempty"`    // node-local / filesystem root
	Shards  int      `json:"shards,omitempty"` // file-store shard count
	// live is the file-backed deployment's state, shared with the stores
	// Connect opens in this process; nil once the info went through JSON.
	live *liveness
}

// liveness is whether a file-backed deployment is still up. Removing its
// directory alone does not stop it: a write in flight can keep the
// directory in place, and then later operations succeed. So every
// operation of a store holds a read lock while it runs and fails once
// stopped is set, and the ServerManager sets stopped under the write
// lock before it removes the directory, when no operation is in flight.
type liveness struct {
	mu      sync.RWMutex
	stopped bool
}

// Connect opens a client Store for a running deployment.
func Connect(info ClientInfo) (Store, error) {
	switch info.Backend {
	case Redis:
		cl, err := redis.DialCluster(info.Addrs)
		if err != nil {
			return nil, err
		}
		return &redisStore{cluster: cl}, nil
	case Dragon:
		d, err := dragon.Dial(info.Addrs)
		if err != nil {
			return nil, err
		}
		return &dragonStore{dict: d}, nil
	case NodeLocal, FileSystem:
		s := &fsStore{live: info.live}
		if err := s.enter("connect", info.Dir); err != nil {
			return s, nil // a client of a stopped deployment: every operation fails
		}
		defer s.exit()
		var err error
		if s.store, err = fskv.Open(info.Dir, max(info.Shards, 1)); err != nil {
			return nil, err
		}
		return s, nil
	}
	return nil, fmt.Errorf("datastore: unknown backend %v", info.Backend)
}

// --- file-backed store (node-local and filesystem) ---

type fsStore struct {
	store *fskv.Store
	live  *liveness
}

// enter admits one operation on key, or fails it once the deployment is
// stopped; an admitted operation calls exit when it is done.
func (s *fsStore) enter(op, key string) error {
	if s.live == nil {
		return nil
	}
	s.live.mu.RLock()
	if s.live.stopped {
		s.live.mu.RUnlock()
		return fmt.Errorf("datastore: %s %q: %w", op, key, ErrStopped)
	}
	return nil
}

func (s *fsStore) exit() {
	if s.live != nil {
		s.live.mu.RUnlock()
	}
}

func (s *fsStore) StageWrite(key string, value []byte) error {
	if err := s.enter("write", key); err != nil {
		return err
	}
	defer s.exit()
	return s.store.Put(key, value)
}

func (s *fsStore) StageRead(key string) ([]byte, error) { return s.StageReadInto(key, nil) }

func (s *fsStore) StageReadInto(key string, dst []byte) ([]byte, error) {
	if err := s.enter("read", key); err != nil {
		return nil, err
	}
	defer s.exit()
	v, err := s.store.GetInto(key, dst)
	if errors.Is(err, fskv.ErrNotFound) {
		return nil, fmt.Errorf("%w: %q", ErrNotStaged, key)
	}
	return v, err
}

func (s *fsStore) Poll(key string) (bool, error) {
	if err := s.enter("poll", key); err != nil {
		return false, err
	}
	defer s.exit()
	return s.store.Exists(key), nil
}

func (s *fsStore) Clean(keys ...string) error {
	for _, k := range keys {
		if err := s.enter("clean", k); err != nil {
			return err
		}
		err := s.store.Delete(k)
		s.exit()
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *fsStore) Close() error { return nil }

// --- redis-backed store ---

type redisStore struct {
	cluster *redis.Cluster
}

func (s *redisStore) StageWrite(key string, value []byte) error {
	return s.cluster.Set(key, value)
}

func (s *redisStore) StageRead(key string) ([]byte, error) { return s.StageReadInto(key, nil) }

func (s *redisStore) StageReadInto(key string, dst []byte) ([]byte, error) {
	v, err := s.cluster.GetInto(key, dst)
	if errors.Is(err, redis.ErrNil) {
		return nil, fmt.Errorf("%w: %q", ErrNotStaged, key)
	}
	return v, err
}

func (s *redisStore) Poll(key string) (bool, error) { return s.cluster.Exists(key) }

func (s *redisStore) Clean(keys ...string) error { return s.cluster.Del(keys...) }

func (s *redisStore) Close() error { return s.cluster.Close() }

// --- dragon-backed store ---

type dragonStore struct {
	dict *dragon.Dict
}

func (s *dragonStore) StageWrite(key string, value []byte) error {
	return s.dict.Put(key, value)
}

func (s *dragonStore) StageRead(key string) ([]byte, error) { return s.StageReadInto(key, nil) }

func (s *dragonStore) StageReadInto(key string, dst []byte) ([]byte, error) {
	v, err := s.dict.GetInto(key, dst)
	if errors.Is(err, dragon.ErrNotFound) {
		return nil, fmt.Errorf("%w: %q", ErrNotStaged, key)
	}
	return v, err
}

func (s *dragonStore) Poll(key string) (bool, error) { return s.dict.Has(key) }

func (s *dragonStore) Clean(keys ...string) error { return s.dict.Del(keys...) }

func (s *dragonStore) Close() error { return s.dict.Close() }
