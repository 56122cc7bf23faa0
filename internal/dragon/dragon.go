// Package dragon implements a DragonHPC-style distributed in-memory
// dictionary: values are sharded by key hash across a set of manager
// processes (one per node in the paper's deployments), and clients attach
// to all managers and route each operation directly to the owning shard.
//
// Managers serve their shard over TCP with a compact length-prefixed
// binary protocol (tcp.go); Dial attaches a client to every manager.
// The binary protocol deliberately has lower framing overhead than RESP,
// reflecting the paper's observation that Dragon outperforms Redis on
// raw throughput.
package dragon

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("dragon: key not found")

// ErrClosed reports use after Close.
var ErrClosed = errors.New("dragon: closed")

// Manager owns one shard of the dictionary: a map behind one mutex, so
// the shard serves one operation at a time. A put keeps the request's
// own buffer and a get hands out the stored slice: a stored value is
// never written again (a put replaces the entry), so the slice stays
// valid to write to a socket after the lock is released.
type Manager struct {
	mu   sync.Mutex
	data map[string][]byte // nil once closed
	// conns are the connections Serve is answering; Close hangs them
	// up and waits for their goroutines.
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// The operations a request names.
const (
	opPut byte = iota
	opGet
	opDel
	opHas
)

// NewManager returns a manager with an empty shard.
func NewManager() *Manager {
	return &Manager{data: make(map[string][]byte), conns: make(map[net.Conn]struct{})}
}

// handle applies one request to the shard and returns the response's
// status and payload.
func (m *Manager) handle(op byte, key string, value []byte) (status byte, payload []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.data == nil {
		return statusError, []byte(ErrClosed.Error())
	}
	switch op {
	case opPut:
		m.data[key] = value
		return statusOK, nil
	case opGet:
		v, ok := m.data[key]
		if !ok {
			return statusNotFound, nil
		}
		return statusOK, v
	case opDel:
		delete(m.data, key)
		return statusOK, nil
	case opHas:
		_, ok := m.data[key]
		if ok {
			return statusOK, []byte{1}
		}
		return statusOK, []byte{0}
	}
	return statusError, fmt.Appendf(nil, "dragon: unknown op %d", op)
}

// Close drops the shard, hangs up every connection it serves and waits
// for their goroutines to end; a client's next call gets ErrClosed.
// Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	m.data = nil
	for c := range m.conns {
		c.Close()
	}
	m.conns = nil
	m.mu.Unlock()
	m.wg.Wait()
}

// track registers a connection Serve is about to answer, reporting
// false once the manager is closed.
func (m *Manager) track(c net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.data == nil {
		return false
	}
	m.conns[c] = struct{}{}
	m.wg.Add(1)
	return true
}

// untrack ends a connection's registration when its goroutine exits.
func (m *Manager) untrack(c net.Conn) {
	m.mu.Lock()
	delete(m.conns, c)
	m.mu.Unlock()
	m.wg.Done()
}

// Dict is the client view of the distributed dictionary: one connection
// per manager, with hash routing. It is safe for concurrent use;
// requests to one manager serialize over its connection.
type Dict struct {
	shards []*managerConn
}

// Dial attaches to the managers served at addrs. Address order must be
// identical across all clients for routing to agree.
func Dial(addrs []string) (*Dict, error) {
	if len(addrs) == 0 {
		return nil, errors.New("dragon: dial needs at least one manager address")
	}
	d := &Dict{}
	for _, a := range addrs {
		c, err := net.Dial("tcp", a)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("dragon: dial %s: %w", a, err)
		}
		d.shards = append(d.shards, newManagerConn(c))
	}
	return d, nil
}

// Route returns the shard index for key (FNV-1a).
func (d *Dict) Route(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(d.shards)))
}

// do sends one request to key's shard and returns the response payload,
// read into dst when its capacity holds it.
func (d *Dict) do(op byte, key string, value, dst []byte) ([]byte, error) {
	status, payload, err := d.shards[d.Route(key)].roundTrip(op, key, value, dst)
	if err != nil {
		return nil, err
	}
	switch status {
	case statusOK:
		return payload, nil
	case statusNotFound:
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return nil, fmt.Errorf("dragon: server error: %s", payload)
}

// Put stores value under key on its owning shard.
func (d *Dict) Put(key string, value []byte) error {
	_, err := d.do(opPut, key, value, nil)
	return err
}

// GetInto fetches key from its owning shard append-style: the value is
// read off the socket straight into dst's array when its capacity holds
// it, and into a new buffer otherwise. The result is the caller's; the
// client keeps no reference to dst.
func (d *Dict) GetInto(key string, dst []byte) ([]byte, error) { return d.do(opGet, key, nil, dst) }

// Del removes keys; a missing key is not an error. The keys a manager
// owns go to it as one pipelined batch, so many keys cost about one
// round trip per manager, not one per key.
func (d *Dict) Del(keys ...string) error {
	shards := make([][]string, len(d.shards))
	for _, k := range keys {
		i := d.Route(k)
		shards[i] = append(shards[i], k)
	}
	for i, ks := range shards {
		if err := d.shards[i].delAll(ks); err != nil {
			return err
		}
	}
	return nil
}

// Has reports whether key is present.
func (d *Dict) Has(key string) (bool, error) {
	payload, err := d.do(opHas, key, nil, nil)
	return len(payload) == 1 && payload[0] == 1, err
}

// Close closes every manager connection.
func (d *Dict) Close() error {
	var first error
	for _, c := range d.shards {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
