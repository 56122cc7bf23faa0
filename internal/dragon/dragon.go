// Package dragon implements a DragonHPC-style distributed in-memory
// dictionary: values are sharded by key hash across a set of manager
// processes (one per node in the paper's deployments), and clients attach
// to all managers and route each operation directly to the owning shard.
//
// Two transports are provided, mirroring Dragon's channel abstraction:
// an in-process transport (goroutine + request channel per manager) used
// when client and manager share an address space, and a TCP transport
// with a compact length-prefixed binary protocol for cross-process use.
// The binary protocol deliberately has lower framing overhead than RESP,
// reflecting the paper's observation that Dragon outperforms Redis on
// raw throughput.
package dragon

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("dragon: key not found")

// ErrClosed reports use after Close.
var ErrClosed = errors.New("dragon: closed")

// Manager owns one shard of the dictionary. All operations funnel through
// a single serve goroutine over a request channel — the analogue of a
// Dragon channel endpoint — so shard state needs no locks.
type Manager struct {
	requests chan managerReq
	quit     chan struct{}
	done     chan struct{}
	data     map[string][]byte
	closed   sync.Once
}

type managerOp int

const (
	opPut managerOp = iota
	opGet
	opDel
	opHas
	opKeys
	opLen
)

type managerReq struct {
	op    managerOp
	key   string
	value []byte
	reply chan managerResp
}

type managerResp struct {
	value []byte
	keys  []string
	found bool
	n     int
}

// NewManager starts a manager with an empty shard.
func NewManager() *Manager {
	m := &Manager{
		requests: make(chan managerReq, 64),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		data:     make(map[string][]byte),
	}
	go m.serve()
	return m
}

func (m *Manager) serve() {
	defer close(m.done)
	for {
		select {
		case req := <-m.requests:
			req.reply <- m.handle(req)
		case <-m.quit:
			return
		}
	}
}

func (m *Manager) handle(req managerReq) managerResp {
	switch req.op {
	case opPut:
		buf := make([]byte, len(req.value))
		copy(buf, req.value)
		m.data[req.key] = buf
		return managerResp{found: true}
	case opGet:
		v, ok := m.data[req.key]
		if !ok {
			return managerResp{}
		}
		out := make([]byte, len(v))
		copy(out, v)
		return managerResp{value: out, found: true}
	case opDel:
		_, ok := m.data[req.key]
		delete(m.data, req.key)
		return managerResp{found: ok}
	case opHas:
		_, ok := m.data[req.key]
		return managerResp{found: ok}
	case opKeys:
		keys := make([]string, 0, len(m.data))
		for k := range m.data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return managerResp{keys: keys, found: true}
	case opLen:
		return managerResp{n: len(m.data), found: true}
	}
	return managerResp{}
}

// call performs one round trip to the serve goroutine.
func (m *Manager) call(req managerReq) (managerResp, error) {
	req.reply = make(chan managerResp, 1)
	select {
	case m.requests <- req:
	case <-m.quit:
		return managerResp{}, ErrClosed
	}
	select {
	case resp := <-req.reply:
		return resp, nil
	case <-m.quit:
		return managerResp{}, ErrClosed
	}
}

// Close stops the serve goroutine. Idempotent.
func (m *Manager) Close() {
	m.closed.Do(func() { close(m.quit) })
	<-m.done
}

// Endpoint is one attachable shard endpoint: either a local manager or a
// TCP connection to a remote one.
type Endpoint interface {
	Put(key string, value []byte) error
	Get(key string) ([]byte, error)
	Del(key string) error
	Has(key string) (bool, error)
	Keys() ([]string, error)
	Len() (int, error)
	Close() error
}

// localEndpoint adapts a Manager to the Endpoint interface in-process.
type localEndpoint struct{ m *Manager }

// Local returns an in-process endpoint for m.
func Local(m *Manager) Endpoint { return localEndpoint{m} }

func (e localEndpoint) Put(key string, value []byte) error {
	_, err := e.m.call(managerReq{op: opPut, key: key, value: value})
	return err
}

func (e localEndpoint) Get(key string) ([]byte, error) {
	resp, err := e.m.call(managerReq{op: opGet, key: key})
	if err != nil {
		return nil, err
	}
	if !resp.found {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return resp.value, nil
}

func (e localEndpoint) Del(key string) error {
	_, err := e.m.call(managerReq{op: opDel, key: key})
	return err
}

func (e localEndpoint) Has(key string) (bool, error) {
	resp, err := e.m.call(managerReq{op: opHas, key: key})
	return resp.found, err
}

func (e localEndpoint) Keys() ([]string, error) {
	resp, err := e.m.call(managerReq{op: opKeys})
	return resp.keys, err
}

func (e localEndpoint) Len() (int, error) {
	resp, err := e.m.call(managerReq{op: opLen})
	return resp.n, err
}

func (e localEndpoint) Close() error { return nil }

// Dict is the client view of the distributed dictionary: a set of
// endpoints (one per manager) with hash routing.
type Dict struct {
	eps []Endpoint
}

// Attach builds a dictionary over the given endpoints. Endpoint order
// must be identical across all clients for routing to agree.
func Attach(eps ...Endpoint) (*Dict, error) {
	if len(eps) == 0 {
		return nil, errors.New("dragon: attach needs at least one endpoint")
	}
	return &Dict{eps: eps}, nil
}

// Route returns the shard index for key (FNV-1a).
func (d *Dict) Route(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(d.eps)))
}

// Put stores value under key on its owning shard.
func (d *Dict) Put(key string, value []byte) error {
	return d.eps[d.Route(key)].Put(key, value)
}

// Get fetches key from its owning shard.
func (d *Dict) Get(key string) ([]byte, error) {
	return d.eps[d.Route(key)].Get(key)
}

// Del removes key.
func (d *Dict) Del(key string) error {
	return d.eps[d.Route(key)].Del(key)
}

// Has reports whether key is present.
func (d *Dict) Has(key string) (bool, error) {
	return d.eps[d.Route(key)].Has(key)
}

// Keys merges all shards' keys (each shard's keys are sorted; the merged
// result is globally sorted).
func (d *Dict) Keys() ([]string, error) {
	var all []string
	for _, ep := range d.eps {
		ks, err := ep.Keys()
		if err != nil {
			return nil, err
		}
		all = append(all, ks...)
	}
	sort.Strings(all)
	return all, nil
}

// Len sums shard sizes.
func (d *Dict) Len() (int, error) {
	total := 0
	for _, ep := range d.eps {
		n, err := ep.Len()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Close closes every endpoint.
func (d *Dict) Close() error {
	var first error
	for _, ep := range d.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
