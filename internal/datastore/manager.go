package datastore

import (
	"fmt"
	"net"
	"os"
	"path/filepath"

	"simaibench/internal/dragon"
	"simaibench/internal/redis"
)

// ServerConfig describes a deployment for the ServerManager: which
// backend, how many server instances (for in-memory stores, typically
// one per node, "as distinct instances or as a cluster"), and where
// file-backed stores should live.
type ServerConfig struct {
	Backend   Backend
	Instances int    // redis/dragon server count (default 1)
	Dir       string // node-local / filesystem root (default: temp dir)
	Shards    int    // file-store shards; the paper scales this with node count (default 1)
}

// ServerManager creates and configures data servers (the paper's
// ServerManager class): for in-memory backends it deploys server
// instances; for file-backed backends it establishes the directory
// structure. Stop tears everything down.
type ServerManager struct {
	cfg     ServerConfig
	info    ClientInfo
	redis   []*redis.Server
	mgrs    []*dragon.Manager
	lns     []net.Listener
	tempDir string
	started bool
}

// NewServerManager validates the configuration and returns a manager.
// Call Start to deploy.
func NewServerManager(cfg ServerConfig) (*ServerManager, error) {
	if cfg.Instances < 0 || cfg.Shards < 0 {
		return nil, fmt.Errorf("datastore: negative instances/shards")
	}
	if cfg.Instances == 0 {
		cfg.Instances = 1
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	return &ServerManager{cfg: cfg}, nil
}

// Start deploys the backend and returns connection info for clients.
func (m *ServerManager) Start() (ClientInfo, error) {
	if m.started {
		return m.info, nil
	}
	switch m.cfg.Backend {
	case Redis:
		for i := 0; i < m.cfg.Instances; i++ {
			s, err := redis.NewServer("127.0.0.1:0")
			if err != nil {
				m.Stop()
				return ClientInfo{}, err
			}
			m.redis = append(m.redis, s)
			m.info.Addrs = append(m.info.Addrs, s.Addr())
		}
	case Dragon:
		for i := 0; i < m.cfg.Instances; i++ {
			mgr := dragon.NewManager()
			ln, err := dragon.ListenAndServe(mgr, "127.0.0.1:0")
			if err != nil {
				mgr.Close()
				m.Stop()
				return ClientInfo{}, err
			}
			m.mgrs = append(m.mgrs, mgr)
			m.lns = append(m.lns, ln)
			m.info.Addrs = append(m.info.Addrs, ln.Addr().String())
		}
	case NodeLocal, FileSystem:
		dir := m.cfg.Dir
		if dir == "" {
			td, err := os.MkdirTemp("", "simaibench-"+m.cfg.Backend.String()+"-*")
			if err != nil {
				return ClientInfo{}, fmt.Errorf("datastore: temp dir: %w", err)
			}
			m.tempDir = td
			dir = td
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			return ClientInfo{}, fmt.Errorf("datastore: create %s: %w", dir, err)
		}
		m.info.Dir = dir
		m.info.Shards = m.cfg.Shards
		m.info.live = &liveness{}
	default:
		return ClientInfo{}, fmt.Errorf("datastore: unknown backend %v", m.cfg.Backend)
	}
	m.info.Backend = m.cfg.Backend
	m.started = true
	return m.info, nil
}

// Stop shuts down servers and removes manager-owned temp directories.
// Every later operation of a client of a file-backed deployment fails
// with ErrStopped. Idempotent.
func (m *ServerManager) Stop() error {
	var first error
	for _, s := range m.redis {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.redis = nil
	for _, ln := range m.lns {
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.lns = nil
	for _, mgr := range m.mgrs {
		mgr.Close()
	}
	m.mgrs = nil
	if l := m.info.live; l != nil {
		l.mu.Lock() // waits out the operations in flight
		l.stopped = true
		l.mu.Unlock()
		m.info.live = nil
	}
	if m.tempDir != "" {
		if err := os.RemoveAll(m.tempDir); err != nil && first == nil {
			first = err
		}
		m.tempDir = ""
	}
	m.started = false
	return first
}

// StartBackend is a convenience that deploys a backend with default
// sizing under baseDir (for file-backed stores) and returns manager and
// client info together. An empty baseDir gives a fresh manager-owned
// temporary directory, cleaned up by Stop.
func StartBackend(b Backend, baseDir string) (*ServerManager, ClientInfo, error) {
	cfg := ServerConfig{Backend: b}
	if baseDir != "" && (b == NodeLocal || b == FileSystem) {
		cfg.Dir = filepath.Join(baseDir, b.String())
	}
	m, err := NewServerManager(cfg)
	if err != nil {
		return nil, ClientInfo{}, err
	}
	info, err := m.Start()
	if err != nil {
		return nil, ClientInfo{}, err
	}
	return m, info, nil
}
