package redis

import (
	"fmt"
	"net"

	"strings"
	"sync"
	"sync/atomic"
)

// Server is a mini Redis server: a TCP listener whose connections feed a
// single command-execution goroutine, mirroring Redis's single-threaded
// event loop — the serialization point that shapes the backend's
// performance profile in the paper's experiments.
type Server struct {
	ln       net.Listener
	requests chan request
	quit     chan struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool

	// data is owned exclusively by the executor goroutine.
	data map[string][]byte
}

type request struct {
	cmd   []Value
	reply chan Value
}

// NewServer starts a server listening on addr ("127.0.0.1:0" for an
// ephemeral port). Use Addr to discover the bound address.
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("redis: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:       ln,
		requests: make(chan request, 128),
		quit:     make(chan struct{}),
		data:     make(map[string][]byte),
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.executor()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, the executor, and all connections.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.quit)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	go func() { // unblock reads on shutdown
		<-s.quit
		conn.Close()
	}()
	r := NewReader(conn)
	w := NewWriter(conn)
	reply := make(chan Value, 1)
	for {
		v, err := r.Read()
		if err != nil {
			return
		}
		if v.Kind != KindArray || len(v.Array) == 0 {
			if werr := writeAndFlush(w, Errorf("ERR invalid request")); werr != nil {
				return
			}
			continue
		}
		select {
		case s.requests <- request{cmd: v.Array, reply: reply}:
		case <-s.quit:
			return
		}
		var resp Value
		select {
		case resp = <-reply:
		case <-s.quit:
			return
		}
		if err := writeAndFlush(w, resp); err != nil {
			return
		}
	}
}

func writeAndFlush(w *Writer, v Value) error {
	if err := w.Write(v); err != nil {
		return err
	}
	return w.Flush()
}

// executor is the single-threaded command loop that owns the keyspace.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		select {
		case req := <-s.requests:
			req.reply <- s.execute(req.cmd)
		case <-s.quit:
			return
		}
	}
}

func (s *Server) execute(cmd []Value) Value {
	name := strings.ToUpper(cmd[0].Text())
	args := cmd[1:]
	switch name {
	case "ECHO":
		if len(args) != 1 {
			return wrongArity(name)
		}
		return Bulk(args[0].Bulk)
	case "SET":
		if len(args) != 2 {
			return wrongArity(name)
		}
		// The bulk is this request's own buffer (see Reader.Read), so
		// the keyspace takes it over instead of copying it.
		s.data[args[0].Text()] = args[1].Bulk
		return Simple("OK")
	case "GET":
		if len(args) != 1 {
			return wrongArity(name)
		}
		v, ok := s.data[args[0].Text()]
		if !ok {
			return NullBulk()
		}
		return Bulk(v)
	case "DEL":
		n := int64(0)
		for _, a := range args {
			if _, ok := s.data[a.Text()]; ok {
				delete(s.data, a.Text())
				n++
			}
		}
		return Integer(n)
	case "EXISTS":
		n := int64(0)
		for _, a := range args {
			if _, ok := s.data[a.Text()]; ok {
				n++
			}
		}
		return Integer(n)
	case "KEYS":
		if len(args) != 1 {
			return wrongArity(name)
		}
		pattern := args[0].Text()
		var out []Value
		for k := range s.data {
			if globMatch(pattern, k) {
				out = append(out, BulkString(k))
			}
		}
		return Array(out...)
	case "MSET":
		if len(args) == 0 || len(args)%2 != 0 {
			return wrongArity(name)
		}
		for i := 0; i < len(args); i += 2 {
			s.data[args[i].Text()] = args[i+1].Bulk // owned, as in SET
		}
		return Simple("OK")
	case "MGET":
		out := make([]Value, len(args))
		for i, a := range args {
			if v, ok := s.data[a.Text()]; ok {
				out[i] = Bulk(v)
			} else {
				out[i] = NullBulk()
			}
		}
		return Value{Kind: KindArray, Array: out}
	default:
		return Errorf("ERR unknown command '%s'", name)
	}
}

// globMatch implements Redis-style glob matching: '*' matches any run of
// characters (including separators, unlike filepath.Match), '?' matches
// one character, everything else is literal.
func globMatch(pattern, s string) bool {
	// Iterative wildcard matching with backtracking to the last '*'.
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '*':
			star, mark = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

func wrongArity(cmd string) Value {
	return Errorf("ERR wrong number of arguments for '%s' command", strings.ToLower(cmd))
}
