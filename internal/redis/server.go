package redis

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
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
	// values recycles data's large value buffers.
	values valuePool
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
		values:   valuePool{pins: make(map[*byte]pin)},
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
	r.alloc = s.values.get
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
		err = writeAndFlush(w, resp)
		s.values.unpin(resp.Bulk) // the reply's bytes are in the socket
		if err != nil {
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
	case "SET":
		if len(args) != 2 {
			return wrongArity(name)
		}
		// The bulk is this request's own buffer (see Reader.Read), so
		// the keyspace takes it over instead of copying it.
		key := args[0].Text()
		if old, ok := s.data[key]; ok {
			s.values.drop(old)
		}
		s.data[key] = args[1].Bulk
		return Simple("OK")
	case "GET":
		if len(args) != 1 {
			return wrongArity(name)
		}
		v, ok := s.data[args[0].Text()]
		if !ok {
			return NullBulk()
		}
		s.values.pin(v)
		return Bulk(v)
	case "DEL":
		n := int64(0)
		for _, a := range args {
			if v, ok := s.data[a.Text()]; ok {
				delete(s.data, a.Text())
				s.values.drop(v)
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
	default:
		return Errorf("ERR unknown command '%s'", name)
	}
}

// Value buffers of at least minPooledLen are recycled through a free
// list of at most maxFreeValues; smaller ones are left to the GC.
const (
	minPooledLen  = 64 << 10
	maxFreeValues = 8
)

// valuePool recycles the keyspace's large value buffers, so a steady
// stream of SETs over the same keys reuses a few buffers instead of
// allocating (and zeroing, and faulting in) a new one per request. A
// large buffer is at any time in exactly one of these places: the free
// list; a connection's reader, filling it (get); the keyspace; or, once
// the keyspace dropped it, the replies still being written from it. The
// executor pins a value when a GET reply carries it, and the
// connection unpins it once the reply is flushed, so a buffer returns to
// the free list only when the keyspace has dropped it and no reply holds
// it — a recycled value never reaches an in-flight reply.
type valuePool struct {
	mu   sync.Mutex
	free [][]byte
	pins map[*byte]pin // pinned buffers, by first byte
}

// pin counts the replies holding one buffer.
type pin struct {
	n       int
	dropped bool // left the keyspace while pinned: free on the last unpin
}

// pooled reports whether b is large enough to recycle.
func pooled(b []byte) bool { return cap(b) >= minPooledLen }

// get returns an n-byte buffer for a connection's reader: a free one
// with the capacity, or a new one.
func (p *valuePool) get(n int) []byte {
	if n >= minPooledLen {
		p.mu.Lock()
		for i, b := range p.free {
			if cap(b) >= n {
				last := len(p.free) - 1
				p.free[i], p.free[last] = p.free[last], nil
				p.free = p.free[:last]
				p.mu.Unlock()
				return b[:n]
			}
		}
		p.mu.Unlock()
	}
	return make([]byte, n)
}

// drop records that the keyspace no longer holds b (executor only).
func (p *valuePool) drop(b []byte) {
	if !pooled(b) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := unsafe.SliceData(b)
	if pn, ok := p.pins[k]; ok {
		pn.dropped = true
		p.pins[k] = pn
		return
	}
	p.release(b)
}

// pin records one more reply holding b (executor only).
func (p *valuePool) pin(b []byte) {
	if !pooled(b) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := unsafe.SliceData(b)
	pn := p.pins[k]
	pn.n++
	p.pins[k] = pn
}

// unpin releases the pin of a flushed reply's bulk b (nil for a reply
// that carries none).
func (p *valuePool) unpin(b []byte) {
	if !pooled(b) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := unsafe.SliceData(b)
	pn := p.pins[k]
	if pn.n--; pn.n > 0 {
		p.pins[k] = pn
		return
	}
	delete(p.pins, k)
	if pn.dropped {
		p.release(b)
	}
}

// release puts b on the free list, evicting the smallest buffer when the
// list is full. p.mu is held.
func (p *valuePool) release(b []byte) {
	p.free = append(p.free, b[:cap(b)])
	if len(p.free) <= maxFreeValues {
		return
	}
	small := 0
	for i, f := range p.free {
		if cap(f) < cap(p.free[small]) {
			small = i
		}
	}
	last := len(p.free) - 1
	p.free[small], p.free[last] = p.free[last], nil
	p.free = p.free[:last]
}

func wrongArity(cmd string) Value {
	return Errorf("ERR wrong number of arguments for '%s' command", strings.ToLower(cmd))
}
