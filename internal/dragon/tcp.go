package dragon

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// Wire protocol: a request is
//
//	[1B op][4B key length][key bytes][8B value length][value bytes]
//
// and a response is
//
//	[1B status][8B payload length][payload]
//
// Status 0 = ok, 1 = not found, 2 = error (payload is the message).
const (
	statusOK byte = iota
	statusNotFound
	statusError
)

// Frame limits, checked before anything is allocated for a frame:
// maxWireKey bounds a key (as internal/stream bounds a stream name) and
// maxWireValue a value or payload (1 GiB).
const (
	maxWireKey   = 1 << 16
	maxWireValue = 1 << 30
)

// Serve exposes manager m on ln until the listener closes. It returns
// once the accept loop exits; a connection's goroutine ends when its
// client hangs up or m is closed.
func Serve(m *Manager, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !m.track(conn) {
			conn.Close()
			continue
		}
		go serveConn(m, conn)
	}
}

// ListenAndServe starts a manager server on addr, returning the bound
// listener (close it to stop).
func ListenAndServe(m *Manager, addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dragon: listen %s: %w", addr, err)
	}
	go Serve(m, ln)
	return ln, nil
}

// serveConn answers one connection's requests in order until it closes
// or sends a frame that cannot be decoded.
func serveConn(m *Manager, conn net.Conn) {
	defer m.untrack(conn)
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		op, key, value, err := readRequest(r)
		if err != nil {
			return
		}
		status, payload := m.handle(op, key, value)
		if err := writeResponse(w, status, payload); err != nil {
			return
		}
	}
}

// readRequest decodes one request. The value is a new buffer the caller
// owns.
func readRequest(r *bufio.Reader) (op byte, key string, value []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	op = hdr[0]
	keyLen := binary.BigEndian.Uint32(hdr[1:])
	if keyLen > maxWireKey {
		err = fmt.Errorf("dragon: key length %d exceeds limit %d", keyLen, maxWireKey)
		return
	}
	keyBuf := make([]byte, keyLen)
	if _, err = io.ReadFull(r, keyBuf); err != nil {
		return
	}
	var lenBuf [8]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return
	}
	valLen := binary.BigEndian.Uint64(lenBuf[:])
	if valLen > maxWireValue {
		err = fmt.Errorf("dragon: value length %d exceeds limit", valLen)
		return
	}
	value = make([]byte, valLen)
	if _, err = io.ReadFull(r, value); err != nil {
		return
	}
	return op, string(keyBuf), value, nil
}

// writeRequest encodes one request and flushes it.
func writeRequest(w *bufio.Writer, op byte, key string, value []byte) error {
	hdr := binary.BigEndian.AppendUint32(append(w.AvailableBuffer(), op), uint32(len(key)))
	w.Write(hdr)
	w.WriteString(key)
	w.Write(binary.BigEndian.AppendUint64(w.AvailableBuffer(), uint64(len(value))))
	w.Write(value)
	return w.Flush() // a failed write sticks in w, so Flush reports it
}

func writeResponse(w *bufio.Writer, status byte, payload []byte) error {
	hdr := binary.BigEndian.AppendUint64(append(w.AvailableBuffer(), status), uint64(len(payload)))
	w.Write(hdr)
	w.Write(payload)
	return w.Flush()
}

// managerConn is a client connection to one manager. Safe for
// concurrent use; requests serialize over the one connection.
type managerConn struct {
	mu sync.Mutex
	c  net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
}

func newManagerConn(c net.Conn) *managerConn {
	return &managerConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// roundTrip sends one request and reads its response into dst, as
// readResponse does.
func (c *managerConn) roundTrip(op byte, key string, value, dst []byte) (status byte, payload []byte, err error) {
	if len(key) > maxWireKey {
		return 0, nil, fmt.Errorf("dragon: key length %d exceeds limit %d", len(key), maxWireKey)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err = writeRequest(c.w, op, key, value); err != nil {
		return 0, nil, hungUp(err)
	}
	return c.readResponse(dst)
}

// pipelineDepth bounds the requests delAll writes before it reads their
// responses, so the responses not yet read fit in the socket buffers and
// the manager never blocks writing one while the client writes on.
const pipelineDepth = 256

// delAll deletes keys pipelined: up to pipelineDepth requests go out
// before their responses are read. Every response is read, so the
// connection stays in step; the first error status is returned.
func (c *managerConn) delAll(keys []string) (first error) {
	for _, k := range keys {
		if len(k) > maxWireKey {
			return fmt.Errorf("dragon: key length %d exceeds limit %d", len(k), maxWireKey)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(keys) > 0 {
		batch := keys[:min(len(keys), pipelineDepth)]
		keys = keys[len(batch):]
		for _, k := range batch {
			if err := writeRequest(c.w, opDel, k, nil); err != nil {
				return hungUp(err)
			}
		}
		for range batch {
			status, payload, err := c.readResponse(nil)
			if err != nil {
				return err
			}
			if status != statusOK && first == nil {
				first = fmt.Errorf("dragon: server error: %s", payload)
			}
		}
	}
	return first
}

// readResponse reads one response. The payload lands in dst's array when
// its capacity holds it, in a new buffer otherwise.
func (c *managerConn) readResponse(dst []byte) (status byte, payload []byte, err error) {
	var hdr [9]byte
	if _, err = io.ReadFull(c.r, hdr[:]); err != nil {
		return 0, nil, hungUp(err)
	}
	n := binary.BigEndian.Uint64(hdr[1:])
	if n > maxWireValue {
		return 0, nil, fmt.Errorf("dragon: response length %d exceeds limit", n)
	}
	if dst == nil || uint64(cap(dst)) < n {
		dst = make([]byte, n)
	}
	payload = dst[:n]
	if _, err = io.ReadFull(c.r, payload); err != nil {
		return 0, nil, hungUp(err)
	}
	return hdr[0], payload, nil
}

func (c *managerConn) Close() error { return c.c.Close() }

// hungUp reports a request the connection could not carry: a closed
// manager hangs up on its clients, so to the caller it is ErrClosed.
func hungUp(err error) error { return fmt.Errorf("%w: connection lost: %w", ErrClosed, err) }
