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
// Keys lists are encoded as repeated [4B len][bytes] inside the payload.
const (
	statusOK byte = iota
	statusNotFound
	statusError
)

// maxWireValue bounds a single value (1 GiB) to catch corrupt frames.
const maxWireValue = 1 << 30

// Serve exposes manager m on ln until the listener closes. It returns
// once the accept loop exits; per-connection goroutines drain on their
// own.
func Serve(m *Manager, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
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

func serveConn(m *Manager, conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		op, key, value, err := readRequest(r)
		if err != nil {
			return
		}
		var status byte
		var payload []byte
		resp, err := m.call(managerReq{op: op, key: key, value: value})
		switch {
		case err != nil:
			status, payload = statusError, []byte(err.Error())
		case op == opGet && !resp.found:
			status = statusNotFound
		case op == opHas:
			if resp.found {
				payload = []byte{1}
			} else {
				payload = []byte{0}
			}
		case op == opGet:
			payload = resp.value
		case op == opKeys:
			payload = encodeKeys(resp.keys)
		case op == opLen:
			payload = make([]byte, 8)
			binary.BigEndian.PutUint64(payload, uint64(resp.n))
		}
		if err := writeResponse(w, status, payload); err != nil {
			return
		}
	}
}

func readRequest(r *bufio.Reader) (op managerOp, key string, value []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	op = managerOp(hdr[0])
	keyLen := binary.BigEndian.Uint32(hdr[1:])
	if keyLen > maxWireValue {
		err = fmt.Errorf("dragon: key length %d exceeds limit", keyLen)
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

func writeResponse(w *bufio.Writer, status byte, payload []byte) error {
	if err := w.WriteByte(status); err != nil {
		return err
	}
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(payload)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

func encodeKeys(keys []string) []byte {
	var out []byte
	var lenBuf [4]byte
	for _, k := range keys {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(k)))
		out = append(out, lenBuf[:]...)
		out = append(out, k...)
	}
	return out
}

func decodeKeys(payload []byte) ([]string, error) {
	var keys []string
	for len(payload) > 0 {
		if len(payload) < 4 {
			return nil, fmt.Errorf("dragon: truncated key list")
		}
		n := binary.BigEndian.Uint32(payload)
		payload = payload[4:]
		if uint32(len(payload)) < n {
			return nil, fmt.Errorf("dragon: truncated key")
		}
		keys = append(keys, string(payload[:n]))
		payload = payload[n:]
	}
	return keys, nil
}

// tcpEndpoint is a client connection to a remote manager. Safe for
// concurrent use; requests serialize over one connection.
type tcpEndpoint struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// DialEndpoint connects to a manager served at addr.
func DialEndpoint(addr string) (Endpoint, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dragon: dial %s: %w", addr, err)
	}
	return &tcpEndpoint{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

func (e *tcpEndpoint) roundTrip(op managerOp, key string, value []byte) (status byte, payload []byte, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var hdr [5]byte
	hdr[0] = byte(op)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(key)))
	if _, err = e.w.Write(hdr[:]); err != nil {
		return
	}
	if _, err = e.w.WriteString(key); err != nil {
		return
	}
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(value)))
	if _, err = e.w.Write(lenBuf[:]); err != nil {
		return
	}
	if _, err = e.w.Write(value); err != nil {
		return
	}
	if err = e.w.Flush(); err != nil {
		return
	}
	var shdr [9]byte
	if _, err = io.ReadFull(e.r, shdr[:]); err != nil {
		return
	}
	status = shdr[0]
	n := binary.BigEndian.Uint64(shdr[1:])
	if n > maxWireValue {
		err = fmt.Errorf("dragon: response length %d exceeds limit", n)
		return
	}
	payload = make([]byte, n)
	_, err = io.ReadFull(e.r, payload)
	return
}

func (e *tcpEndpoint) check(status byte, payload []byte, key string) error {
	switch status {
	case statusOK:
		return nil
	case statusNotFound:
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	default:
		return fmt.Errorf("dragon: server error: %s", payload)
	}
}

func (e *tcpEndpoint) Put(key string, value []byte) error {
	status, payload, err := e.roundTrip(opPut, key, value)
	if err != nil {
		return err
	}
	return e.check(status, payload, key)
}

func (e *tcpEndpoint) Get(key string) ([]byte, error) {
	status, payload, err := e.roundTrip(opGet, key, nil)
	if err != nil {
		return nil, err
	}
	if err := e.check(status, payload, key); err != nil {
		return nil, err
	}
	return payload, nil
}

func (e *tcpEndpoint) Del(key string) error {
	status, payload, err := e.roundTrip(opDel, key, nil)
	if err != nil {
		return err
	}
	return e.check(status, payload, key)
}

func (e *tcpEndpoint) Has(key string) (bool, error) {
	status, payload, err := e.roundTrip(opHas, key, nil)
	if err != nil {
		return false, err
	}
	if err := e.check(status, payload, key); err != nil {
		return false, err
	}
	return len(payload) == 1 && payload[0] == 1, nil
}

func (e *tcpEndpoint) Keys() ([]string, error) {
	status, payload, err := e.roundTrip(opKeys, "", nil)
	if err != nil {
		return nil, err
	}
	if err := e.check(status, payload, ""); err != nil {
		return nil, err
	}
	return decodeKeys(payload)
}

func (e *tcpEndpoint) Len() (int, error) {
	status, payload, err := e.roundTrip(opLen, "", nil)
	if err != nil {
		return 0, err
	}
	if err := e.check(status, payload, ""); err != nil {
		return 0, err
	}
	if len(payload) != 8 {
		return 0, fmt.Errorf("dragon: bad len payload")
	}
	return int(binary.BigEndian.Uint64(payload)), nil
}

func (e *tcpEndpoint) Close() error { return e.conn.Close() }
