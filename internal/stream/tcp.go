package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCP framing: each step is
//
//	[8B step index][4B var count]
//	repeated: [4B name length][name][8B data length][data]
//
// followed by the next step; a frame with var count 0xFFFFFFFF marks
// end-of-stream. Backpressure comes from TCP flow control plus the
// writer-side bounded queue.
const endOfStreamMark = ^uint32(0)

// Frame bounds: a reader allocates what a header announces before the
// bytes arrive, so every announced size is checked first. One variable
// payload may be 1 GiB; names and the variable count get limits no real
// step comes near, and a corrupt or hostile header cannot cost more.
const (
	maxStreamVar  = 1 << 30
	maxStreamName = 1 << 16
	maxStreamVars = 1 << 16
)

// TCPWriter serves a stream to exactly one reader over TCP.
type TCPWriter struct {
	ln   net.Listener
	mu   sync.Mutex
	conn net.Conn
	w    *bufio.Writer
	next int
	open bool
	done bool
}

// ListenTCP starts a stream writer on addr; the returned writer's
// BeginStep blocks until a reader connects.
func ListenTCP(addr string) (*TCPWriter, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: listen %s: %w", addr, err)
	}
	return &TCPWriter{ln: ln}, nil
}

// Addr returns the bound address readers dial.
func (t *TCPWriter) Addr() string { return t.ln.Addr().String() }

// ensureConn accepts the reader connection lazily.
func (t *TCPWriter) ensureConn() error {
	if t.conn != nil {
		return nil
	}
	conn, err := t.ln.Accept()
	if err != nil {
		return fmt.Errorf("stream: accept: %w", err)
	}
	t.conn = conn
	t.w = bufio.NewWriterSize(conn, 1<<16)
	return nil
}

// BeginStep starts the next step (accepting the reader on first use).
func (t *TCPWriter) BeginStep() (*OpenStep, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, ErrClosed
	}
	if t.open {
		return nil, fmt.Errorf("stream: BeginStep with a step already open")
	}
	if err := t.ensureConn(); err != nil {
		return nil, err
	}
	t.open = true
	idx := t.next
	t.next++
	return &OpenStep{
		step:   &Step{Index: idx, vars: map[string][]byte{}},
		commit: t.commit,
	}, nil
}

func (t *TCPWriter) commit(s *Step) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open = false
	if t.done {
		return ErrClosed
	}
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(s.Index))
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(s.vars)))
	if _, err := t.w.Write(hdr[:]); err != nil {
		return err
	}
	for _, name := range s.Vars() {
		data := s.vars[name]
		var nl [4]byte
		binary.BigEndian.PutUint32(nl[:], uint32(len(name)))
		if _, err := t.w.Write(nl[:]); err != nil {
			return err
		}
		if _, err := t.w.WriteString(name); err != nil {
			return err
		}
		var dl [8]byte
		binary.BigEndian.PutUint64(dl[:], uint64(len(data)))
		if _, err := t.w.Write(dl[:]); err != nil {
			return err
		}
		if _, err := t.w.Write(data); err != nil {
			return err
		}
	}
	return t.w.Flush()
}

// Close marks end-of-stream and tears down the listener.
func (t *TCPWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil
	}
	t.done = true
	if t.w != nil {
		var hdr [12]byte
		binary.BigEndian.PutUint32(hdr[8:], endOfStreamMark)
		t.w.Write(hdr[:])
		t.w.Flush()
	}
	if t.conn != nil {
		t.conn.Close()
	}
	return t.ln.Close()
}

// TCPReader consumes a stream over TCP.
type TCPReader struct {
	conn net.Conn
	r    *bufio.Reader
	done bool
}

// DialTCP connects to a stream writer.
func DialTCP(addr string) (*TCPReader, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %s: %w", addr, err)
	}
	return &TCPReader{conn: conn, r: bufio.NewReaderSize(conn, 1<<16)}, nil
}

// NextStep blocks for the next framed step.
func (t *TCPReader) NextStep() (*Step, error) {
	if t.done {
		return nil, ErrDone
	}
	var hdr [12]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			t.done = true
			return nil, ErrDone
		}
		return nil, err
	}
	nvars := binary.BigEndian.Uint32(hdr[8:])
	if nvars == endOfStreamMark {
		t.done = true
		return nil, ErrDone
	}
	if nvars > maxStreamVars {
		return nil, fmt.Errorf("stream: variable count %d exceeds limit %d", nvars, maxStreamVars)
	}
	s := &Step{Index: int(binary.BigEndian.Uint64(hdr[:8])), vars: map[string][]byte{}}
	for i := uint32(0); i < nvars; i++ {
		var nl [4]byte
		if _, err := io.ReadFull(t.r, nl[:]); err != nil {
			return nil, err
		}
		nameLen := binary.BigEndian.Uint32(nl[:])
		if nameLen > maxStreamName {
			return nil, fmt.Errorf("stream: name length %d exceeds limit %d", nameLen, maxStreamName)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(t.r, name); err != nil {
			return nil, err
		}
		var dl [8]byte
		if _, err := io.ReadFull(t.r, dl[:]); err != nil {
			return nil, err
		}
		dataLen := binary.BigEndian.Uint64(dl[:])
		if dataLen > maxStreamVar {
			return nil, fmt.Errorf("stream: var %q data length %d exceeds limit %d", name, dataLen, maxStreamVar)
		}
		data := make([]byte, dataLen)
		if _, err := io.ReadFull(t.r, data); err != nil {
			return nil, err
		}
		s.vars[string(name)] = data
	}
	return s, nil
}

// Close releases the connection.
func (t *TCPReader) Close() error {
	t.done = true
	return t.conn.Close()
}
