package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
)

// TCP framing: a stream is a sequence of records, each opened by a 4-byte
// word that is a name length or a mark:
//
//	variable:     [4B name length][name][8B data length][data]
//	end of step:  [4B endOfStepMark][8B step index]
//	end of stream:[4B endOfStreamMark]
//
// The writer sends each variable as it is Put and the end-of-step record
// at EndStep, so a payload goes from the caller's buffer to the socket
// with no staging copy. Backpressure comes from TCP flow control.
const (
	endOfStepMark   = ^uint32(0) - 1
	endOfStreamMark = ^uint32(0)
)

// Frame bounds: a reader allocates what a header announces before the
// bytes arrive, so every announced size is checked first. One variable
// payload may be 1 GiB; names and the variables of one step get limits
// no real step comes near, and a corrupt or hostile header cannot cost
// more.
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
	hdr  [12]byte // record header scratch (a local would escape through the socket write)
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
	return &OpenStep{step: &Step{Index: idx}, sink: t}, nil
}

// put writes one variable record.
func (t *TCPWriter) put(_ *Step, name string, data []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrClosed
	}
	binary.BigEndian.PutUint32(t.hdr[:4], uint32(len(name)))
	if _, err := t.w.Write(t.hdr[:4]); err != nil {
		return err
	}
	if _, err := t.w.WriteString(name); err != nil {
		return err
	}
	binary.BigEndian.PutUint64(t.hdr[:8], uint64(len(data)))
	if _, err := t.w.Write(t.hdr[:8]); err != nil {
		return err
	}
	_, err := t.w.Write(data)
	return err
}

// commit writes the end-of-step record and flushes.
func (t *TCPWriter) commit(s *Step) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open = false
	if t.done {
		return ErrClosed
	}
	binary.BigEndian.PutUint32(t.hdr[:4], endOfStepMark)
	binary.BigEndian.PutUint64(t.hdr[4:], uint64(s.Index))
	if _, err := t.w.Write(t.hdr[:]); err != nil {
		return err
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
		binary.BigEndian.PutUint32(t.hdr[:4], endOfStreamMark)
		t.w.Write(t.hdr[:4])
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
	last *Step    // returned by the last NextStep; its payloads are recycled by the next
	free freeList // payload buffers of consumed steps
	name []byte   // name scratch
	word [8]byte  // fixed-size field scratch (a local would escape through io.ReadFull)
}

// DialTCP connects to a stream writer.
func DialTCP(addr string) (*TCPReader, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %s: %w", addr, err)
	}
	return &TCPReader{conn: conn, r: bufio.NewReaderSize(conn, 1<<16)}, nil
}

// NextStep blocks for the next framed step. Payloads are read into the
// buffers of the step it returned last.
func (t *TCPReader) NextStep() (*Step, error) {
	if t.done {
		return nil, ErrDone
	}
	t.free.putStep(t.last)
	t.last = nil
	s := &Step{vars: map[string][]byte{}}
	for nvars := 0; ; nvars++ {
		if _, err := io.ReadFull(t.r, t.word[:4]); err != nil {
			if nvars == 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
				t.done = true
				return nil, ErrDone
			}
			return nil, err
		}
		nameLen := binary.BigEndian.Uint32(t.word[:4])
		switch nameLen {
		case endOfStreamMark:
			t.done = true
			t.free.putStep(s)
			return nil, ErrDone
		case endOfStepMark:
			if _, err := io.ReadFull(t.r, t.word[:]); err != nil {
				return nil, err
			}
			s.Index = int(binary.BigEndian.Uint64(t.word[:]))
			t.last = s
			return s, nil
		}
		if nvars == maxStreamVars {
			return nil, fmt.Errorf("stream: variable count exceeds limit %d", maxStreamVars)
		}
		if nameLen > maxStreamName {
			return nil, fmt.Errorf("stream: name length %d exceeds limit %d", nameLen, maxStreamName)
		}
		t.name = slices.Grow(t.name[:0], int(nameLen))[:nameLen]
		if _, err := io.ReadFull(t.r, t.name); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(t.r, t.word[:]); err != nil {
			return nil, err
		}
		dataLen := binary.BigEndian.Uint64(t.word[:])
		if dataLen > maxStreamVar {
			return nil, fmt.Errorf("stream: var %q data length %d exceeds limit %d", t.name, dataLen, maxStreamVar)
		}
		data := t.free.get(int(dataLen))
		if _, err := io.ReadFull(t.r, data); err != nil {
			return nil, err
		}
		name := string(t.name)
		if old, ok := s.vars[name]; ok {
			t.free.put(old)
		}
		s.vars[name] = data
	}
}

// Close releases the connection.
func (t *TCPReader) Close() error {
	t.done = true
	return t.conn.Close()
}
