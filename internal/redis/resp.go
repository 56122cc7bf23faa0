// Package redis implements a from-scratch, wire-compatible subset of the
// Redis in-memory key-value store: the RESP2 protocol, a TCP server with
// Redis's single-threaded command-execution model, a pipelining client,
// and client-side sharded "cluster" deployment.
//
// It stands in for the production Redis that the paper's original
// workflow (SmartSim/nekRS-ML) uses as its data-transport backend. Only
// the command set the DataStore layer needs is implemented, but the
// protocol framing is the real one, so the costs being benchmarked
// (serialization, socket hops, server event-loop serialization) are the
// same in kind as the original's.
package redis

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Value is one RESP protocol value. Exactly one interpretation is active,
// chosen by Kind.
type Value struct {
	Kind  Kind
	Str   string  // Simple, Error
	Int   int64   // Integer
	Bulk  []byte  // Bulk (nil means null bulk string)
	Array []Value // Array
	Null  bool    // null bulk string / null array
}

// Kind discriminates RESP value types.
type Kind int

// RESP value kinds.
const (
	KindSimple Kind = iota
	KindError
	KindInteger
	KindBulk
	KindArray
)

// Convenience constructors.
func Simple(s string) Value { return Value{Kind: KindSimple, Str: s} }
func Errorf(format string, args ...any) Value {
	return Value{Kind: KindError, Str: fmt.Sprintf(format, args...)}
}
func Integer(n int64) Value { return Value{Kind: KindInteger, Int: n} }
func Bulk(b []byte) Value   { return Value{Kind: KindBulk, Bulk: b} }
func NullBulk() Value       { return Value{Kind: KindBulk, Null: true} }

// IsNull reports whether v is a RESP null.
func (v Value) IsNull() bool { return v.Null }

// Text returns a best-effort string form of v (bulk payload, simple
// string, or integer digits).
func (v Value) Text() string {
	switch v.Kind {
	case KindBulk:
		return string(v.Bulk)
	case KindSimple, KindError:
		return v.Str
	case KindInteger:
		return strconv.FormatInt(v.Int, 10)
	}
	return ""
}

// ErrProtocol reports malformed RESP input.
var ErrProtocol = errors.New("redis: protocol error")

// Frame limits, checked before anything is allocated for a frame.
// maxBulkLen is Redis's own proto-max-bulk-len default (512 MB); an
// array header is bounded separately because each element costs a Value
// (88 B) up front, and nesting is bounded because each level costs a
// stack frame. No command used here comes near either array limit.
const (
	maxBulkLen  = 512 << 20
	maxArrayLen = 1 << 20
	maxDepth    = 32
)

// Writer encodes RESP values onto a stream.
type Writer struct {
	w *bufio.Writer
}

// NewWriter returns a RESP writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write encodes one value. Call Flush to push buffered bytes.
func (w *Writer) Write(v Value) error {
	switch v.Kind {
	case KindSimple:
		w.w.WriteByte('+')
		w.w.WriteString(v.Str)
	case KindError:
		w.w.WriteByte('-')
		w.w.WriteString(v.Str)
	case KindInteger:
		w.w.WriteByte(':')
		w.w.WriteString(strconv.FormatInt(v.Int, 10))
	case KindBulk:
		if v.Null {
			w.w.WriteString("$-1")
		} else {
			w.header('$', len(v.Bulk))
			w.w.Write(v.Bulk)
		}
	case KindArray:
		if v.Null {
			w.w.WriteString("*-1")
		} else {
			w.header('*', len(v.Array))
			for _, el := range v.Array {
				if err := w.Write(el); err != nil {
					return err
				}
			}
			return nil // elements already terminated
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrProtocol, v.Kind)
	}
	_, err := w.w.WriteString("\r\n")
	return err
}

// header writes a type byte, a decimal length and CRLF.
func (w *Writer) header(kind byte, n int) {
	b := strconv.AppendInt(append(w.w.AvailableBuffer(), kind), int64(n), 10)
	w.w.Write(append(b, '\r', '\n'))
}

// bulkString writes s as a bulk string, as Write(Bulk([]byte(s))) does
// without copying s. Errors stick in the buffered writer until Flush.
func (w *Writer) bulkString(s string) {
	w.header('$', len(s))
	w.w.WriteString(s)
	w.w.WriteString("\r\n")
}

// Flush pushes buffered output to the underlying stream.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes RESP values from a stream.
type Reader struct {
	r *bufio.Reader
	// alloc, when set, supplies the buffer of each decoded bulk in place
	// of make; it must return n bytes the reader may overwrite.
	alloc func(n int) []byte
}

// NewReader returns a RESP reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Read decodes one value. Every Bulk is a buffer the caller owns: the
// reader keeps no reference to it and never hands it out twice. It comes
// from make, or from the reader's alloc when one is set — the server's
// connections take large bulks from the keyspace's free list (see
// valuePool), and SET stores them without copying.
func (r *Reader) Read() (Value, error) { return r.read(0) }

func (r *Reader) read(depth int) (Value, error) {
	t, err := r.r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch t {
	case '+':
		s, err := r.line()
		if string(s) == "OK" {
			return Simple("OK"), err // every SET's reply: one shared string
		}
		return Value{Kind: KindSimple, Str: string(s)}, err
	case '-':
		s, err := r.line()
		return Value{Kind: KindError, Str: string(s)}, err
	case ':':
		s, err := r.line()
		if err != nil {
			return Value{}, err
		}
		n, err := strconv.ParseInt(string(s), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad integer %q", ErrProtocol, s)
		}
		return Integer(n), nil
	case '$':
		return r.bulk(nil)
	case '*':
		if depth >= maxDepth {
			return Value{}, fmt.Errorf("%w: arrays nested deeper than %d", ErrProtocol, maxDepth)
		}
		n, err := r.length()
		if err != nil {
			return Value{}, err
		}
		if n < 0 {
			return Value{Kind: KindArray, Null: true}, nil
		}
		if n > maxArrayLen {
			return Value{}, fmt.Errorf("%w: array of %d elements exceeds limit %d", ErrProtocol, n, maxArrayLen)
		}
		arr := make([]Value, n)
		for i := range arr {
			arr[i], err = r.read(depth + 1)
			if err != nil {
				return Value{}, err
			}
		}
		return Value{Kind: KindArray, Array: arr}, nil
	default:
		return Value{}, fmt.Errorf("%w: unexpected type byte %q", ErrProtocol, t)
	}
}

// readBulkInto decodes one reply. A bulk string is read into dst's array
// when its capacity holds the payload (append-style: dst[:0] grown to
// the payload), into a new buffer otherwise; any other reply is decoded
// as Read does.
func (r *Reader) readBulkInto(dst []byte) (Value, error) {
	t, err := r.r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	if t != '$' {
		r.r.UnreadByte()
		return r.Read()
	}
	return r.bulk(dst)
}

// bulk reads the rest of a bulk string whose '$' is consumed, into dst
// when it has the capacity and into a new buffer otherwise.
func (r *Reader) bulk(dst []byte) (Value, error) {
	n, err := r.length()
	if err != nil {
		return Value{}, err
	}
	if n < 0 {
		return NullBulk(), nil
	}
	var buf []byte
	switch {
	case dst != nil && cap(dst) >= n:
		buf = dst[:n]
	case r.alloc != nil:
		buf = r.alloc(n)
	default:
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return Value{}, err
	}
	cr, err := r.r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	lf, err := r.r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	if cr != '\r' || lf != '\n' {
		return Value{}, fmt.Errorf("%w: bulk not CRLF-terminated", ErrProtocol)
	}
	return Bulk(buf), nil
}

// line reads one CRLF-terminated line (without the terminator). The
// slice aliases the reader's buffer, valid until its next read; a line
// longer than the buffer is gathered into a new one.
func (r *Reader) line() ([]byte, error) {
	b, err := r.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), b...)
		for err == bufio.ErrBufferFull {
			b, err = r.r.ReadSlice('\n')
			long = append(long, b...)
		}
		b = long
	}
	if err != nil {
		return nil, err
	}
	if len(b) < 2 || b[len(b)-2] != '\r' {
		return nil, fmt.Errorf("%w: line not CRLF-terminated", ErrProtocol)
	}
	return b[:len(b)-2], nil
}

// length reads a CRLF-terminated signed length.
func (r *Reader) length() (int, error) {
	s, err := r.line()
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(string(s))
	if err != nil {
		return 0, fmt.Errorf("%w: bad length %q", ErrProtocol, s)
	}
	if n > maxBulkLen {
		return 0, fmt.Errorf("%w: length %d exceeds limit", ErrProtocol, n)
	}
	return n, nil
}
