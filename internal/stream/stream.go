// Package stream implements ADIOS2-SST-style point-to-point streaming —
// the transport the paper names as future work ("we plan [to] add
// support for point-to-point streaming, for instance using ADIOS2").
// Unlike the staging backends (key-value, polled), a stream delivers
// *steps* in order with backpressure: the writer publishes one step at a
// time (BeginStep / Put / EndStep), and a reader consumes them in
// sequence, blocking until the next step arrives.
//
// Two transports mirror the rest of the repo: an in-process bounded
// queue, and a TCP transport with length-prefixed records. Semantics
// follow SST's bounded queue: when the queue is full the writer's
// EndStep blocks (reliable mode) until the reader drains a step; over
// TCP, flow control blocks the writer's Put instead.
package stream

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed reports use of a closed stream endpoint.
var ErrClosed = errors.New("stream: closed")

// ErrDone reports that the writer closed the stream and all steps have
// been consumed (the reader's end-of-stream).
var ErrDone = errors.New("stream: done")

// Step is one published timestep: a set of named variables.
type Step struct {
	Index int
	vars  map[string][]byte
}

// Get returns a variable's payload; ok is false when absent.
func (s *Step) Get(name string) (data []byte, ok bool) {
	data, ok = s.vars[name]
	return
}

// Bytes returns the total payload size of the step.
func (s *Step) Bytes() int {
	n := 0
	for _, v := range s.vars {
		n += len(v)
	}
	return n
}

// Writer publishes steps. Implementations: the in-proc pipe writer and
// the TCP writer.
type Writer interface {
	// BeginStep starts the next step. Exactly one step may be open at a
	// time.
	BeginStep() (*OpenStep, error)
	// Close ends the stream; the reader drains queued steps then sees
	// ErrDone.
	Close() error
}

// Reader consumes steps in order.
type Reader interface {
	// NextStep blocks for the next step; ErrDone after the writer
	// closes and the queue drains. The returned step's payloads are
	// valid until the next NextStep or Close, which recycle them for
	// later steps: a consumer that keeps data longer copies it.
	NextStep() (*Step, error)
	// Close releases the reader.
	Close() error
}

// stepSink is the transport under an OpenStep.
type stepSink interface {
	put(s *Step, name string, data []byte) error
	commit(s *Step) error
}

// OpenStep is a step under construction on the writer side.
type OpenStep struct {
	step *Step
	sink stepSink
	done bool
}

// Put adds a named variable to the open step. The payload is copied —
// into a recycled buffer of the pipe, or onto the TCP connection — so
// the caller may reuse data as soon as Put returns.
func (o *OpenStep) Put(name string, data []byte) error {
	if o.done {
		return fmt.Errorf("stream: Put after EndStep")
	}
	return o.sink.put(o.step, name, data)
}

// EndStep publishes the step, blocking while the queue is full
// (SST reliable mode).
func (o *OpenStep) EndStep() error {
	if o.done {
		return fmt.Errorf("stream: double EndStep")
	}
	o.done = true
	return o.sink.commit(o.step)
}

// maxFree bounds a free list of payload buffers.
const maxFree = 16

// freeList holds payload buffers of consumed steps for reuse, so a
// stream of equally shaped steps stops allocating after its first few.
type freeList [][]byte

// get returns an n-byte buffer: a free one with the capacity, or a new
// one.
func (f *freeList) get(n int) []byte {
	l := *f
	for i, b := range l {
		if cap(b) >= n {
			last := len(l) - 1
			l[i], l[last] = l[last], nil
			*f = l[:last]
			return b[:n]
		}
	}
	return make([]byte, n)
}

// put takes b back, evicting the smallest buffer when the list is full.
func (f *freeList) put(b []byte) {
	l := append(*f, b)
	if len(l) > maxFree {
		small := 0
		for i, x := range l {
			if cap(x) < cap(l[small]) {
				small = i
			}
		}
		last := len(l) - 1
		l[small], l[last] = l[last], nil
		l = l[:last]
	}
	*f = l
}

// putStep takes back every payload of s.
func (f *freeList) putStep(s *Step) {
	if s == nil {
		return
	}
	for _, b := range s.vars {
		f.put(b)
	}
}

// pipe is the in-process transport: a bounded queue of steps.
type pipe struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Step
	capacity int
	next     int
	closedW  bool
	closedR  bool
	open     bool  // a step is under construction
	held     *Step // the step the reader has, until its next NextStep or Close
	free     freeList
}

// Pipe returns a connected in-process writer/reader pair with the given
// queue capacity (>= 1).
func Pipe(capacity int) (Writer, Reader) {
	if capacity < 1 {
		capacity = 1
	}
	p := &pipe{capacity: capacity}
	p.cond = sync.NewCond(&p.mu)
	return (*pipeWriter)(p), (*pipeReader)(p)
}

type pipeWriter pipe

func (w *pipeWriter) BeginStep() (*OpenStep, error) {
	p := (*pipe)(w)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closedW {
		return nil, ErrClosed
	}
	if p.open {
		return nil, fmt.Errorf("stream: BeginStep with a step already open")
	}
	p.open = true
	idx := p.next
	p.next++
	return &OpenStep{step: &Step{Index: idx, vars: map[string][]byte{}}, sink: p}, nil
}

// put copies data into a recycled buffer: the pipe's one copy.
func (p *pipe) put(s *Step, name string, data []byte) error {
	p.mu.Lock()
	buf := p.free.get(len(data))
	if old, ok := s.vars[name]; ok {
		p.free.put(old)
	}
	p.mu.Unlock()
	copy(buf, data)
	s.vars[name] = buf
	return nil
}

func (p *pipe) commit(s *Step) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) >= p.capacity && !p.closedR && !p.closedW {
		p.cond.Wait()
	}
	p.open = false
	if p.closedW {
		return ErrClosed
	}
	if p.closedR {
		// Reader gone: drop the step (writer keeps running, like SST
		// with a departed reader).
		p.free.putStep(s)
		p.cond.Broadcast()
		return nil
	}
	p.queue = append(p.queue, s)
	p.cond.Broadcast()
	return nil
}

func (w *pipeWriter) Close() error {
	p := (*pipe)(w)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closedW = true
	p.cond.Broadcast()
	return nil
}

type pipeReader pipe

func (r *pipeReader) NextStep() (*Step, error) {
	p := (*pipe)(r)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free.putStep(p.held)
	p.held = nil
	for {
		if p.closedR {
			return nil, ErrClosed
		}
		if len(p.queue) > 0 {
			s := p.queue[0]
			p.queue = p.queue[1:]
			p.held = s
			p.cond.Broadcast() // wake a writer blocked on a full queue
			return s, nil
		}
		if p.closedW {
			return nil, ErrDone
		}
		p.cond.Wait()
	}
}

func (r *pipeReader) Close() error {
	p := (*pipe)(r)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closedR = true
	p.free.putStep(p.held)
	p.held = nil
	p.cond.Broadcast()
	return nil
}
