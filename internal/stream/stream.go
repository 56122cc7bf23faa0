// Package stream implements ADIOS2-SST-style point-to-point streaming —
// the transport the paper names as future work ("we plan [to] add
// support for point-to-point streaming, for instance using ADIOS2").
// Unlike the staging backends (key-value, polled), a stream delivers
// *steps* in order with backpressure: the writer publishes one step at a
// time (BeginStep / Put / EndStep), and a reader consumes them in
// sequence, blocking until the next step arrives.
//
// Two transports mirror the rest of the repo: an in-process bounded
// queue, and a TCP transport with length-prefixed frames. Semantics
// follow SST's bounded queue: when the queue is full the writer's
// EndStep blocks (reliable mode) until the reader drains a step.
package stream

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
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

// Vars lists variable names, sorted.
func (s *Step) Vars() []string {
	names := make([]string, 0, len(s.vars))
	for n := range s.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
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
	// closes and the queue drains.
	NextStep() (*Step, error)
	// Close releases the reader.
	Close() error
}

// OpenStep is a step under construction on the writer side.
type OpenStep struct {
	step   *Step
	commit func(*Step) error
	done   bool
}

// Put adds a named variable to the open step. The payload is copied.
func (o *OpenStep) Put(name string, data []byte) error {
	if o.done {
		return fmt.Errorf("stream: Put after EndStep")
	}
	o.step.vars[name] = bytes.Clone(data)
	return nil
}

// EndStep publishes the step, blocking while the queue is full
// (SST reliable mode).
func (o *OpenStep) EndStep() error {
	if o.done {
		return fmt.Errorf("stream: double EndStep")
	}
	o.done = true
	return o.commit(o.step)
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
	open     bool // a step is under construction
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
	return &OpenStep{
		step:   &Step{Index: idx, vars: map[string][]byte{}},
		commit: p.commit,
	}, nil
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
	for {
		if p.closedR {
			return nil, ErrClosed
		}
		if len(p.queue) > 0 {
			s := p.queue[0]
			p.queue = p.queue[1:]
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
	p.cond.Broadcast()
	return nil
}
