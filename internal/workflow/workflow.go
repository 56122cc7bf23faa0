// Package workflow implements the paper's orchestration layer (§3.5): a
// Workflow of registered components with an explicit dependency DAG,
// launched onto local or "remote" resources. Components whose
// dependencies are satisfied run concurrently; launch type "remote"
// spawns a multi-rank MPI world for the component (the in-process
// analogue of mpirun), while "local" runs a single goroutine (the
// analogue of multiprocessing).
package workflow

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"simaibench/internal/clock"
	"simaibench/internal/mpi"
)

// LaunchType selects a component's execution vehicle.
type LaunchType int

// Launch types, mirroring the paper's type="remote"/"local" component
// argument.
const (
	Local LaunchType = iota
	Remote
)

// String returns the config name.
func (lt LaunchType) String() string {
	if lt == Remote {
		return "remote"
	}
	return "local"
}

// Ctx is passed to every component body.
type Ctx struct {
	// Context carries cancellation: when any component fails, the rest
	// observe Done.
	context.Context
	// Comm is the component's communicator: a world of Ranks ranks for
	// remote components, nil for local ones.
	Comm *mpi.Comm
	// Component is the component's registered name.
	Component string
	// Clock is the workflow's emulation clock (WithClock), never nil:
	// bodies pad and timestamp against it so one harness runs in both
	// time domains. Launch handles the participant protocol; a body
	// Leaves and re-Joins only around a wait on a sibling component
	// that bypasses the datastore/MPI layers.
	Clock clock.Clock
}

// Body is a component implementation. For remote components the body
// runs once per rank.
type Body func(ctx Ctx) error

// Component is one registered workflow node.
type Component struct {
	Name  string
	Type  LaunchType
	Ranks int // ranks for Remote (default 1)
	Deps  []string
	Body  Body
}

// Option customizes a Workflow at construction.
type Option func(*Workflow)

// WithClock runs the workflow's components against the given emulation
// clock. Launch operates the participant protocol for a clock.Virtual:
// every rank of every dependency-free component is joined before
// anything starts (so virtual time cannot advance until all of them
// sleep — the deterministic start barrier), ranks leave as they finish,
// and a finishing component hands its barrier slots to the dependents
// it releases before leaving, so the handoff cannot let time slip in
// between. Remote components additionally get their MPI world's
// blocking waits bridged through Clock.Leave/Join.
func WithClock(c clock.Clock) Option { return func(w *Workflow) { w.clk = c } }

// Workflow is a DAG of components. Register everything, then Launch.
type Workflow struct {
	name       string
	mu         sync.Mutex
	components map[string]*Component
	launched   bool
	clk        clock.Clock
}

// New returns an empty workflow.
func New(name string, opts ...Option) *Workflow {
	w := &Workflow{name: name, components: make(map[string]*Component), clk: clock.Wall}
	for _, o := range opts {
		o(w)
	}
	return w
}

// Register adds a component. It is the Go analogue of the paper's
// @w.component decorator. Errors: duplicate names, nil bodies,
// nonpositive rank counts.
func (w *Workflow) Register(c Component) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if c.Name == "" {
		return errors.New("workflow: component with empty name")
	}
	if _, dup := w.components[c.Name]; dup {
		return fmt.Errorf("workflow: duplicate component %q", c.Name)
	}
	if c.Body == nil {
		return fmt.Errorf("workflow: component %q has no body", c.Name)
	}
	if c.Ranks == 0 {
		c.Ranks = 1
	}
	if c.Ranks < 0 {
		return fmt.Errorf("workflow: component %q has %d ranks", c.Name, c.Ranks)
	}
	cp := c
	cp.Deps = append([]string(nil), c.Deps...)
	w.components[c.Name] = &cp
	return nil
}

// validate checks dependency references and acyclicity.
func (w *Workflow) validate() error {
	indeg := make(map[string]int, len(w.components))
	dependents := make(map[string][]string)
	for name, c := range w.components {
		if _, ok := indeg[name]; !ok {
			indeg[name] = 0
		}
		for _, d := range c.Deps {
			if _, ok := w.components[d]; !ok {
				return fmt.Errorf("workflow: component %q depends on unknown %q", name, d)
			}
			if d == name {
				return fmt.Errorf("workflow: component %q depends on itself", name)
			}
			indeg[name]++
			dependents[d] = append(dependents[d], name)
		}
	}
	// Kahn's algorithm: a component no order can reach sits on a cycle.
	var frontier []string
	for name, d := range indeg {
		if d == 0 {
			frontier = append(frontier, name)
		}
	}
	ordered := 0
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		ordered++
		for _, m := range dependents[n] {
			indeg[m]--
			if indeg[m] == 0 {
				frontier = append(frontier, m)
			}
		}
	}
	if ordered != len(w.components) {
		return errors.New("workflow: dependency cycle detected")
	}
	return nil
}

// ranks returns a component's barrier weight: one participant per rank.
func ranks(c *Component) int {
	if c.Type == Remote {
		return c.Ranks
	}
	return 1
}

// joinPlan operates the clock participant protocol across the DAG (see
// WithClock). All methods are safe for concurrent use.
type joinPlan struct {
	clk clock.Clock
	mu  sync.Mutex
	// pendingDeps counts unfinished successful dependencies; a component
	// is joined when it reaches zero.
	pendingDeps map[string]int
	dependents  map[string][]string
	joined      map[string]bool
	running     map[string]int // ranks of this component still running
	failed      map[string]bool
	// abandoned marks components whose launcher goroutine has already
	// returned without running (cancellation, failed dependency): a
	// later-finishing dependency must not join barrier slots on their
	// behalf, or the slots would leak and stall the barrier forever.
	abandoned map[string]bool
}

// newJoinPlan pre-joins every dependency-free component.
func newJoinPlan(clk clock.Clock, components map[string]*Component) *joinPlan {
	p := &joinPlan{
		clk:         clk,
		pendingDeps: make(map[string]int, len(components)),
		dependents:  make(map[string][]string),
		joined:      make(map[string]bool, len(components)),
		running:     make(map[string]int, len(components)),
		failed:      make(map[string]bool),
		abandoned:   make(map[string]bool),
	}
	for name, c := range components {
		p.pendingDeps[name] = len(c.Deps)
		p.running[name] = ranks(c)
		for _, d := range c.Deps {
			p.dependents[d] = append(p.dependents[d], name)
		}
		if len(c.Deps) == 0 {
			for i := 0; i < ranks(c); i++ {
				clk.Join()
			}
			p.joined[name] = true
		}
	}
	return p
}

// rankDone retires one rank of c: when it is the component's last rank
// and every rank succeeded, the dependents this completion releases are
// joined BEFORE the rank leaves, so the barrier slot transfers without
// a window in which virtual time could advance.
func (p *joinPlan) rankDone(c *Component, components map[string]*Component, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.failed[c.Name] = true
	}
	p.running[c.Name]--
	if p.running[c.Name] == 0 && !p.failed[c.Name] {
		for _, dep := range p.dependents[c.Name] {
			p.pendingDeps[dep]--
			// Never join on behalf of a dependent whose goroutine has
			// already given up (cancellation racing a slow finisher):
			// nobody would ever Leave for it.
			if p.pendingDeps[dep] == 0 && !p.joined[dep] && !p.abandoned[dep] {
				for i := 0; i < ranks(components[dep]); i++ {
					p.clk.Join()
				}
				p.joined[dep] = true
			}
		}
	}
	p.clk.Leave()
}

// abandon retires a component that will never run (a dependency failed
// after satisfying others, or the run context was cancelled first):
// its barrier slots are released if it was already joined, and it is
// marked so a dependency finishing later cannot join slots for it.
func (p *joinPlan) abandon(c *Component) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.abandoned[c.Name] = true
	if !p.joined[c.Name] {
		return
	}
	p.joined[c.Name] = false
	for i := 0; i < ranks(c); i++ {
		p.clk.Leave()
	}
}

// Launch validates the DAG and executes it: every component starts as
// soon as all its dependencies have completed successfully, and
// independent components run concurrently. On the first component error
// the shared context is canceled and Launch returns that error after all
// started components finish. A workflow can be launched only once.
func (w *Workflow) Launch(ctx context.Context) error {
	w.mu.Lock()
	if w.launched {
		w.mu.Unlock()
		return errors.New("workflow: already launched")
	}
	w.launched = true
	w.mu.Unlock()

	if err := w.validate(); err != nil {
		return err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	plan := newJoinPlan(w.clk, w.components)

	done := make(map[string]chan struct{}, len(w.components))
	for name := range w.components {
		done[name] = make(chan struct{})
	}

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}
	succeeded := make(map[string]bool, len(w.components))
	var okMu sync.Mutex

	for name := range w.components {
		c := w.components[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done[c.Name])
			// Wait for dependencies (or cancellation).
			for _, d := range c.Deps {
				select {
				case <-done[d]:
				case <-runCtx.Done():
					plan.abandon(c)
					return
				}
			}
			okMu.Lock()
			ready := true
			for _, d := range c.Deps {
				if !succeeded[d] {
					ready = false
				}
			}
			okMu.Unlock()
			if !ready || runCtx.Err() != nil {
				plan.abandon(c)
				return
			}
			if err := w.runComponent(runCtx, c, plan); err != nil {
				fail(fmt.Errorf("workflow %s: component %s: %w", w.name, c.Name, err))
				return
			}
			okMu.Lock()
			succeeded[c.Name] = true
			okMu.Unlock()
		}()
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	if firstErr == nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return firstErr
}

// runComponent executes one component body on its launch vehicle,
// retiring barrier slots rank by rank as bodies return.
func (w *Workflow) runComponent(ctx context.Context, c *Component, plan *joinPlan) error {
	switch c.Type {
	case Local:
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
				plan.rankDone(c, w.components, err)
			}()
			err = c.Body(Ctx{Context: ctx, Component: c.Name, Clock: w.clk})
		}()
		return err
	case Remote:
		world := mpi.NewWorld(c.Ranks)
		world.SetClockBridge(w.clk.Join, w.clk.Leave)
		var mu sync.Mutex
		var rankErr error
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
			}()
			world.Run(func(comm *mpi.Comm) {
				var e error
				defer func() {
					if p := recover(); p != nil {
						plan.rankDone(c, w.components, fmt.Errorf("panic: %v", p))
						// Re-panic so World.Run keeps its contract of
						// killing the world and unblocking siblings.
						panic(p)
					}
					plan.rankDone(c, w.components, e)
				}()
				e = c.Body(Ctx{Context: ctx, Comm: comm, Component: c.Name, Clock: w.clk})
				if e != nil {
					mu.Lock()
					if rankErr == nil {
						rankErr = e
					}
					mu.Unlock()
				}
			})
			return nil
		}()
		if err != nil {
			return err
		}
		return rankErr
	}
	plan.rankDone(c, w.components, nil)
	return fmt.Errorf("unknown launch type %v", c.Type)
}
