// Package fix holds the cases TestCallerCensusFixture runs the census
// over.
package fix

// Probe.Size has only a test caller, but shares its name with
// Gauge.Size, which cmd/use calls.
type Probe struct{}

func (Probe) Size() int { return 1 }

type Gauge struct{}

func (Gauge) Size() int { return 2 }

// Pinger is stored to but never called, so Quiet.Ping is unused.
type Pinger interface{ Ping() }

type Quiet struct{}

func (Quiet) Ping() {}

// Box.Get is reached only through Box[int].
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }
