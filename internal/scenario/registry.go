package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The global registry. Scenarios register from package init in
// registration order (which the CLI preserves for -list and groups);
// the mutex makes registration and lookup safe from tests that register
// concurrently.
var registry struct {
	sync.Mutex
	order  []string
	byName map[string]*Scenario
	groups map[string][]string
	gorder []string
}

// Register adds s to the global registry. Registering a duplicate or
// empty name, or a name that collides with a group, panics: scenario ids
// are a flat public namespace and a silent overwrite would change what
// an experiment id means.
func Register(s *Scenario) {
	registry.Lock()
	defer registry.Unlock()
	name := s.Name()
	if name == "" {
		panic("scenario: Register with empty name")
	}
	if registry.byName == nil {
		registry.byName = make(map[string]*Scenario)
	}
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", name))
	}
	if _, dup := registry.groups[name]; dup {
		panic(fmt.Sprintf("scenario: %q already names a group", name))
	}
	registry.byName[name] = s
	registry.order = append(registry.order, name)
}

// RegisterGroup defines a named, ordered set of already-registered
// scenarios runnable as a single experiment id (e.g. "all" = the
// paper's core artifacts). Members must be registered first; unknown
// members and duplicate group names panic.
func RegisterGroup(name string, members ...string) {
	registry.Lock()
	defer registry.Unlock()
	if name == "" || len(members) == 0 {
		panic("scenario: RegisterGroup needs a name and at least one member")
	}
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("scenario: group %q collides with a scenario", name))
	}
	if _, dup := registry.groups[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate group %q", name))
	}
	for _, m := range members {
		if _, ok := registry.byName[m]; !ok {
			panic(fmt.Sprintf("scenario: group %q member %q is not registered", name, m))
		}
	}
	if registry.groups == nil {
		registry.groups = make(map[string][]string)
	}
	registry.groups[name] = append([]string(nil), members...)
	registry.gorder = append(registry.gorder, name)
}

// Lookup returns the scenario registered under name.
func Lookup(name string) (*Scenario, bool) {
	registry.Lock()
	defer registry.Unlock()
	s, ok := registry.byName[name]
	return s, ok
}

// All returns every registered scenario in registration order.
func All() []*Scenario {
	registry.Lock()
	defer registry.Unlock()
	out := make([]*Scenario, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.byName[name])
	}
	return out
}

// Names returns the scenario ids in registration order.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	return append([]string(nil), registry.order...)
}

// Groups returns the group names in registration order.
func Groups() []string {
	registry.Lock()
	defer registry.Unlock()
	return append([]string(nil), registry.gorder...)
}

// Resolve expands an experiment id into the scenarios it names: a
// scenario id yields that scenario, a group id its members in group
// order. Unknown ids return an error naming every valid id.
func Resolve(id string) ([]*Scenario, error) {
	registry.Lock()
	defer registry.Unlock()
	if s, ok := registry.byName[id]; ok {
		return []*Scenario{s}, nil
	}
	if members, ok := registry.groups[id]; ok {
		out := make([]*Scenario, len(members))
		for i, m := range members {
			out[i] = registry.byName[m]
		}
		return out, nil
	}
	valid := append(append([]string(nil), registry.order...), registry.gorder...)
	sort.Strings(valid)
	return nil, fmt.Errorf("unknown experiment %q (valid ids: %s)", id, strings.Join(valid, ", "))
}
