// Package object implements persistent objects and their servers (§2.2,
// §3.1 of the paper).
//
// An object is an instance of a Class: serialized state plus named methods.
// Persistent objects normally rest passive in object stores; a node in
// Sv_A activates an object by creating a server for it and loading its
// state from a store node in St_A. Atomic actions control all state
// changes: invocations take read or write locks owned by the invoking
// action, modified state is snapshotted for abort, and at commit time the
// server copies the new state to the St nodes (prepare/commit through the
// stores' two-phase interface). A quiescent server (no users) can
// passivate itself (§2.3(3)).
package object

import (
	"fmt"
	"sync"
)

// Method is one operation of a class: it receives the current serialized
// state and serialized arguments, and returns the new state (which may be
// the input state unchanged) and a serialized result.
type Method func(state, args []byte) (newState, result []byte, err error)

// Class defines the behaviour of a kind of persistent object. In the
// paper's terms the class's code is available at every node in Sv (the
// "executable binary of the code for the object's methods", §3.1); here
// that is modelled by registering the class in every node's Registry.
type Class struct {
	// Name identifies the class system-wide.
	Name string
	// Init produces the serialized initial state for new instances.
	Init func() []byte
	// Methods maps operation names to implementations.
	Methods map[string]Method
	// ReadOnly marks methods that never modify state; invocations of these
	// take read locks and need no commit-time state copy (the read
	// optimisation of §4.1.2/§4.2.1).
	ReadOnly map[string]bool
	// Commutative marks methods whose invocations commute with each other:
	// applying any set of them in any order yields the same final state
	// (e.g. a counter's add). The object server may fold queued commutative
	// invocations behind the same write lock into one execution and one
	// commit, provided each declares itself its action's entire write set.
	// Every method marked here must commute with every OTHER marked method
	// of the class, not just with itself.
	Commutative map[string]bool
}

// Method looks up a method by name.
func (c *Class) Method(name string) (Method, error) {
	m, ok := c.Methods[name]
	if !ok {
		return nil, fmt.Errorf("object: class %s has no method %q", c.Name, name)
	}
	return m, nil
}

// IsReadOnly reports whether the named method is marked read-only.
func (c *Class) IsReadOnly(name string) bool { return c.ReadOnly[name] }

// IsCommutative reports whether the named method is declared commutative.
func (c *Class) IsCommutative(name string) bool { return c.Commutative[name] }

// Registry maps class names to classes. It is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	classes map[string]*Class
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{classes: make(map[string]*Class)}
}

// Register adds or replaces a class.
func (r *Registry) Register(c *Class) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.classes[c.Name] = c
}

// Lookup returns the named class.
func (r *Registry) Lookup(name string) (*Class, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.classes[name]
	if !ok {
		return nil, fmt.Errorf("object: unknown class %q", name)
	}
	return c, nil
}
