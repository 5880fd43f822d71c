package storage

import (
	"errors"
	"sync"
)

// ErrClosed reports an operation on a closed backend.
var ErrClosed = errors.New("storage: backend is closed")

// Version is one committed object state as the backend records it.
type Version struct {
	// Data is the serialized object state.
	Data []byte
	// Seq is the version-chain sequence number.
	Seq uint64
	// Tx is the transaction that committed this version ("" for direct
	// installs).
	Tx string
}

// Write is one prepared (undecided) object write of a transaction.
type Write struct {
	Data []byte
	Seq  uint64
}

// State is a full image of a backend's contents. Load returns a copy the
// caller owns; the byte slices are shared and must not be mutated.
type State struct {
	// Versions maps an object UID (string form) to its committed version.
	Versions map[string]Version
	// Intentions maps a transaction ID to its prepared writes by object.
	Intentions map[string]map[string]Write
	// Outcomes maps a transaction ID to its recorded outcome code.
	Outcomes map[string]uint8
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Versions:   make(map[string]Version),
		Intentions: make(map[string]map[string]Write),
		Outcomes:   make(map[string]uint8),
	}
}

func (s *State) clone() *State {
	out := &State{
		Versions:   make(map[string]Version, len(s.Versions)),
		Intentions: make(map[string]map[string]Write, len(s.Intentions)),
		Outcomes:   make(map[string]uint8, len(s.Outcomes)),
	}
	for id, v := range s.Versions {
		out.Versions[id] = v
	}
	for tx, m := range s.Intentions {
		c := make(map[string]Write, len(m))
		for id, w := range m {
			c[id] = w
		}
		out.Intentions[tx] = c
	}
	for tx, o := range s.Outcomes {
		out.Outcomes[tx] = o
	}
	return out
}

// Backend is a stable-storage engine: it persists committed versions,
// prepared intentions and outcome records, replays them at open, and
// makes mutations durable on Sync. Implementations are safe for
// concurrent use.
type Backend interface {
	// Load returns a copy of the backend's current contents.
	Load() (*State, error)
	// PutVersion records a committed version of an object.
	PutVersion(id string, v Version) error
	// DeleteVersion removes an object's committed state.
	DeleteVersion(id string) error
	// PutIntention records one prepared write of tx (merging with any
	// earlier write of tx to the same object).
	PutIntention(tx, id string, w Write) error
	// CommitTx folds tx's accumulated intentions into committed versions
	// and drops the intentions.
	CommitTx(tx string) error
	// AbortTx drops tx's intentions.
	AbortTx(tx string) error
	// PutOutcome records tx's outcome code.
	PutOutcome(tx string, outcome uint8) error
	// DeleteOutcome prunes tx's outcome record.
	DeleteOutcome(tx string) error
	// Outcome returns tx's recorded outcome code, if any.
	Outcome(tx string) (uint8, bool, error)
	// Sync makes every preceding mutation durable. It is the commit
	// point: a prepared intention must be Synced before the participant
	// votes commit, and an outcome record before phase two begins.
	Sync() error
	// Close releases the backend's resources. A Mem backend keeps its
	// data (reopening through the same Factory sees it again); a Disk
	// backend flushes and closes its files.
	Close() error
}

// Factory opens (or reopens) a Backend. A store holds its factory so
// that a simulated crash can Close the backend and a recovery can open
// it again: the Mem factory hands back the same live instance, the Disk
// factory replays the directory.
type Factory func() (Backend, error)

// Mem is the in-memory Backend: the simulation's "stable storage that
// survives the crash because we keep the value". The zero value is not
// usable; call NewMem.
type Mem struct {
	mu    sync.Mutex
	state *State
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem { return &Mem{state: NewState()} }

// MemFactory returns a Factory that always hands back the same fresh
// Mem instance — close/reopen cycles see the same data, mirroring the
// simulation's crash model.
func MemFactory() Factory {
	m := NewMem()
	return func() (Backend, error) { return m, nil }
}

// Factory returns a Factory handing back this instance.
func (m *Mem) Factory() Factory {
	return func() (Backend, error) { return m, nil }
}

// Load implements Backend.
func (m *Mem) Load() (*State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state.clone(), nil
}

// PutVersion implements Backend.
func (m *Mem) PutVersion(id string, v Version) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state.Versions[id] = v
	return nil
}

// DeleteVersion implements Backend.
func (m *Mem) DeleteVersion(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.state.Versions, id)
	return nil
}

// PutIntention implements Backend.
func (m *Mem) PutIntention(tx, id string, w Write) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	in := m.state.Intentions[tx]
	if in == nil {
		in = make(map[string]Write)
		m.state.Intentions[tx] = in
	}
	in[id] = w
	return nil
}

// CommitTx implements Backend.
func (m *Mem) CommitTx(tx string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, w := range m.state.Intentions[tx] {
		m.state.Versions[id] = Version{Data: w.Data, Seq: w.Seq, Tx: tx}
	}
	delete(m.state.Intentions, tx)
	return nil
}

// AbortTx implements Backend.
func (m *Mem) AbortTx(tx string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.state.Intentions, tx)
	return nil
}

// PutOutcome implements Backend.
func (m *Mem) PutOutcome(tx string, outcome uint8) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state.Outcomes[tx] = outcome
	return nil
}

// DeleteOutcome implements Backend.
func (m *Mem) DeleteOutcome(tx string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.state.Outcomes, tx)
	return nil
}

// Outcome implements Backend.
func (m *Mem) Outcome(tx string) (uint8, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.state.Outcomes[tx]
	return o, ok, nil
}

// Sync implements Backend; memory is "durable" by definition here.
func (m *Mem) Sync() error { return nil }

// Close implements Backend. The data is retained: the simulation's
// stable store survives the crash that closes it.
func (m *Mem) Close() error { return nil }
