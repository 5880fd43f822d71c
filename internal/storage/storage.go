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

// Intention is one prepared write of a transaction, with the object it is
// to: the unit of Stage.
type Intention struct {
	ID string
	Write
}

// State is the in-memory image of a backend's contents: the only one a
// node keeps. applyRecord is the only code that changes it, under the
// backend's mutex; Load hands out the live image, which callers only read
// (see the package documentation for who may read what, when).
type State struct {
	// Versions maps an object UID (string form) to its committed version.
	Versions map[string]Version
	// Intentions maps a transaction ID to its prepared writes by object.
	Intentions map[string]map[string]Write
	// Pins maps an object UID to the transaction whose prepared intention
	// is pending on it. It is derived from Intentions, never recorded.
	Pins map[string]string
	// Outcomes maps a transaction ID to its recorded outcome code.
	Outcomes map[string]uint8
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Versions:   make(map[string]Version),
		Intentions: make(map[string]map[string]Write),
		Pins:       make(map[string]string),
		Outcomes:   make(map[string]uint8),
	}
}

// Backend is a stable-storage engine: it persists committed versions,
// prepared intentions and outcome records, replays them at open, and
// makes mutations durable on Sync. Implementations are safe for
// concurrent use.
type Backend interface {
	// Load returns the backend's live image. The caller must not change
	// it, and reads a part of it only while no one writes that part (the
	// package documentation says who writes what).
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
	// Stage records writes as prepared writes of tx, as PutIntention does
	// each in order, and then, with commit, folds tx's intentions as CommitTx
	// does: all the records of one store operation, appended together (on
	// Disk, with one write(2)).
	Stage(tx string, writes []Intention, commit bool) error
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

// mutations implements the Backend's seven single-record mutations by
// handing each, as its record, to apply: Mem applies it to the image, Disk
// appends it to the WAL first.
type mutations struct{ apply func(record) error }

// staged hands f the records of Stage(tx, writes, commit), in log order.
func staged(tx string, writes []Intention, commit bool, f func(record)) {
	for _, w := range writes {
		f(record{tag: recIntention, tx: tx, id: w.ID, seq: w.Seq, data: w.Data})
	}
	if commit {
		f(record{tag: recCommitTx, tx: tx})
	}
}

// PutVersion implements Backend.
func (m mutations) PutVersion(id string, v Version) error {
	return m.apply(record{tag: recVersion, id: id, tx: v.Tx, seq: v.Seq, data: v.Data})
}

// DeleteVersion implements Backend.
func (m mutations) DeleteVersion(id string) error {
	return m.apply(record{tag: recDeleteVersion, id: id})
}

// PutIntention implements Backend.
func (m mutations) PutIntention(tx, id string, w Write) error {
	return m.apply(record{tag: recIntention, tx: tx, id: id, seq: w.Seq, data: w.Data})
}

// CommitTx implements Backend.
func (m mutations) CommitTx(tx string) error { return m.apply(record{tag: recCommitTx, tx: tx}) }

// AbortTx implements Backend.
func (m mutations) AbortTx(tx string) error { return m.apply(record{tag: recAbortTx, tx: tx}) }

// PutOutcome implements Backend.
func (m mutations) PutOutcome(tx string, outcome uint8) error {
	return m.apply(record{tag: recOutcome, tx: tx, seq: uint64(outcome)})
}

// DeleteOutcome implements Backend.
func (m mutations) DeleteOutcome(tx string) error {
	return m.apply(record{tag: recDeleteOutcome, tx: tx})
}

// Mem is the in-memory Backend: the simulation's "stable storage that
// survives the crash because we keep the value". The zero value is not
// usable; call NewMem.
type Mem struct {
	mutations
	mu    sync.Mutex
	state *State
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	m := &Mem{state: NewState()}
	m.mutations = mutations{m.apply}
	return m
}

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

func (m *Mem) apply(r record) error {
	m.mu.Lock()
	applyRecord(m.state, r)
	m.mu.Unlock()
	return nil
}

// Stage implements Backend.
func (m *Mem) Stage(tx string, writes []Intention, commit bool) error {
	m.mu.Lock()
	applyStaged(m.state, tx, writes, commit)
	m.mu.Unlock()
	return nil
}

// Load implements Backend.
func (m *Mem) Load() (*State, error) { return m.state, nil }

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
