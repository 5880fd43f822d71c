// Package lockmgr implements the lock management the paper's naming and
// binding databases rely on (§4.1, §4.2.1).
//
// Three lock modes are provided:
//
//   - Read: shared; used by GetServer/GetView (§4.1).
//   - Write: exclusive; used by Insert/Remove/Include and, in the
//     write-locked bind scheme, the use-list operations Increment/
//     Decrement (§4.1.2–4.1.3).
//   - Adjust: the commutative-update lock for use-list counters.
//     Increment and Decrement commute with each other, so Adjust is
//     compatible with Read and with other Adjust holders but conflicts
//     with Write — concurrent binds adjust the counters in parallel while
//     a recovering server's Insert (which needs the exact quiescent
//     truth) still excludes every adjuster.
//   - ExcludeWrite: the paper's type-specific lock (§4.2.1) — compatible
//     with Read locks but not with Write or other ExcludeWrite holders, so
//     a committing server can Exclude failed store nodes while concurrent
//     clients still hold read locks on the same entry.
//
// Owners are top-level atomic actions: an action holds its locks until it
// ends (ReleaseAll), and no lock is ever inherited. The Ancestry parameter
// of New, with Moss's rule in the grant checks (a conflicting holder that
// is the requester's ancestor does not block it), is kept only for the
// constructor the benchmark pins, New(NoNesting); every caller passes
// NoNesting, under which the rule never fires.
//
// Waiting is fair: blocked acquirers join a per-key FIFO queue and are
// granted strictly in arrival order (no barging — a newly arriving
// compatible request queues behind earlier waiters rather than overtaking
// them). A waiter leaves the queue granted, cancelled by its context, or
// failed by its owner's ReleaseAll.
//
// Layout. One mutex guards the whole table: a map from key to entry, where
// an entry is a short unordered list of holders (owner plus a count per
// mode) and the FIFO of waiters, and a map from owner to the short list of
// keys it holds or waits on — what ReleaseAll walks. An entry whose last
// holder and waiter left, and a key list whose owner ended, go to a small
// free list, so the steady state — an action takes one to three
// uncontended locks and releases them together — allocates nothing. Lists,
// not maps, because they hold one to a handful of items: a scan is cheaper
// than a hash and needs no allocation to grow from empty.
//
// One mutex suffices because no table sees concurrent work on disjoint keys
// that it could overlap. The system builds two kinds of table: an activated
// object's, which holds its single "state" key, and the group view
// database's, every change to which the database makes under its own mutex.
// Under the one mutex ReleaseAll is a single critical section: the owner's
// holds are dropped and its parked acquires failed together.
//
// A caller that serialises its own work can take the wait apart: Grantable
// checks a request without recording it, Grant records a hold so checked,
// and Request grants at once or queues a Wait, which the caller waits on
// with its own lock dropped and gives up with Abandon. The group view
// database runs each message in one critical section this way: a lock that
// begins and ends inside the section is checked and never recorded.
package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Mode is a lock mode. The zero value is invalid (Uber style: enums start
// at one).
type Mode int

// Lock modes, weakest to strongest for promotion ordering.
const (
	Read Mode = iota + 1
	Adjust
	ExcludeWrite
	Write
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Read:
		return "read"
	case Adjust:
		return "adjust"
	case ExcludeWrite:
		return "exclude-write"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Compatible reports whether two modes held by different owners can
// coexist on one entry.
func Compatible(a, b Mode) bool {
	switch {
	case a == Read && b == Read:
		return true
	case a == Adjust && (b == Adjust || b == Read), b == Adjust && a == Read:
		return true
	case a == Read && b == ExcludeWrite, a == ExcludeWrite && b == Read:
		return true
	default:
		return false
	}
}

// Owner identifies a lock holder — conventionally an action UID string.
type Owner string

// Ancestry answers ancestor queries between owners. IsAncestorOf must
// return true when ancestor is a proper ancestor of descendant (not for
// equal owners; the manager handles self separately).
type Ancestry interface {
	IsAncestorOf(ancestor, descendant Owner) bool
}

// AncestryFunc adapts a function to the Ancestry interface.
type AncestryFunc func(ancestor, descendant Owner) bool

// IsAncestorOf implements Ancestry.
func (f AncestryFunc) IsAncestorOf(a, d Owner) bool { return f(a, d) }

// NoNesting is an Ancestry under which no owner is an ancestor of another;
// suitable when only top-level actions take locks.
var NoNesting Ancestry = AncestryFunc(func(Owner, Owner) bool { return false })

// ErrRefused reports that a non-blocking acquire or promote found a
// conflicting holder (or, under fair queueing, an earlier conflicting
// waiter it must not overtake).
var ErrRefused = errors.New("lockmgr: lock refused")

// ErrReleased reports a blocking acquire still queued when its owner's
// action ended (ReleaseAll); the lock was NOT granted.
var ErrReleased = errors.New("lockmgr: owner released while waiting")

// Observer receives queue observability events. Implementations must be
// safe for concurrent use; hooks run on lock-acquisition paths and must
// be cheap.
type Observer interface {
	// LockQueued fires when an acquirer starts waiting; depth is the
	// queue depth including it.
	LockQueued(depth int)
	// LockGranted fires when a queued acquirer is granted, with its
	// queueing time.
	LockGranted(wait time.Duration)
}

// holder records one owner's grip on an entry: per-mode re-entrancy
// counts, indexed by Mode (slot 0 is unused; a Mode that is not one of the
// four is a caller's bug and panics).
type holder struct {
	owner  Owner
	counts [Write + 1]int
}

func (h *holder) strongest() Mode {
	switch {
	case h.counts[Write] > 0:
		return Write
	case h.counts[ExcludeWrite] > 0:
		return ExcludeWrite
	case h.counts[Adjust] > 0:
		return Adjust
	case h.counts[Read] > 0:
		return Read
	default:
		return 0
	}
}

func (h *holder) empty() bool { return h.counts == [Write + 1]int{} }

// Wait is one queued acquire (Request). ready is closed (with granted set,
// under the table's mutex) when the grant happens, or ungranted by its
// owner's ReleaseAll, so a receive on ready observes a fully granted lock.
type Wait struct {
	owner   Owner
	key     string
	mode    Mode
	ready   chan struct{}
	granted bool
}

// Ready is closed once the wait is over: granted, or failed by its owner's
// ReleaseAll (Err tells which).
func (w *Wait) Ready() <-chan struct{} { return w.ready }

// Err is, once Ready is closed, nil for a granted wait and an ErrReleased
// error for a failed one.
func (w *Wait) Err() error {
	if w.granted {
		return nil
	}
	return w.fail(ErrReleased)
}

// fail is the error an acquire that waited on w fails with, for cause.
func (w *Wait) fail(cause error) error {
	return fmt.Errorf("lockmgr: acquire %s on %q for %s: %w", w.mode, w.key, w.owner, cause)
}

type entry struct {
	// holders is unordered and scanned linearly: an entry has one holder,
	// or a handful of sharing readers.
	holders []holder
	// waiters is the FIFO wait queue: grants happen strictly in arrival
	// order, each performed synchronously under the table's mutex by
	// whichever release made it possible — there is no wake-then-race
	// window for a newcomer to barge through.
	waiters []*Wait
}

// holder returns owner's record on e, or nil. The pointer is good until
// the next append to e.holders.
func (e *entry) holder(owner Owner) *holder {
	for i := range e.holders {
		if e.holders[i].owner == owner {
			return &e.holders[i]
		}
	}
	return nil
}

// dropHolder removes owner's record from e, if there is one.
func (e *entry) dropHolder(owner Owner) {
	e.holders = slices.DeleteFunc(e.holders, func(h holder) bool { return h.owner == owner })
}

// maxFree bounds each free list: emptied entries and emptied key lists.
const maxFree = 8

// Manager is a lock table keyed by string. It is safe for concurrent use;
// one mutex guards all of it (see the package comment for why).
type Manager struct {
	ancestry Ancestry
	obs      Observer

	mu      sync.Mutex
	entries map[string]*entry
	owners  map[Owner][]string // the keys each owner holds or waits on
	// Emptied entries and key lists, kept for reuse: an entry is looked up
	// by key under mu on every use and never kept across an unlock, so
	// reuse is invisible.
	freeEntries []*entry
	freeKeys    [][]string
	// grants counts the grants made (Grants).
	grants uint64
}

// New returns a Manager using the given ancestry; nil means NoNesting.
func New(ancestry Ancestry) *Manager {
	if ancestry == nil {
		ancestry = NoNesting
	}
	return &Manager{
		ancestry: ancestry,
		entries:  make(map[string]*entry),
		owners:   make(map[Owner][]string),
	}
}

// SetObserver attaches queue observability hooks. Call before the manager
// sees concurrent traffic.
func (m *Manager) SetObserver(o Observer) { m.obs = o }

// indexKeyLocked records key under owner in the owner index.
func (m *Manager) indexKeyLocked(owner Owner, key string) {
	keys, ok := m.owners[owner]
	if n := len(m.freeKeys); !ok && n > 0 {
		keys, m.freeKeys = m.freeKeys[n-1], m.freeKeys[:n-1]
	}
	if !slices.Contains(keys, key) {
		m.owners[owner] = append(keys, key)
	}
}

// unindexKeyLocked removes key from owner's index entry.
func (m *Manager) unindexKeyLocked(owner Owner, key string) {
	keys := m.owners[owner]
	i := slices.Index(keys, key)
	if i < 0 {
		return
	}
	if keys = slices.Delete(keys, i, i+1); len(keys) > 0 {
		m.owners[owner] = keys
		return
	}
	delete(m.owners, owner)
	m.recycleKeysLocked(keys)
}

// recycleKeysLocked keeps an emptied key list for the next new owner.
func (m *Manager) recycleKeysLocked(keys []string) {
	if len(m.freeKeys) < maxFree {
		m.freeKeys = append(m.freeKeys, keys)
	}
}

func (m *Manager) entryLocked(key string) *entry {
	e, ok := m.entries[key]
	if !ok {
		if n := len(m.freeEntries); n > 0 {
			e, m.freeEntries = m.freeEntries[n-1], m.freeEntries[:n-1]
		} else {
			e = &entry{}
		}
		m.entries[key] = e
	}
	return e
}

// grantableLocked reports whether owner may take mode on e given current
// holders: every conflicting holder must be the owner itself or one of its
// ancestors (Moss's rule).
func (m *Manager) grantableLocked(e *entry, owner Owner, mode Mode) bool {
	for i := range e.holders {
		h := &e.holders[i]
		if om := h.strongest(); h.owner == owner || om == 0 || Compatible(mode, om) {
			continue
		}
		if !m.ancestry.IsAncestorOf(h.owner, owner) {
			return false
		}
	}
	return true
}

// mayOvertakeLocked reports whether owner may be granted immediately even
// though earlier waiters are queued. Fairness says no — except when
// queueing could deadlock against locks the owner's own action family
// already holds on this entry: a re-entrant acquire (or blocking
// promotion) by a current holder, and a nested action whose ancestor
// holds the entry (Moss's rule — the ancestor cannot release until the
// descendant finishes), must not park behind strangers waiting for that
// very holder to let go.
func (m *Manager) mayOvertakeLocked(e *entry, owner Owner) bool {
	if len(e.waiters) == 0 {
		return true
	}
	if e.holder(owner) != nil {
		return true
	}
	for i := range e.holders {
		if m.ancestry.IsAncestorOf(e.holders[i].owner, owner) {
			return true
		}
	}
	return false
}

// grantLocked adds one unit of mode for owner on e and indexes the key
// under the owner.
func (m *Manager) grantLocked(e *entry, key string, owner Owner, mode Mode) {
	h := e.holder(owner)
	if h == nil {
		e.holders = append(e.holders, holder{owner: owner})
		h = &e.holders[len(e.holders)-1]
	}
	h.counts[mode]++
	m.indexKeyLocked(owner, key)
	m.grants++
}

// grantWaitersLocked hands the entry's lock to queued waiters strictly in
// FIFO order: the head is granted while grantable (consecutive compatible
// waiters — e.g. a run of readers — are granted together), and granting
// stops at the first waiter that still conflicts. Performed under the
// table's mutex, so no concurrently arriving acquire can barge between a
// release and the grant it enables.
func (m *Manager) grantWaitersLocked(e *entry, key string) {
	for len(e.waiters) > 0 {
		w := e.waiters[0]
		if !m.grantableLocked(e, w.owner, w.mode) {
			break
		}
		e.waiters = e.waiters[1:]
		m.grantLocked(e, key, w.owner, w.mode)
		w.granted = true
		close(w.ready)
	}
}

// gcLocked retires an entry with no holders and no waiters to the free
// list.
func (m *Manager) gcLocked(e *entry, key string) {
	if len(e.holders) == 0 && len(e.waiters) == 0 {
		delete(m.entries, key)
		if len(m.freeEntries) < maxFree {
			e.waiters = nil // the queue's backing array was sliced away from its head
			m.freeEntries = append(m.freeEntries, e)
		}
	}
}

// Acquire blocks until owner holds mode on key or ctx is done. Re-entrant:
// an owner may acquire the same or a different mode repeatedly; each
// successful Acquire needs a matching Release (or a ReleaseAll).
//
// Waiting is FIFO-fair: if other acquirers are already queued, a new
// request queues behind them even when it is compatible with the current
// holders (no barging), unless queueing would deadlock against the
// owner's own holds (re-entrancy, blocking promotion, Moss ancestry).
//
// An owner that already holds a weaker mode and acquires a stronger one is
// performing a blocking promotion; the non-blocking variant used at commit
// time is TryPromote.
func (m *Manager) Acquire(ctx context.Context, owner Owner, key string, mode Mode) error {
	w := m.Request(owner, key, mode)
	if w == nil {
		return nil
	}
	_, err := m.Await(ctx, w)
	return err
}

// Await waits on w, a request Request queued, until it is granted or ctx is
// done, and returns how long it waited once granted. A done ctx gives the
// wait up (Abandon). Only a queued request reads the clock, so a caller that
// times its lock waits pays nothing for a grant made at once.
func (m *Manager) Await(ctx context.Context, w *Wait) (time.Duration, error) {
	start := time.Now()
	select {
	case <-w.ready:
		if err := w.Err(); err != nil {
			return 0, err
		}
		wait := time.Since(start)
		if m.obs != nil {
			m.obs.LockGranted(wait)
		}
		return wait, nil
	case <-ctx.Done():
		return 0, m.Abandon(w, ctx.Err())
	}
}

// Request is Acquire without the wait: it grants mode on key to owner at
// once and returns nil, or queues the request and returns its Wait, which
// the caller waits on (Wait.Ready) or gives up (Abandon).
func (m *Manager) Request(owner Owner, key string, mode Mode) *Wait {
	m.mu.Lock()
	e := m.entryLocked(key)
	if m.grantableLocked(e, owner, mode) && m.mayOvertakeLocked(e, owner) {
		m.grantLocked(e, key, owner, mode)
		m.mu.Unlock()
		return nil
	}
	w := &Wait{owner: owner, key: key, mode: mode, ready: make(chan struct{})}
	e.waiters = append(e.waiters, w)
	// Indexed like a hold, so that ReleaseAll finds the queue entry too.
	m.indexKeyLocked(owner, key)
	depth := len(e.waiters)
	m.mu.Unlock()
	if m.obs != nil {
		m.obs.LockQueued(depth)
	}
	return w
}

// Abandon gives up w, a wait its caller no longer waits on, and returns the
// error its acquire fails with, cause wrapped. A grant that raced the
// caller is undone — one unit released — so an abandoned wait never leaves
// its owner holding the lock.
func (m *Manager) Abandon(w *Wait, cause error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[w.key]
	if !ok {
		// Only reachable when a racing ReleaseAll for this owner already
		// dropped the granted lock and GC'd the entry; nothing is held.
		return w.fail(cause)
	}
	if w.granted {
		m.releaseOneLocked(e, w.key, w.owner, w.mode)
		return w.fail(cause)
	}
	if i := slices.Index(e.waiters, w); i >= 0 {
		e.waiters = slices.Delete(e.waiters, i, i+1)
	}
	// Removing a waiter can unblock the ones behind it (a cancelled
	// writer between readers).
	m.grantWaitersLocked(e, w.key)
	m.gcLocked(e, w.key)
	return w.fail(cause)
}

// Grantable reports whether owner may take mode on key at once: no holder
// of another owner conflicts with it, and no acquirer waits ahead of it.
// overtake says that the owner holds the entry in its caller's own books,
// which lets it pass the waiters as a holder's re-entrant acquire does. It
// records nothing.
func (m *Manager) Grantable(owner Owner, key string, mode Mode, overtake bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return true
	}
	return m.grantableLocked(e, owner, mode) && (overtake || m.mayOvertakeLocked(e, owner))
}

// Grant records one unit of mode on key for owner, unchecked: for a caller
// that found it Grantable and kept the hold in its own books since, under a
// serialisation of its own that no other acquire passed.
func (m *Manager) Grant(owner Owner, key string, mode Mode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.grantLocked(m.entryLocked(key), key, owner, mode)
}

// Grants counts the grants the table has made, queued ones and Grant's
// included, for inspection and tests.
func (m *Manager) Grants() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.grants
}

// releaseOneLocked drops one unit of mode held by owner and hands the
// entry to queued waiters.
func (m *Manager) releaseOneLocked(e *entry, key string, owner Owner, mode Mode) {
	h := e.holder(owner)
	if h == nil || h.counts[mode] == 0 {
		return
	}
	h.counts[mode]--
	if h.empty() {
		e.dropHolder(owner)
		// A request of the owner's still queued here keeps the key in its
		// index, for ReleaseAll to fail.
		if !slices.ContainsFunc(e.waiters, func(w *Wait) bool { return w.owner == owner }) {
			m.unindexKeyLocked(owner, key)
		}
	}
	m.grantWaitersLocked(e, key)
	m.gcLocked(e, key)
}

// TryAcquire is a non-blocking Acquire: it either grants immediately or
// returns ErrRefused. The paper's Insert operation uses this shape — it
// "will only succeed when there are no clients using A" (§4.1.2). Like
// Acquire it refuses to overtake queued waiters, so it cannot starve the
// FIFO queue.
func (m *Manager) TryAcquire(owner Owner, key string, mode Mode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entryLocked(key)
	if !m.grantableLocked(e, owner, mode) || !m.mayOvertakeLocked(e, owner) {
		m.gcLocked(e, key)
		return fmt.Errorf("%s on %q for %s: %w", mode, key, owner, ErrRefused)
	}
	m.grantLocked(e, key, owner, mode)
	return nil
}

// TryPromote atomically converts one unit of owner's hold from mode `from`
// to mode `to`. It refuses (ErrRefused) if any other non-ancestor holder
// conflicts with `to`, or if owner does not hold `from`.
//
// This is the §4.2.1 commit-time step: read → Write promotion is refused
// while other clients hold read locks, whereas read → ExcludeWrite
// succeeds alongside them.
func (m *Manager) TryPromote(owner Owner, key string, from, to Mode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return fmt.Errorf("promote on %q: owner %s holds nothing: %w", key, owner, ErrRefused)
	}
	h := e.holder(owner)
	if h == nil || h.counts[from] == 0 {
		return fmt.Errorf("promote on %q: owner %s does not hold %s: %w", key, owner, from, ErrRefused)
	}
	if !m.grantableLocked(e, owner, to) {
		return fmt.Errorf("promote %s->%s on %q for %s: %w", from, to, key, owner, ErrRefused)
	}
	h.counts[from]--
	h.counts[to]++
	// A promotion to a weaker mode can admit the queue's head.
	m.grantWaitersLocked(e, key)
	return nil
}

// Release drops one unit of mode held by owner on key. Releasing a lock
// not held is a programming error and is reported.
func (m *Manager) Release(owner Owner, key string, mode Mode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return fmt.Errorf("lockmgr: release %s on %q: no such entry", mode, key)
	}
	if h := e.holder(owner); h == nil || h.counts[mode] == 0 {
		return fmt.Errorf("lockmgr: release %s on %q: not held by %s", mode, key, owner)
	}
	m.releaseOneLocked(e, key, owner, mode)
	return nil
}

// ReleaseAll drops every lock held by owner — the end of a top-level
// action — and fails the owner's acquires still parked in a queue with
// ErrReleased: a request whose caller gave up and ended the action while
// its handler lived on must not be granted the lock afterwards, when
// nobody is left to release it.
func (m *Manager) ReleaseAll(owner Owner) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys, ok := m.owners[owner]
	if !ok {
		return
	}
	delete(m.owners, owner)
	for _, key := range keys {
		e := m.entries[key]
		if e == nil { // a cancelled Acquire's key, its entry since retired
			continue
		}
		e.dropHolder(owner)
		e.waiters = slices.DeleteFunc(e.waiters, func(w *Wait) bool {
			if w.owner != owner {
				return false
			}
			close(w.ready) // ungranted: the parked Acquire fails
			return true
		})
		m.grantWaitersLocked(e, key)
		m.gcLocked(e, key)
	}
	clear(keys)
	m.recycleKeysLocked(keys[:0])
}

// QueueDepth reports how many acquirers are waiting on key, for
// inspection and tests.
func (m *Manager) QueueDepth(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return 0
	}
	return len(e.waiters)
}

// HolderModes reports, for inspection and tests, the strongest mode each
// owner holds on key, sorted by owner for determinism.
func (m *Manager) HolderModes(key string) []struct {
	Owner Owner
	Mode  Mode
} {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return nil
	}
	out := make([]struct {
		Owner Owner
		Mode  Mode
	}, 0, len(e.holders))
	for i := range e.holders {
		h := &e.holders[i]
		out = append(out, struct {
			Owner Owner
			Mode  Mode
		}{h.owner, h.strongest()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// Holds reports whether owner currently holds at least `mode`-strength
// access on key (a Write holder Holds Read, per promotion ordering; note
// ExcludeWrite does not imply Read semantics — it is checked exactly).
func (m *Manager) Holds(owner Owner, key string, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return false
	}
	h := e.holder(owner)
	if h == nil {
		return false
	}
	if mode == ExcludeWrite {
		return h.counts[ExcludeWrite] > 0 || h.counts[Write] > 0
	}
	return h.strongest() >= mode
}
