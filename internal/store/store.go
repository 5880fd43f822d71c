// Package store implements the Object Storage service of the paper (§2.2):
// a stable-storage repository for the states of persistent objects, named
// by UIDs.
//
// A Store models one node's stable object store. Data written through the
// two-phase interface (Prepare/Commit/Abort) or directly (Put) survives
// node crashes. The store keeps no state of its own: it reads the one
// image of the node's stable contents, the storage.State its backend's
// Load returns, and changes it only by writing through the backend, which
// applies each record to the image (after the WAL took it, on disk). With
// the default in-memory backend the simulation keeps the backend value
// across Crash() — matching the paper's failure assumptions (§2.1) — while
// a disk backend (storage.OpenDisk) makes the state survive real process
// death: Shutdown lets go of the image and closes the files, Reopen
// replays them into a new one. Prepared-but-undecided intentions are
// stable too, and are resolved at recovery against the commit log
// (presumed abort).
//
// One writer per part of the image: only the Store that opened a backend
// writes its versions and intentions (and so its pins), always under the
// Store's mutex, which is why the Store may read them under that mutex
// alone; the node's coordinator outcome log, which shares the backend,
// writes and reads only the outcomes, under the backend's own lock.
//
// Each committed object version carries a sequence number; two store nodes
// hold *mutually consistent* states of an object exactly when their
// sequence numbers for it are equal, which is the property the Object
// State database's St sets are maintained to guarantee.
//
// The reference model (TestStoreBackendsAgree) runs one caller and a
// backend that never fails, and needs neither more. Concurrent callers: an
// operation checks the image and appends all its records in one critical
// section of the Store's mutex, so the image and the log of any concurrent
// run are those of the sequential run in mutex order, and only the Sync,
// outside the mutex, overlaps; it decides when an operation answers, never
// what it wrote, and a log is durable in prefixes, so a crash keeps a
// prefix of that sequential log — one of the cuts the model checks (the
// coordinator log's records, appended under the backend's lock, are ops of
// that order too). A failed backend write: the store answers nothing from
// then on (Store.st), so no reply can show it, and what a Reopen reads back
// is again a prefix of the log, the model's crash image. The silence has a
// test of its own on both backends:
// TestStoreFailedWriteAnswersNothingUntilReopened.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/storage"
	"repro/internal/uid"
)

// ErrNoState reports that a store holds no committed state for a UID.
var ErrNoState = errors.New("store: no state for object")

// ErrBusy reports that a conflicting prepared intention exists for a UID.
var ErrBusy = errors.New("store: object has a prepared intention")

// ErrClosed reports an operation on a store whose backend is shut down
// (the owning node is crashed).
var ErrClosed = errors.New("store: stable storage is shut down")

// ErrStaleVersion reports a prepared write whose sequence number does not
// extend this store's committed chain (it must be committed seq + 1). On
// its own it means the WRITER is behind — this store already holds that
// version or a later one — so the server has been serving an out-of-date
// activated copy and must re-activate from the current state; the store
// holds the newer state and must never be excluded for refusing.
var ErrStaleVersion = errors.New("store: stale version chain")

// ErrStoreBehind accompanies ErrStaleVersion (errors.Is matches both) when
// it is this STORE that is behind: the write skips past committed seq + 1,
// so the store missed commits and the caller excludes it from St.
var ErrStoreBehind = errors.New("store: store is behind the version chain")

// Version is one committed object state.
type Version struct {
	// Data is the serialized object state.
	Data []byte
	// Seq is the state's version number; replicas with equal Seq for a UID
	// are mutually consistent.
	Seq uint64
	// TxID is the action that committed this version ("" for direct puts).
	TxID string
	// Pinned is set by Read when a transaction's prepared intention is
	// pending on the object: a later version may already be decided, with
	// only its phase-two message missing (see ResolveDecided).
	Pinned bool
}

// Write is one intended object-state update inside a transaction.
type Write struct {
	UID  uid.UID
	Data []byte
	// Seq is assigned by the committing action so that all replica stores
	// record the same version number.
	Seq uint64
	// key is UID's canonical form when the caller already holds it (the
	// store service has it from the request), so it is not rendered again.
	key string
}

// keyLen sizes the stack buffer a key is rendered into for a lookup:
// indexing a map by string(b) does not allocate.
const keyLen = 96

// appendKey appends w's key to dst.
func (w *Write) appendKey(dst []byte) []byte {
	if w.key != "" {
		return append(dst, w.key...)
	}
	return w.UID.Append(dst)
}

// Store is one node's stable object store. It is safe for concurrent use.
type Store struct {
	name    string
	factory storage.Factory

	mu      sync.Mutex
	backend storage.Backend // nil while shut down
	// st is the backend's image (see the package documentation), nil while
	// shut down and after a failed backend write: the image may then hold
	// part of the operation, and the store answers nothing until reopened.
	st *storage.State
}

// New returns an empty store for the named node over a fresh in-memory
// backend — the simulation default, where "stable" means the backend
// value is kept across the simulated crash.
func New(name string) *Store {
	s, err := OpenWith(name, storage.MemFactory())
	if err != nil {
		// The in-memory factory cannot fail.
		panic(fmt.Sprintf("store: open %s: %v", name, err))
	}
	return s
}

// OpenWith opens the named node's store over the backend the factory
// yields, loading any persisted state. The factory is kept for Reopen:
// after a Shutdown (crash) it opens the backend again.
func OpenWith(name string, f storage.Factory) (*Store, error) {
	s := &Store{name: name, factory: f}
	if err := s.Reopen(); err != nil {
		return nil, err
	}
	return s, nil
}

// Name returns the owning node's name.
func (s *Store) Name() string { return s.name }

// Backend returns the store's current storage backend (nil while shut
// down). The coordinator outcome log of a node conventionally shares it,
// so commit records live on the same stable storage as object state.
func (s *Store) Backend() storage.Backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backend
}

// Shutdown models the stable-storage side of a node crash: the backend
// is closed and the store lets go of its image. With a disk backend
// nothing of the store's contents remains in memory; with the in-memory
// backend the data lives on inside the (kept) backend value. Shutdown is
// idempotent.
func (s *Store) Shutdown() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend == nil {
		return nil
	}
	err := s.backend.Close()
	s.backend, s.st = nil, nil
	return err
}

// Reopen reverses a Shutdown: the factory opens the backend (replaying
// its contents, for a disk backend) and the store reads the image it
// loads. Reopening an open store is a no-op.
func (s *Store) Reopen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend != nil {
		return nil
	}
	b, err := s.factory()
	if err != nil {
		return fmt.Errorf("store: reopen %s: %w", s.name, err)
	}
	st, err := b.Load()
	if err != nil {
		return fmt.Errorf("store: load %s: %w", s.name, err)
	}
	s.backend, s.st = b, st
	return nil
}

// wroteLocked returns the error of a backend write; on one, the store stops
// answering until Shutdown and Reopen (see Store.st). s.mu is held.
func (s *Store) wroteLocked(err error) error {
	if err != nil {
		s.st = nil
	}
	return err
}

// synced ends a mutating method, outside s.mu (see Put): it Syncs b unless
// the method failed, and names op and what in the error.
func (s *Store) synced(b storage.Backend, err error, op, what string) error {
	if err == nil {
		err = b.Sync()
	}
	if err != nil {
		return fmt.Errorf("%s: %s %s: %w", s.name, op, what, err)
	}
	return nil
}

// Read returns the committed version of id.
func (s *Store) Read(id uid.UID) (Version, error) {
	var buf [keyLen]byte
	return s.read(id.Append(buf[:0]))
}

func (s *Store) read(key []byte) (Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return Version{}, fmt.Errorf("%s: %w", s.name, ErrClosed)
	}
	v, ok := s.st.Versions[string(key)]
	if !ok {
		return Version{}, fmt.Errorf("%s: %s: %w", s.name, string(key), ErrNoState)
	}
	_, pinned := s.st.Pins[string(key)]
	// Copy data so callers cannot alias the image.
	return Version{Data: append([]byte(nil), v.Data...), Seq: v.Seq, TxID: v.Tx, Pinned: pinned}, nil
}

// SeqOf returns the committed sequence number for id, or (0, false).
func (s *Store) SeqOf(id uid.UID) (uint64, bool) {
	var buf [keyLen]byte
	key := id.Append(buf[:0])
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return 0, false
	}
	v, ok := s.st.Versions[string(key)]
	return v.Seq, ok
}

// Holds returns the committed sequence number for id, 0 when it has none,
// and whether its committed data is data.
func (s *Store) Holds(id uid.UID, data []byte) (uint64, bool) {
	var buf [keyLen]byte
	key := id.Append(buf[:0])
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return 0, false
	}
	v, ok := s.st.Versions[string(key)]
	return v.Seq, ok && bytes.Equal(v.Data, data)
}

// Put writes a committed version directly, outside any transaction — used
// to install initial states and by recovery catch-up. The write is
// durable when Put returns.
//
// Mutating methods follow one discipline: validate, then append the
// backend records — which apply them to the image — under the store
// mutex, so WAL order always matches image order; then Sync OUTSIDE the
// mutex before returning. Nothing is acknowledged before it is durable,
// and because a WAL is prefix-durable (an fsync covers everything appended
// before it), any state a later operation built on is durable by the time
// that operation acks. Releasing the mutex across the fsync is what lets a
// disk backend's group commit coalesce concurrent transactions' syncs.
func (s *Store) Put(id uid.UID, data []byte, seq uint64) error {
	return s.put(id.String(), data, seq)
}

func (s *Store) put(key string, data []byte, seq uint64) error {
	s.mu.Lock()
	b, err := s.backend, ErrClosed
	if s.st != nil {
		err = s.wroteLocked(b.PutVersion(key, storage.Version{Data: append([]byte(nil), data...), Seq: seq}))
	}
	s.mu.Unlock()
	return s.synced(b, err, "put", key)
}

// Remove deletes any committed state for id.
func (s *Store) Remove(id uid.UID) error {
	key := id.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	err := ErrClosed
	if s.st != nil {
		err = s.wroteLocked(s.backend.DeleteVersion(key))
	}
	if err != nil {
		return fmt.Errorf("%s: remove %s: %w", s.name, key, err)
	}
	return nil
}

// admitLocked is the admission check of Prepare and CommitOnePhase (op
// names which in errors): the store is open, no other transaction has a
// prepared intention on any of the objects (ErrBusy), and every write
// extends its object's committed chain by exactly one, guarding against
// stale activated copies writing back over newer state — the error says
// which side is stale. It returns the writes with their data copied and
// their keys rendered, as the image will hold them. s.mu is held.
func (s *Store) admitLocked(op, tx string, writes []Write) ([]storage.Intention, error) {
	if s.st == nil {
		return nil, fmt.Errorf("%s: %s %s: %w", s.name, op, tx, ErrClosed)
	}
	var buf [keyLen]byte
	for i := range writes {
		w := &writes[i]
		key := w.appendKey(buf[:0])
		if other, ok := s.st.Pins[string(key)]; ok && other != tx {
			return nil, fmt.Errorf("%s: %s pinned by %s: %w", s.name, string(key), other, ErrBusy)
		}
		if cur, ok := s.st.Versions[string(key)]; ok && w.Seq != cur.Seq+1 {
			err := fmt.Errorf("%s: %s write seq %d, committed seq %d: %w", s.name, string(key), w.Seq, cur.Seq, ErrStaleVersion)
			if w.Seq > cur.Seq+1 {
				err = fmt.Errorf("%w: %w", err, ErrStoreBehind)
			}
			return nil, err
		}
	}
	copies := make([]storage.Intention, len(writes))
	for i, w := range writes {
		if w.key == "" {
			w.key = w.UID.String()
		}
		copies[i] = storage.Intention{ID: w.key, Write: storage.Write{Data: append([]byte(nil), w.Data...), Seq: w.Seq}}
	}
	return copies, nil
}

// Prepare stably records the writes of transaction tx: the intentions
// are durable — synced through the backend — before Prepare returns,
// which is what entitles the store to vote commit. It refuses with
// ErrBusy if another transaction has a prepared intention on any of the
// same objects. Prepares for the same tx merge: a later write to the same
// object replaces the earlier one, writes to new objects accumulate. This
// makes both idempotent retries and multiple per-object participants of
// one action safe.
func (s *Store) Prepare(tx string, writes []Write) error {
	s.mu.Lock()
	copies, err := s.admitLocked("prepare", tx, writes)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	b := s.backend
	err = s.wroteLocked(b.Stage(tx, copies, false))
	s.mu.Unlock()
	// The intention must be durable before the vote this return represents.
	return s.synced(b, err, "prepare", tx)
}

// Commit applies tx's prepared intentions; the commit is durable when it
// returns. Committing an unknown tx is a no-op (the intention may have
// already been applied — idempotent retry).
func (s *Store) Commit(tx string) error {
	s.mu.Lock()
	b, err := s.backend, ErrClosed
	if s.st != nil {
		err = nil
		if _, ok := s.st.Intentions[tx]; ok {
			err = s.wroteLocked(b.CommitTx(tx))
		}
	}
	s.mu.Unlock()
	// Sync even on the unknown-tx no-op path: a duplicate Commit racing
	// the original must not acknowledge before the original's record is
	// durable (the ack licenses the coordinator to prune its outcome
	// record).
	return s.synced(b, err, "commit", tx)
}

// CommitOnePhase validates and applies writes for tx in one step — the
// single-participant combined prepare+commit of the voting 2PC fast
// path. The same admission checks as Prepare apply (conflicting pinned
// intentions, version-chain extension); on success the writes are
// committed atomically — under the store mutex, and across a crash: after
// recovery either all of writes are committed or none is — together with
// any intentions previously prepared under the same tx, and nothing is
// left pending. On failure the store is untouched except that earlier
// intentions of tx remain (the coordinator's roll-back clears them).
// A commit record is written only when there is something to fold: a lone
// write with no earlier intentions is one version record, atomic alone.
func (s *Store) CommitOnePhase(tx string, writes []Write) error {
	s.mu.Lock()
	copies, err := s.admitLocked("commit-one-phase", tx, writes)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	b := s.backend
	// Several writes, or one beside earlier intentions of tx, must land
	// all-or-nothing over a crash (the group view database commits a
	// multi-entry update this way), so they are staged as intentions and
	// the single commit record folds them all: one append (one write(2) on
	// Disk) and one sync, outside the mutex, cover it.
	if len(copies) > 1 || len(s.st.Intentions[tx]) > 0 {
		err = b.Stage(tx, copies, true)
	} else if len(copies) == 1 {
		w := copies[0]
		err = b.PutVersion(w.ID, storage.Version{Data: w.Data, Seq: w.Seq, Tx: tx})
	}
	err = s.wroteLocked(err)
	s.mu.Unlock()
	return s.synced(b, err, "commit-one-phase", tx)
}

// Abort discards tx's prepared intentions; unknown tx is a no-op. The
// abort record is appended but not synced: losing it to a crash merely
// leaves an intention that presumed abort rolls back at recovery.
func (s *Store) Abort(tx string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return fmt.Errorf("%s: abort %s: %w", s.name, tx, ErrClosed)
	}
	if _, ok := s.st.Intentions[tx]; ok {
		if err := s.wroteLocked(s.backend.AbortTx(tx)); err != nil {
			return fmt.Errorf("%s: abort %s: %w", s.name, tx, err)
		}
	}
	return nil
}

// PendingTxs returns the transaction IDs with prepared, undecided
// intentions, sorted for determinism. Recovery resolves these against the
// commit log.
func (s *Store) PendingTxs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return nil
	}
	out := make([]string, 0, len(s.st.Intentions))
	for tx := range s.st.Intentions {
		out = append(out, tx)
	}
	sort.Strings(out)
	return out
}

// Objects returns the UIDs with committed state, sorted by string form.
func (s *Store) Objects() []uid.UID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return nil
	}
	keys := make([]string, 0, len(s.st.Versions))
	for k := range s.st.Versions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]uid.UID, 0, len(keys))
	for _, k := range keys {
		// Every key was a UID's canonical form when it was written.
		if id, err := uid.Parse(k); err == nil {
			out = append(out, id)
		}
	}
	return out
}

// Outcome is a transaction's decided fate, as recorded by the commit log.
type Outcome int

// Transaction outcomes.
const (
	// OutcomeUnknown is the coordinator's AFFIRMATIVE "no record" answer:
	// the transaction never reached its commit point, so presumed abort
	// applies.
	OutcomeUnknown Outcome = iota
	OutcomeCommitted
	OutcomeAborted
	// OutcomeUnavailable means the log could not be consulted at all (the
	// coordinator is unreachable or the query failed). It is NOT a license
	// to presume abort — a participant that voted commit must keep its
	// intention pending until an affirmative answer arrives; rolling back
	// on a transient partition could undo a committed transaction.
	OutcomeUnavailable
)

// OutcomeLog answers recovery-time outcome queries — the minimal "commit
// record" service of a 2PC coordinator.
type OutcomeLog interface {
	Lookup(tx string) Outcome
}

// ResolveDecided resolves pending intentions that have an AFFIRMATIVE
// recorded outcome — committed ones apply, aborted ones roll back — and
// leaves everything else (no record, coordinator unreachable) pending.
// Unlike Recover it never presumes abort: it runs against LIVE stores —
// the write-back busy-retry path, where a store still pinned by a
// transaction whose phase-two message was lost must learn the real
// outcome before a new transaction gives up on it — and a transaction
// with no record yet may simply be mid-flight between its commit vote
// and its commit record; only a recovering participant may read "no
// record" as abort. A nil log resolves nothing.
func (s *Store) ResolveDecided(log OutcomeLog) (applied, aborted []string) {
	if log == nil {
		return nil, nil
	}
	return s.resolve(log, false)
}

// Recover resolves every pending intention against log: committed
// transactions are applied, unknown/aborted ones rolled back (presumed
// abort — OutcomeUnknown is the coordinator's affirmative "no commit
// record" answer), and intentions whose coordinator could not be
// consulted (OutcomeUnavailable) are left pending for a later retry. A
// nil log rolls everything back (no coordinator will ever answer — the
// caller asserts presumed abort). It returns the transactions applied
// and aborted; still-pending ones remain visible via PendingTxs.
func (s *Store) Recover(log OutcomeLog) (applied, aborted []string) {
	return s.resolve(log, true)
}

// resolve applies the pending intentions log records as committed and rolls
// back those it records as aborted — and, with presumeAbort, those it has
// no record of (a nil log has none).
func (s *Store) resolve(log OutcomeLog, presumeAbort bool) (applied, aborted []string) {
	for _, tx := range s.PendingTxs() {
		outcome := OutcomeUnknown
		if log != nil {
			outcome = log.Lookup(tx)
		}
		switch {
		case outcome == OutcomeCommitted:
			// Commit never fails for a known tx on healthy storage.
			_ = s.Commit(tx)
			applied = append(applied, tx)
		case outcome == OutcomeAborted || outcome == OutcomeUnknown && presumeAbort:
			_ = s.Abort(tx)
			aborted = append(aborted, tx)
		}
	}
	return applied, aborted
}
