// Package core implements the paper's primary contribution: the naming and
// binding service for persistent replicated objects (§3–§4).
//
// For every persistent object A the service maintains two sets of
// node-related data (§3.1):
//
//   - Sv_A — nodes capable of running a server for A, kept by the Object
//     Server database together with per-node *use lists* <client, count>
//     (§4.1.3);
//   - St_A — nodes whose object stores hold A's (mutually consistent,
//     latest) state, kept by the Object State database (§4.2).
//
// Following the Arjuna implementation the paper reports (§5), both
// databases are realised as a single persistent object — the *group view
// database* (DB) — whose entries are concurrency-controlled independently
// with read, write, and exclude-write locks, and whose operations execute
// under atomic actions. The database object lives on one node, and it is
// persistent entry by entry: every Sv entry and every St entry has its own
// durable record in that node's stable store (a binary rpc.Wire record
// under a key derived from the object's UID), so the unit of locking is
// also the unit of durability. A committing action renders the records of
// exactly the entries it changed — a Deregister a tombstone, and the
// tombstone of an object that moved names the database it went to: the
// forward every later unknown-object answer for its UID carries (MovedTo) —
// and releases its locks at once. The database writes once per message: at
// its end, before the reply, one atomic stable write holds every record
// committed since the last write, each entry's last rendering once, and
// none whose content its durable record already holds (a Decrement and a
// re-Increment of one counter in one message write nothing). No reply
// leaves before a write covers every earlier commit, so a crash never takes
// back anything a reply showed, and a failed write stops the database (see
// writeRecordsLocked). Locks and uncommitted mutations are volatile and die
// with the node, and recovery rebuilds the database — forwards included —
// from the records alone.
//
// Lock ownership: every action is top-level, so a lock owner is a top-level
// action ID. Every scheme in the paper either holds database locks until
// the client action ends (Figure 6) or takes them in short top-level
// actions (Figures 7–8), each its message's own (BatchReq). A named action
// (a client's, or a recovery's) is kept in the database's action tables —
// its undo snapshots in pending, its node in clients for the janitor, its
// locks in the lock table — from its first op to its EndAction. A message
// runs in one critical section, under db.mu from its first op to its reply
// but while it waits for a lock, and its own action never outlives it, so
// that action is kept in the handler's frame alone: the janitor has nothing
// of it to abort, its undo set comes from a small free list and goes back
// there when the message ends, and its locks are checked against the table
// and kept in a list beside it (DB.held), as no other message can see
// them. Only when the message must wait are they recorded in the table,
// under a name minted then, groupview/own/N. The lock table thus holds the
// locks that outlive their message or must wait, and nothing else.
//
// Each registered object's keys — its entries' names in the lock table
// (sv/…, st/…) and its records' keys in the stable store (groupview/sv/…,
// groupview/st/…) — are rendered once and kept beside its entries (see
// entryKeys). A commit encodes its records into scratch the database
// reuses until the next write; the stable store copies what it keeps.
//
// Binder (binder.go) implements the three access schemes; recovery.go the
// §4.1.2/§4.2 recovery protocols; janitor.go the cleanup of §4.1.3.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/lockmgr"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// Application error codes for DB operations.
const (
	// CodeUnknownObject reports an operation on an unregistered UID.
	CodeUnknownObject = "unknown-object"
	// CodeLockRefused reports a refused lock acquire or promotion — per
	// §4.2.1 the client action must abort.
	CodeLockRefused = "lock-refused"
	// CodeNotQuiescent reports an Insert or a Deregister attempted while the
	// object's use lists are non-empty (§4.1.3: quiescent means every use
	// list is empty), and a Repair refused because the object is in use at
	// servers the repairing binding does not run on. The write lock guards
	// against clients of the standard scheme; the use-list check guards
	// against clients of the enhanced schemes, whose locks are released
	// between bind and decrement.
	CodeNotQuiescent = "not-quiescent"
	// CodeStopped is the answer of a database whose stable write failed,
	// until its node restarts: nothing of the message that gets it is
	// durable (DB.writeLocked).
	CodeStopped = "stopped"
)

// useKey names one use-list counter of an Sv entry: the bindings client
// node client holds against server node host (§4.1.3).
type useKey struct {
	host, client transport.Addr
}

// serverEntry is the Object Server database record for one object.
type serverEntry struct {
	// Nodes is Sv_A in preference order.
	Nodes []transport.Addr
	// Use maps server node → client node → count.
	Use map[transport.Addr]map[transport.Addr]int
	// committed holds the non-zero counters as the durable record has them:
	// Use runs ahead of it by the deltas of actions in flight under Adjust
	// locks, which run concurrently, so no commit may carry another's. A
	// commit moves it by the action's deltas, or sets it to Use for an
	// action holding the write lock (commitLocked).
	committed map[useKey]int
}

// stateEntry is the Object State database record for one object.
type stateEntry struct {
	// Nodes is St_A.
	Nodes []transport.Addr
	// Class records the object's class so that recovering nodes and
	// binders can activate without out-of-band knowledge.
	Class string
}

// Every Sv, St and candidate list the database keeps or hands out is a
// read-only value: an entry's list is replaced, never changed in place, and
// has cap == len, so that a holder's append reallocates instead of writing
// into the entry's array. An op therefore returns the lists it read without
// copying them, a snapshot shares its entry's, and a reply encodes them
// after the message has let go of db.mu.

// withNode returns nodes plus host, as a list of its own.
func withNode(nodes []transport.Addr, host transport.Addr) []transport.Addr {
	return slices.Clip(append(nodes[:len(nodes):len(nodes)], host))
}

// withoutNodes returns nodes less hosts, as a list of its own.
func withoutNodes(nodes []transport.Addr, hosts ...transport.Addr) []transport.Addr {
	return slices.Clip(slices.DeleteFunc(slices.Clone(nodes), func(n transport.Addr) bool { return slices.Contains(hosts, n) }))
}

func (e *serverEntry) clone() *serverEntry {
	cp := &serverEntry{
		Nodes: e.Nodes,
		Use:   make(map[transport.Addr]map[transport.Addr]int, len(e.Use)),
	}
	for host, clients := range e.Use {
		m := make(map[transport.Addr]int, len(clients))
		for c, n := range clients {
			m[c] = n
		}
		cp.Use[host] = m
	}
	// Shared: a snapshot is restored only under the write lock, beside
	// which no other action commits to the entry.
	cp.committed = e.committed
	return cp
}

func (e *stateEntry) clone() *stateEntry {
	cp := *e
	return &cp
}

// drop removes hosts from Sv with their use lists.
func (e *serverEntry) drop(hosts ...transport.Addr) {
	e.Nodes = withoutNodes(e.Nodes, hosts...)
	for _, host := range hosts {
		delete(e.Use, host)
	}
}

// commitCount sets the committed counter k to n; zero or less drops it.
func (e *serverEntry) commitCount(k useKey, n int) {
	if n <= 0 {
		delete(e.committed, k)
		return
	}
	if e.committed == nil {
		e.committed = make(map[useKey]int)
	}
	e.committed[k] = n
}

// settle makes the counters as they stand the committed ones.
func (e *serverEntry) settle() {
	clear(e.committed)
	for host, clients := range e.Use {
		for c, n := range clients {
			e.commitCount(useKey{host, c}, n)
		}
	}
}

// record renders the entry's committed state into rec, reusing its Use.
// The counters are sorted, so that equal content encodes to equal bytes
// (writeRecordsLocked).
func (e *serverEntry) record(rec *EntryRecord) *EntryRecord {
	*rec = EntryRecord{Nodes: e.Nodes, Use: rec.Use[:0]}
	for k, n := range e.committed {
		rec.Use = append(rec.Use, UseCount{k.host, k.client, n})
	}
	slices.SortFunc(rec.Use, func(a, b UseCount) int {
		return cmp.Or(cmp.Compare(a.Host, b.Host), cmp.Compare(a.Client, b.Client))
	})
	return rec
}

func (e *stateEntry) record(rec *EntryRecord) *EntryRecord {
	*rec = EntryRecord{Nodes: e.Nodes, Class: e.Class, Use: rec.Use[:0]}
	return rec
}

// tombstone renders the record a committed Deregister leaves into rec: to,
// when set, is the database the object moved to.
func tombstone(rec *EntryRecord, to transport.Addr) *EntryRecord {
	*rec = EntryRecord{Deleted: true, Use: rec.Use[:0]}
	if to != "" {
		rec.Nodes = append(rec.Nodes, to)
	}
	return rec
}

// useDelta is one use-count adjustment an action made under an Adjust lock.
type useDelta struct {
	id  uid.UID
	key useKey
	n   int
}

// snapshotSet records pre-images of entries an action has mutated, for
// abort. Its keys are also the action's write set: commit rewrites the
// durable records of exactly these entries.
type snapshotSet struct {
	servers map[uid.UID]*serverEntry // nil value = entry did not exist
	states  map[uid.UID]*stateEntry
	// useDeltas logs the use-count adjustments the action made under
	// Adjust locks. Adjust holders run concurrently, so abort cannot
	// restore a pre-image (it would clobber sibling adjustments); it
	// applies the inverse deltas instead, which is exact because counter
	// addition commutes. An action that holds the entry's write lock
	// snapshots instead (see adjustUse); every delta therefore predates
	// any snapshot the same action took of that entry, and abort applies
	// the inverses on top of the restored pre-image.
	useDeltas []useDelta
	// movedTo names, for each object the action deregistered, the database
	// it moves to: the forward its commit sets (commitLocked).
	movedTo map[uid.UID]transport.Addr
}

// maxSpare bounds the database's free list of undo sets, and the entries
// a set may have held and still go back on it: a cleared map keeps its
// buckets, which a later range walks.
const maxSpare = 8

// dbAction is the action an operation runs under: the lock owner and the
// node the message came from. A named action is looked up in the action
// tables (pending, clients) by name; the message's own action (own) keeps
// its undo set here, in batch's frame, once it has one, and its locks in
// DB.held until they are recorded in the table under a minted name (see
// DB.lockLocked). first is the number of the first commit made under the
// value (DB.commits), 0 before one: batch asks it what a failed write means
// for the message.
type dbAction struct {
	name  string
	from  transport.Addr
	own   bool
	snaps *snapshotSet
	first uint64
}

// heldLock is one lock the message's own action holds and the table does
// not record.
type heldLock struct {
	key  string
	mode lockmgr.Mode
}

// committed notes commit number n (0: none) as made under a.
func (a *dbAction) committed(n uint64) {
	if a.first == 0 {
		a.first = n
	}
}

// entryKeys are one object's names: its Sv and St entries' keys in the
// lock table and their records' keys in the stable store. They are
// rendered when the object's St entry comes into being (Register, or the
// load of its records) and dropped when the entry goes for good (a
// committed Deregister, an aborted Register); an op on a UID without
// entries renders its keys for itself (keysOf), so bad input grows nothing.
type entryKeys struct {
	sv, st             string
	svRecord, stRecord uid.UID
}

func newEntryKeys(id uid.UID) *entryKeys {
	return &entryKeys{sv: svKey(id), st: stKey(id), svRecord: svRecordKey(id), stRecord: stRecordKey(id)}
}

// DB is the group view database: the naming and binding service state on
// its home node.
type DB struct {
	node  *sim.Node
	locks *lockmgr.Manager

	mu      sync.Mutex
	servers map[uid.UID]*serverEntry
	states  map[uid.UID]*stateEntry
	// forwards maps each UID a committed move took from this database to
	// the database it went to; a committed Register of the UID clears it.
	forwards map[uid.UID]transport.Addr
	// pending maps an in-flight named action to its undo snapshots.
	pending map[string]*snapshotSet
	// clients maps an in-flight named action to the node it came from, for
	// the janitor's failure detection.
	clients map[string]transport.Addr
	// spare is the free list of undo sets (snapsLocked, endLocked).
	spare []*snapshotSet
	// failed is set by a stable write that failed: the database answers
	// nothing from then on until its node restarts (writeRecordsLocked).
	failed atomic.Bool
	// writes holds the records committed since the last stable write, one
	// per key, which the next one writes; buf their encodings and rec the
	// one a commit renders.
	writes []store.Write
	rec    EntryRecord
	buf    []byte
	// commits numbers the commits; durable is the number of the last one
	// a successful stable write covered. While they are equal a message
	// finds nothing to write (DB.writeLocked).
	commits, durable uint64
	// owned numbers the names minted for messages' own actions
	// (DB.recordLocked); never reset, as an earlier incarnation's handler
	// may still run.
	owned uint64
	// incarnation counts the resets of the volatile state (a crash): a
	// message it changed under fails (DB.lockLocked, DB.writeLocked), and
	// an own action's undo set from an earlier one must not reach the state
	// the records rebuilt, as a named action's goes with the reset pending.
	incarnation uint64

	// keys holds every registered object's keys (entryKeys).
	keys map[uid.UID]*entryKeys

	// held lists the locks the own action of the message that holds mu
	// holds and the table does not record (DB.lockLocked). It is empty
	// whenever mu is free: a message records them before it waits, and
	// drops them when its own action ends.
	held []heldLock
}

// ownActionPrefix starts a minted action's name. A client's action names
// are UIDs, which always hold a ':', so the two never meet.
const ownActionPrefix = dbTxPrefix + "own/"

// NewDB installs the group view database on node and registers its RPC
// service. The database reloads its entry records from the node's stable
// store, both at creation and whenever the node recovers from a crash.
func NewDB(node *sim.Node) *DB {
	db := &DB{node: node}
	db.mu.Lock()
	db.resetVolatileLocked()
	db.loadRecordsLocked()
	db.mu.Unlock()
	node.OnRecover(func(*sim.Node) {
		db.mu.Lock()
		defer db.mu.Unlock()
		db.resetVolatileLocked()
		db.loadRecordsLocked()
	})
	registerService(node.Server(), db)
	return db
}

// Node returns the database's home node.
func (db *DB) Node() *sim.Node { return db.node }

// Addr returns the database's network address.
func (db *DB) Addr() transport.Addr { return db.node.Name() }

func (db *DB) resetVolatileLocked() {
	db.locks = lockmgr.New(lockmgr.NoNesting)
	db.servers = make(map[uid.UID]*serverEntry)
	db.states = make(map[uid.UID]*stateEntry)
	db.forwards = make(map[uid.UID]transport.Addr)
	db.pending = make(map[string]*snapshotSet)
	db.clients = make(map[string]transport.Addr)
	db.spare = nil
	db.incarnation++
	db.failed.Store(false)
	// What was committed but not written died with the incarnation.
	db.writes, db.buf = db.writes[:0], db.buf[:0]
	db.durable = db.commits
	db.keys = make(map[uid.UID]*entryKeys)
}

// keysOf returns id's keys: the ones kept with its entries, or, for a UID
// without any, a rendering of its own. db.mu held, as for keepKeys and
// dropKeys, so the keys come and go with the entries.
func (db *DB) keysOf(id uid.UID) *entryKeys {
	if k := db.keys[id]; k != nil {
		return k
	}
	return newEntryKeys(id)
}

// keepKeys keeps k as id's keys, unless it has some; dropKeys drops them.
func (db *DB) keepKeys(id uid.UID, k *entryKeys) {
	if db.keys[id] == nil {
		db.keys[id] = k
	}
}

func (db *DB) dropKeys(id uid.UID) { delete(db.keys, id) }

// --- persistence ---

// The database is itself a persistent object (§3.1), stored one record per
// entry: object A's Sv entry (nodes and use lists) lives under svRecordKey(A)
// and its St entry (nodes and class) under stRecordKey(A) in the home
// node's stable store. Each record is its own version chain there, so a
// commit costs what it touches, whatever the number of registered objects.
const (
	svRecordPrefix = "groupview/sv/"
	stRecordPrefix = "groupview/st/"
	// dbTxPrefix marks the stable store's transaction names as the
	// database's own: no coordinator answers for them, so one found pending
	// after a crash (a write torn between its entry records) is aborted.
	dbTxPrefix = "groupview/"
	// writeTx is the stable transaction every write of the database goes
	// under: the writes run one at a time, under db.mu.
	writeTx = dbTxPrefix + "write"
)

func svRecordKey(id uid.UID) uid.UID {
	return uid.UID{Origin: svRecordPrefix + id.Origin, Epoch: id.Epoch, Seq: id.Seq}
}

func stRecordKey(id uid.UID) uid.UID {
	return uid.UID{Origin: stRecordPrefix + id.Origin, Epoch: id.Epoch, Seq: id.Seq}
}

// loadRecordsLocked rebuilds the database from its entry records. A
// tombstone (the record a committed Deregister leaves) yields no entry, and
// an St tombstone that names a database the forward there; its version chain
// stays, for a later Register of the same UID to extend.
func (db *DB) loadRecordsLocked() {
	st := db.node.Store()
	for _, tx := range st.PendingTxs() {
		if strings.HasPrefix(tx, dbTxPrefix) {
			_ = st.Abort(tx) // fails only on a closed store, which lists nothing
		}
	}
	for _, key := range st.Objects() {
		origin, isSv := strings.CutPrefix(key.Origin, svRecordPrefix)
		if !isSv {
			var isSt bool
			if origin, isSt = strings.CutPrefix(key.Origin, stRecordPrefix); !isSt {
				continue
			}
		}
		v, err := st.Read(key)
		var rec EntryRecord
		if err == nil {
			err = rpc.Decode(v.Data, &rec)
		}
		if err != nil {
			// A corrupt stable record would be a catastrophic simulator bug;
			// fail loudly rather than run with silent data loss.
			panic(fmt.Sprintf("core: corrupt db record %v: %v", key, err))
		}
		id := uid.UID{Origin: origin, Epoch: key.Epoch, Seq: key.Seq}
		if rec.Deleted {
			if !isSv && len(rec.Nodes) > 0 {
				db.forwards[id] = rec.Nodes[0]
			}
			continue
		}
		if !isSv {
			db.states[id] = &stateEntry{Nodes: rec.Nodes, Class: rec.Class}
			db.keepKeys(id, newEntryKeys(id))
			continue
		}
		e := &serverEntry{Nodes: rec.Nodes, Use: make(map[transport.Addr]map[transport.Addr]int, len(rec.Nodes))}
		for _, u := range rec.Use {
			if e.Use[u.Host] == nil {
				e.Use[u.Host] = make(map[transport.Addr]int)
			}
			e.Use[u.Host][u.Client] = u.N
			e.commitCount(useKey{u.Host, u.Client}, u.N)
		}
		db.servers[id] = e
	}
}

// commitLocked commits the mutations of the action whose undo set is ss:
// it renders one record per entry the action touched — the keys of its
// snapshot set plus the entries it adjusted — and nothing else, so other
// actions' provisional changes to other entries never reach stable storage;
// the message's write makes them durable (writeRecordsLocked). Committed
// counters follow the entry's own, or move by the action's deltas
// (serverEntry.committed). A deregistered object's St tombstone carries its
// forward, which is set here, and a registered one's record clears any. It
// returns the commit's number. db.mu held.
func (db *DB) commitLocked(ss *snapshotSet) uint64 {
	for id := range ss.servers {
		if e, ok := db.servers[id]; ok {
			e.settle()
		}
	}
	for _, d := range ss.useDeltas {
		if _, settled := ss.servers[d.id]; !settled {
			if e, ok := db.servers[d.id]; ok {
				e.commitCount(d.key, e.committed[d.key]+d.n)
			}
		}
	}
	sv := func(id uid.UID) {
		key := db.keysOf(id).svRecord
		if e, ok := db.servers[id]; ok {
			db.addRecordLocked(key, e.record(&db.rec))
		} else if ss.servers[id] != nil {
			db.addRecordLocked(key, tombstone(&db.rec, ""))
		}
	}
	for id := range ss.servers {
		sv(id)
	}
	for i, d := range ss.useDeltas {
		if _, done := ss.servers[d.id]; !done && !slices.ContainsFunc(ss.useDeltas[:i], func(e useDelta) bool { return e.id == d.id }) {
			sv(d.id)
		}
	}
	for id, snap := range ss.states {
		if e, ok := db.states[id]; ok {
			db.addRecordLocked(db.keysOf(id).stRecord, e.record(&db.rec))
			delete(db.forwards, id)
		} else if snap != nil {
			to := ss.movedTo[id]
			db.addRecordLocked(db.keysOf(id).stRecord, tombstone(&db.rec, to))
			if to != "" {
				db.forwards[id] = to
			}
		}
	}
	for id := range ss.states {
		if _, ok := db.states[id]; !ok {
			db.dropKeys(id) // deregistered
		}
	}
	db.commits++
	return db.commits
}

// addRecordLocked encodes rec into the scratch and makes it key's record in
// the next write, in place of one an earlier commit rendered. db.mu held.
func (db *DB) addRecordLocked(key uid.UID, rec *EntryRecord) {
	start := len(db.buf)
	db.buf = rpc.AppendEncode(db.buf, rec)
	w := store.Write{UID: key, Data: db.buf[start:len(db.buf):len(db.buf)]}
	for i := range db.writes {
		if db.writes[i].UID == key {
			db.writes[i] = w
			return
		}
	}
	db.writes = append(db.writes, w)
}

// writeRecordsLocked writes the records committed since the last write
// (addRecordLocked) to stable storage as one atomic update, and empties the
// scratch: after a crash either every record of the write is there or none
// is (a multi-object Exclude, the two halves of a Register, or the commits
// of several actions never half-commit). A record its key's durable one
// already equals is left out, and each other extends its own version chain
// by one. A message's end calls it before the reply (batch), and so does
// the janitor.
//
// A failed stable write fails the database: from then on it writes nothing
// and answers no message until its node restarts and reloads the records,
// as a fail-silent node would (§2.1). The entries in memory hold commits
// the records may not, so nothing may be acknowledged from them. db.mu
// held.
func (db *DB) writeRecordsLocked() error {
	writes := db.writes
	db.writes, db.buf = db.writes[:0], db.buf[:0]
	if db.failed.Load() {
		return errStopped
	}
	st := db.node.Store()
	changed := writes[:0]
	for _, w := range writes {
		seq, same := st.Holds(w.UID, w.Data)
		if !same {
			w.Seq = seq + 1
			changed = append(changed, w)
		}
	}
	if len(changed) > 0 {
		if err := st.CommitOnePhase(writeTx, changed); err != nil {
			db.failed.Store(true)
			return fmt.Errorf("%w: %w", errStopped, err)
		}
	}
	db.durable = db.commits
	return nil
}

// writeLocked is the write of a message that began in incarnation, and
// says what a failure means for it, given the number of its first commit
// (0: none): errStopped, the answer of a message none of whose commits is
// durable, or, when an earlier write covered some of them, an error
// without its code. A message the database restarted under fails too: a
// commit of it the restart found unwritten is gone. db.mu held.
func (db *DB) writeLocked(first, incarnation uint64) error {
	if db.durable == db.commits && !db.failed.Load() && db.incarnation == incarnation {
		return nil // every commit is written, this message's too
	}
	err := db.writeRecordsLocked()
	switch {
	case err != nil && first != 0 && first <= db.durable:
		return fmt.Errorf("core: the group view database's stable write failed after an earlier one wrote part of the message: %v", err)
	case err == nil && db.incarnation != incarnation:
		return errRestarted
	}
	return err
}

// errRestarted is the answer of a message the database restarted under.
var errRestarted = errors.New("core: the group view database restarted under the message")

// errStopped is the answer of a database whose stable write failed.
var errStopped = rpc.Errorf(CodeStopped, "core: the group view database's stable write failed; it answers nothing until its node restarts")

// --- lock and snapshot plumbing ---

func svKey(id uid.UID) string { return lockKey("sv/", id) }
func stKey(id uid.UID) string { return lockKey("st/", id) }

// lockKey names an entry in the lock table: prefix, then the UID's
// canonical form, built in one allocation.
func lockKey(prefix string, id uid.UID) string {
	var buf [56]byte
	return string(id.Append(append(buf[:0], prefix...)))
}

// message is one BatchReq in execution: it runs under db.mu from its first
// op to its reply, but while it waits for a lock (DB.lockLocked), with the
// lock table and the incarnation it began in, and the two actions its ops
// run under — its own, and the named one of its latest op that names one.
type message struct {
	ctx         context.Context
	locks       *lockmgr.Manager
	incarnation uint64
	own, named  dbAction
}

// ownHolding reports whether the own action holds, outside the table, a
// lock on key at least as strong as mode (0: any), by lockmgr's ordering.
// db.mu held.
func (db *DB) ownHolding(key string, mode lockmgr.Mode) bool {
	return slices.ContainsFunc(db.held, func(h heldLock) bool { return h.key == key && h.mode >= mode })
}

// ownConflicts reports whether the own action holds, outside the table, a
// lock on key that mode conflicts with. db.mu held.
func (db *DB) ownConflicts(key string, mode lockmgr.Mode) bool {
	return slices.ContainsFunc(db.held, func(h heldLock) bool { return h.key == key && !lockmgr.Compatible(mode, h.mode) })
}

// lockLocked gives a the lock mode on key, as lockmgr.Acquire would grant
// it. The message's own action takes a lock no other message can see while
// the message holds db.mu: it is checked against the table — a conflicting
// holder, or a request queued ahead of it — and kept in db.held, not
// recorded. A named action's lock is recorded in the table; where it meets
// one of the own action's, the own action's are recorded first, so that
// the table sees the conflict.
//
// A lock that must wait records the own action's locks first, under a name
// minted then, and its own request in the table's FIFO queue, and waits
// with db.mu dropped: until granted, failed by its owner's end
// (lockmgr.ErrReleased), or the message's context is done. The message
// fails there if the database restarted meanwhile. db.mu held.
func (db *DB) lockLocked(m *message, a *dbAction, key string, mode lockmgr.Mode) error {
	switch {
	case a == &m.own && a.name == "":
		if m.locks.Grantable("", key, mode, db.ownHolding(key, 0)) {
			if !db.ownHolding(key, mode) {
				db.held = append(db.held, heldLock{key, mode})
			}
			return nil
		}
		db.recordLocked(m)
	case db.ownConflicts(key, mode):
		db.recordLocked(m)
	}
	w := m.locks.Request(lockmgr.Owner(a.name), key, mode)
	if w == nil {
		return nil
	}
	if len(db.held) > 0 {
		db.recordLocked(m)
	}
	db.mu.Unlock()
	var err error
	select {
	case <-w.Ready():
		db.mu.Lock()
		err = w.Err()
	case <-m.ctx.Done():
		db.mu.Lock()
		err = m.locks.Abandon(w, m.ctx.Err())
	}
	if db.incarnation != m.incarnation {
		return errRestarted
	}
	if err != nil {
		return rpc.Errorf(CodeLockRefused, "%v", err)
	}
	return nil
}

// recordLocked records the own action's locks in the table under a name
// minted now, its lock owner from then on until it ends. db.mu held.
func (db *DB) recordLocked(m *message) {
	own := &m.own
	if own.name == "" {
		var buf [40]byte
		db.owned++
		own.name = string(strconv.AppendUint(append(buf[:0], ownActionPrefix...), db.owned, 10))
	}
	for _, h := range db.held {
		m.locks.Grant(lockmgr.Owner(own.name), h.key, h.mode)
	}
	db.held = db.held[:0]
}

// ownerLocked is a's lock owner, for an op that works on the table itself
// (Exclude's non-blocking locks): the own action's locks are recorded
// first. db.mu held.
func (db *DB) ownerLocked(m *message, a *dbAction) lockmgr.Owner {
	if len(db.held) > 0 || (a == &m.own && a.name == "") {
		db.recordLocked(m)
	}
	return lockmgr.Owner(a.name)
}

// holdsLocked reports whether a holds a lock on key at least as strong as
// mode (lockmgr.Manager.Holds). db.mu held.
func (db *DB) holdsLocked(m *message, a *dbAction, key string, mode lockmgr.Mode) bool {
	if a == &m.own && a.name == "" {
		return db.ownHolding(key, mode)
	}
	return m.locks.Holds(lockmgr.Owner(a.name), key, mode)
}

// noteLocked remembers which node a named action came from, for the
// janitor. The message's own action ends before its message replies, so
// there is nothing of it to note.
func (db *DB) noteLocked(a *dbAction) {
	if !a.own {
		db.clients[a.name] = a.from
	}
}

// snapServerLocked snapshots the server entry for a before mutation.
func (db *DB) snapServerLocked(a *dbAction, id uid.UID) {
	ss := db.snapsLocked(a)
	if _, done := ss.servers[id]; done {
		return
	}
	if ss.servers == nil {
		ss.servers = make(map[uid.UID]*serverEntry)
	}
	if e, ok := db.servers[id]; ok {
		ss.servers[id] = e.clone()
	} else {
		ss.servers[id] = nil
	}
}

func (db *DB) snapStateLocked(a *dbAction, id uid.UID) {
	ss := db.snapsLocked(a)
	if _, done := ss.states[id]; done {
		return
	}
	if ss.states == nil {
		ss.states = make(map[uid.UID]*stateEntry)
	}
	if e, ok := db.states[id]; ok {
		ss.states[id] = e.clone()
	} else {
		ss.states[id] = nil
	}
}

// snapsLocked returns a's undo set — the own action's from a, a named
// action's from pending — starting it, from the free list, on first use.
func (db *DB) snapsLocked(a *dbAction) *snapshotSet {
	if a.own {
		if a.snaps == nil {
			a.snaps = db.spareSnapsLocked()
		}
		return a.snaps
	}
	ss, ok := db.pending[a.name]
	if !ok {
		ss = db.spareSnapsLocked()
		db.pending[a.name] = ss
	}
	return ss
}

func (db *DB) spareSnapsLocked() *snapshotSet {
	if n := len(db.spare); n > 0 {
		ss := db.spare[n-1]
		db.spare = db.spare[:n-1]
		return ss
	}
	return &snapshotSet{}
}

// endLocked commits or rolls back the action whose undo set is ss, and
// puts the set back on the free list. It returns the commit's number, 0
// for a roll-back. db.mu held.
func (db *DB) endLocked(ss *snapshotSet, commit bool) (n uint64) {
	if commit {
		n = db.commitLocked(ss)
	} else {
		db.rollbackLocked(ss)
	}
	if len(db.spare) < maxSpare && len(ss.servers)+len(ss.states)+len(ss.movedTo) <= maxSpare {
		clear(ss.servers)
		clear(ss.states)
		clear(ss.movedTo)
		ss.useDeltas = ss.useDeltas[:0]
		db.spare = append(db.spare, ss)
	}
	return n
}

// rollbackLocked restores the pre-images of ss. db.mu held.
func (db *DB) rollbackLocked(ss *snapshotSet) {
	for id, snap := range ss.servers {
		if snap == nil {
			delete(db.servers, id)
		} else {
			db.servers[id] = snap
		}
	}
	for id, snap := range ss.states {
		if snap == nil {
			delete(db.states, id)
			db.dropKeys(id) // an aborted Register
		} else {
			db.states[id] = snap
		}
	}
	// Adjust-mode use-count changes are undone by inverse deltas, newest
	// first so that no intermediate value meets the zero clamp — the Adjust
	// lock is still held here, so no Write holder can have restructured the
	// entry underneath.
	for i := len(ss.useDeltas) - 1; i >= 0; i-- {
		d := ss.useDeltas[i]
		e, ok := db.servers[d.id]
		if !ok {
			continue
		}
		if m := e.Use[d.key.host]; m != nil {
			if m[d.key.client] -= d.n; m[d.key.client] <= 0 {
				delete(m, d.key.client)
			}
		}
	}
}

// endActionLocked finishes a named action at the database: commit makes
// its entry mutations durable with the next write (writeRecordsLocked),
// abort restores the pre-images; either way the action's locks are
// released (end of Figure 6's read-lock hold, or of the short independent
// actions of Figures 7–8). Ending an action the database does not know is
// a no-op, so the op is idempotent. It returns the commit's number, 0 for
// none. db.mu held.
func (db *DB) endActionLocked(act string, commit bool) (n uint64) {
	if ss, ok := db.pending[act]; ok {
		delete(db.pending, act)
		n = db.endLocked(ss, commit)
	}
	delete(db.clients, act)
	db.locks.ReleaseAll(lockmgr.Owner(act))
	return n
}

// endOwnLocked finishes the message's own action, as endActionLocked a
// named one, and notes its commit. Its locks go: the ones in its list, and
// any the table recorded. An undo set from before a crash is dropped: what
// it undid or would commit died with that incarnation. db.mu held.
func (db *DB) endOwnLocked(m *message, commit bool) {
	a := &m.own
	if a.snaps != nil {
		if m.incarnation == db.incarnation {
			a.committed(db.endLocked(a.snaps, commit))
		}
		a.snaps = nil
	}
	if a.name != "" {
		m.locks.ReleaseAll(lockmgr.Owner(a.name))
		a.name = ""
	}
	clear(db.held) // the keys are the entries'; a kept one must not pin them
	db.held = db.held[:0]
}

// Quiescent reports whether all use lists of the object are empty (the
// §4.1.3 definition of a quiescent/passive object, as far as the database
// knows).
func (db *DB) Quiescent(id uid.UID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.servers[id]
	if !ok {
		return true
	}
	for _, clients := range e.Use {
		for _, n := range clients {
			if n > 0 {
				return false
			}
		}
	}
	return true
}

// Forward returns the database a committed move took the object to from
// this one, or "" if none did since it was last registered here: what its
// unknown-object answers name (MovedTo), read in process.
func (db *DB) Forward(id uid.UID) transport.Addr {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.forwards[id]
}

// Objects lists registered UIDs, sorted — for tooling.
func (db *DB) Objects() []uid.UID {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]uid.UID, 0, len(db.states))
	for id := range db.states {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
