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
// also the unit of durability. A committing action rewrites exactly the
// entries it changed, all of them in one atomic stable write; a Deregister
// leaves a tombstone record in the same write. Locks and uncommitted
// mutations are volatile and die with the node, and recovery rebuilds the
// database from the records alone.
//
// Lock ownership: every action is top-level, so a lock owner is a top-level
// action ID. Every scheme in the paper either holds database locks until
// the client action ends (Figure 6) or takes them in short top-level
// actions (Figures 7–8), each its message's own (BatchReq). Binder
// (binder.go) implements the three access schemes; recovery.go the
// §4.1.2/§4.2 recovery protocols; janitor.go the cleanup of §4.1.3.
package core

import (
	"fmt"
	"sort"
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
	// CodeNotQuiescent reports an Insert attempted while the object's use
	// lists are non-empty (§4.1.3: quiescent means every use list is
	// empty). The write lock guards against clients of the standard
	// scheme; the use-list check guards against clients of the enhanced
	// schemes, whose locks are released between bind and decrement.
	CodeNotQuiescent = "not-quiescent"
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

func (e *serverEntry) clone() *serverEntry {
	cp := &serverEntry{
		Nodes: append([]transport.Addr(nil), e.Nodes...),
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
	return &stateEntry{Nodes: append([]transport.Addr(nil), e.Nodes...), Class: e.Class}
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

// record renders the entry's committed state.
func (e *serverEntry) record() *entryRecord {
	rec := &entryRecord{Nodes: e.Nodes}
	for k, n := range e.committed {
		rec.Use = append(rec.Use, useCount{k.host, k.client, n})
	}
	return rec
}

func (e *stateEntry) record() *entryRecord {
	return &entryRecord{Nodes: e.Nodes, Class: e.Class}
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
}

// DB is the group view database: the naming and binding service state on
// its home node.
type DB struct {
	node  *sim.Node
	locks *lockmgr.Manager

	mu      sync.Mutex
	servers map[uid.UID]*serverEntry
	states  map[uid.UID]*stateEntry
	// pending maps an in-flight action to its undo snapshots.
	pending map[string]*snapshotSet
	// clients maps an in-flight action to the node it came from, for the
	// janitor's failure detection.
	clients map[string]transport.Addr
	// dirty holds the committed records whose stable write failed, by
	// record key; they ride the next commit's write (see writeRecordsLocked).
	dirty map[uid.UID][]byte
	// owned numbers the actions minted for messages' own ops (BatchReq);
	// never reset, as an earlier incarnation's handler may still run.
	owned atomic.Uint64
}

// ownActionPrefix starts a minted action's name. A client's action names
// are UIDs, which always hold a ':', so the two never meet.
const ownActionPrefix = "own/"

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
	db.pending = make(map[string]*snapshotSet)
	db.clients = make(map[string]transport.Addr)
	db.dirty = make(map[uid.UID][]byte)
}

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
	// after a crash (a commit torn between its entry writes) is aborted.
	dbTxPrefix = "groupview/"
)

func svRecordKey(id uid.UID) uid.UID {
	return uid.UID{Origin: svRecordPrefix + id.Origin, Epoch: id.Epoch, Seq: id.Seq}
}

func stRecordKey(id uid.UID) uid.UID {
	return uid.UID{Origin: stRecordPrefix + id.Origin, Epoch: id.Epoch, Seq: id.Seq}
}

// loadRecordsLocked rebuilds the database from its entry records. A
// tombstone (the record a committed Deregister leaves) yields no entry; its
// version chain stays, for a later Register of the same UID to extend.
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
		var rec entryRecord
		if err == nil {
			err = rpc.Decode(v.Data, &rec)
		}
		if err != nil {
			// A corrupt stable record would be a catastrophic simulator bug;
			// fail loudly rather than run with silent data loss.
			panic(fmt.Sprintf("core: corrupt db record %v: %v", key, err))
		}
		if rec.Deleted {
			continue
		}
		id := uid.UID{Origin: origin, Epoch: key.Epoch, Seq: key.Seq}
		if !isSv {
			db.states[id] = &stateEntry{Nodes: rec.Nodes, Class: rec.Class}
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

// commitLocked makes act's mutations durable: one record per entry the
// action touched — the keys of its snapshot set plus the entries it
// adjusted — and nothing else, so other actions' provisional changes to
// other entries never reach stable storage. Committed counters follow the
// entry's own, or move by the action's deltas (serverEntry.committed).
// db.mu held.
func (db *DB) commitLocked(act string, ss *snapshotSet) {
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
	writes := make([]store.Write, 0, len(ss.servers)+len(ss.states)+len(ss.useDeltas))
	sv := func(id uid.UID) {
		key := svRecordKey(id)
		if hasRecord(writes, key) {
			return
		}
		if e, ok := db.servers[id]; ok {
			writes = append(writes, encodeRecord(key, e.record()))
		} else if ss.servers[id] != nil {
			writes = append(writes, encodeRecord(key, &entryRecord{Deleted: true}))
		}
	}
	for id := range ss.servers {
		sv(id)
	}
	for _, d := range ss.useDeltas {
		sv(d.id)
	}
	for id, snap := range ss.states {
		if e, ok := db.states[id]; ok {
			writes = append(writes, encodeRecord(stRecordKey(id), e.record()))
		} else if snap != nil {
			writes = append(writes, encodeRecord(stRecordKey(id), &entryRecord{Deleted: true}))
		}
	}
	db.writeRecordsLocked(act, writes)
}

func hasRecord(writes []store.Write, key uid.UID) bool {
	for _, w := range writes {
		if w.UID == key {
			return true
		}
	}
	return false
}

func encodeRecord(key uid.UID, rec *entryRecord) store.Write {
	data, err := rpc.Encode(rec)
	if err != nil {
		panic(fmt.Sprintf("core: encode db record %v: %v", key, err)) // the binary codec cannot fail
	}
	return store.Write{UID: key, Data: data}
}

// writeRecordsLocked writes entry records to stable storage as one atomic
// update: after a crash either every record of the call is there or none
// is (a multi-object Exclude, or the two halves of a Register, never
// half-commit). Each record extends its own version chain by one.
//
// A failed stable write (full disk, node mid-crash) is survivable: the
// records stay in the dirty set and ride the next call's write, whatever
// action makes it, unless that call carries a newer record of the same
// entry. Until then the stable entry is at its previous version and
// recovery loads that. db.mu held.
func (db *DB) writeRecordsLocked(tx string, writes []store.Write) {
	for key, data := range db.dirty {
		if !hasRecord(writes, key) {
			writes = append(writes, store.Write{UID: key, Data: data})
		}
	}
	if len(writes) == 0 {
		return
	}
	st := db.node.Store()
	for i := range writes {
		seq, _ := st.SeqOf(writes[i].UID)
		writes[i].Seq = seq + 1
	}
	if err := st.CommitOnePhase(dbTxPrefix+tx, writes); err != nil {
		for _, w := range writes {
			db.dirty[w.UID] = w.Data
		}
		return
	}
	clear(db.dirty)
}

// --- lock and snapshot plumbing ---

func svKey(id uid.UID) string { return lockKey("sv/", id) }
func stKey(id uid.UID) string { return lockKey("st/", id) }

// lockKey names an entry in the lock table: prefix, then the UID's
// canonical form, built in one allocation.
func lockKey(prefix string, id uid.UID) string {
	var buf [56]byte
	return string(id.Append(append(buf[:0], prefix...)))
}

// noteClientLocked remembers which node an action came from.
func (db *DB) noteClientLocked(act string, from transport.Addr) {
	db.clients[act] = from
}

// snapServerLocked snapshots the server entry for act before mutation.
func (db *DB) snapServerLocked(act string, id uid.UID) {
	ss := db.pendingSetLocked(act)
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

func (db *DB) snapStateLocked(act string, id uid.UID) {
	ss := db.pendingSetLocked(act)
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

func (db *DB) pendingSetLocked(act string) *snapshotSet {
	ss, ok := db.pending[act]
	if !ok {
		ss = &snapshotSet{}
		db.pending[act] = ss
	}
	return ss
}

// EndAction finishes an action at the database: commit makes its entry
// mutations durable (see commitLocked), abort restores the pre-images;
// either way the action's locks are released (end of Figure 6's read-lock
// hold, or of the short independent actions of Figures 7–8). Ending an
// action the database does not know is a no-op, so the call is idempotent.
func (db *DB) EndAction(act string, commit bool) {
	db.mu.Lock()
	if ss, ok := db.pending[act]; ok {
		if commit {
			db.commitLocked(act, ss)
		} else {
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
				} else {
					db.states[id] = snap
				}
			}
			// Adjust-mode use-count changes are undone by inverse deltas,
			// newest first so that no intermediate value meets the zero
			// clamp — the Adjust lock is still held here, so no Write
			// holder can have restructured the entry underneath.
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
		delete(db.pending, act)
	}
	delete(db.clients, act)
	db.mu.Unlock()
	db.locks.ReleaseAll(lockmgr.Owner(act))
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
