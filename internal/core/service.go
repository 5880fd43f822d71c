package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/lockmgr"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// ServiceName is the RPC service name of the group view database.
const ServiceName = "groupview"

// MethodBatch is the database's one RPC method: an ordered list of
// operations (see Op) executed in one round trip.
const MethodBatch = "Batch"

// --- server-side operations ---

// The operations below run under action a of message m, with db.mu held
// (see DB.batch); an op takes its locks first (DB.lockLocked), and reads
// and changes the entries after.

// Register creates the Sv and St entries for a new object (write locks on
// both). The St entry also records the object's class.
func (db *DB) Register(m *message, a *dbAction, id uid.UID, class string, svNodes, stNodes []transport.Addr) error {
	keys := db.keysOf(id)
	if err := db.lockLocked(m, a, keys.sv, lockmgr.Write); err != nil {
		return err
	}
	if err := db.lockLocked(m, a, keys.st, lockmgr.Write); err != nil {
		return err
	}
	db.noteLocked(a)
	db.keepKeys(id, keys)
	db.snapServerLocked(a, id)
	db.snapStateLocked(a, id)
	use := make(map[transport.Addr]map[transport.Addr]int, len(svNodes))
	for _, n := range svNodes {
		use[n] = make(map[transport.Addr]int)
	}
	db.servers[id] = &serverEntry{Nodes: slices.Clip(slices.Clone(svNodes)), Use: use}
	db.states[id] = &stateEntry{Nodes: slices.Clip(slices.Clone(stNodes)), Class: class}
	return nil
}

// Deregister removes both database entries for an object under write
// locks, returning the St view and class as they stood — the caller (a
// rebalance moving the object to another group's database) uses them as
// catch-up sources for installing the state at its destination, to. The
// commit's tombstone names to, and from then on so does every unknown-object
// answer for the UID here (see MovedTo); "" leaves no forward. Like
// Insert, the write lock only serialises against standard-scheme clients;
// the use-list check guards against the enhanced schemes, refusing with
// CodeNotQuiescent while any binding is live so an in-flight action is
// never stranded against a vanished entry. The deletion is provisional
// until the action commits: abort restores both entries from their
// snapshots, and leaves no forward.
func (db *DB) Deregister(m *message, a *dbAction, id uid.UID, to transport.Addr) ([]transport.Addr, string, error) {
	keys := db.keysOf(id)
	if err := db.lockLocked(m, a, keys.sv, lockmgr.Write); err != nil {
		return nil, "", err
	}
	if err := db.lockLocked(m, a, keys.st, lockmgr.Write); err != nil {
		return nil, "", err
	}
	db.noteLocked(a)
	st, ok := db.states[id]
	if !ok {
		return nil, "", db.unknownLocked("St", id)
	}
	if sv, ok := db.servers[id]; ok {
		for _, clients := range sv.Use {
			for _, n := range clients {
				if n > 0 {
					return nil, "", rpc.Errorf(CodeNotQuiescent, "object %v has active use counts", id)
				}
			}
		}
	}
	view, class := st.Nodes, st.Class
	db.snapServerLocked(a, id)
	db.snapStateLocked(a, id)
	if to != "" {
		ss := db.snapsLocked(a)
		if ss.movedTo == nil {
			ss.movedTo = make(map[uid.UID]transport.Addr)
		}
		ss.movedTo[id] = to
	}
	delete(db.servers, id)
	delete(db.states, id)
	return view, class, nil
}

// movedToSep joins an unknown-object answer's text to the database it names.
const movedToSep = "; moved to "

// unknownLocked is the answer to an op on a UID without the entry it needs,
// kind "Sv" or "St". For a UID a committed move took from this database it
// names the database the object went to (MovedTo). db.mu held.
func (db *DB) unknownLocked(kind string, id uid.UID) error {
	if to, ok := db.forwards[id]; ok {
		return rpc.Errorf(CodeUnknownObject, "no %s entry for %v%s%s", kind, id, movedToSep, to)
	}
	return rpc.Errorf(CodeUnknownObject, "no %s entry for %v", kind, id)
}

// MovedTo returns the database an unknown-object answer names as the one
// the object moved to, or "" for any other error or answer.
func MovedTo(err error) transport.Addr {
	// CodeOf first: a nil error must not pay for errors.As's target.
	if rpc.CodeOf(err) != CodeUnknownObject {
		return ""
	}
	var ae *rpc.AppError
	if !errors.As(err, &ae) {
		return ""
	}
	i := strings.LastIndex(ae.Msg, movedToSep)
	if i < 0 {
		return ""
	}
	return transport.Addr(ae.Msg[i+len(movedToSep):])
}

// GetServer returns Sv_A under a read lock held by action a until it
// ends (§4.1.1). With wantUse it also returns the use lists (§4.1.3).
// forUpdate takes a write lock instead — the enhanced schemes of §4.1.3
// read Sv and update use lists within one top-level action, so they take
// the stronger lock up front rather than promote later.
func (db *DB) GetServer(m *message, a *dbAction, id uid.UID, wantUse, forUpdate bool) ([]transport.Addr, map[transport.Addr]map[transport.Addr]int, error) {
	mode := lockmgr.Read
	if forUpdate {
		mode = lockmgr.Write
	}
	if err := db.lockLocked(m, a, db.keysOf(id).sv, mode); err != nil {
		return nil, nil, err
	}
	db.noteLocked(a)
	e, ok := db.servers[id]
	if !ok {
		return nil, nil, db.unknownLocked("Sv", id)
	}
	if !wantUse {
		return e.Nodes, nil, nil
	}
	use := make(map[transport.Addr]map[transport.Addr]int, len(e.Nodes))
	for _, host := range e.Nodes {
		m := make(map[transport.Addr]int, len(e.Use[host]))
		for c, n := range e.Use[host] {
			if n > 0 {
				m[c] = n
			}
		}
		use[host] = m
	}
	return e.Nodes, use, nil
}

// Bind is the database half of the Figure 7/8 bind action, as one
// operation: read Sv and the use lists, apply the fixed selection rule
// (selectServers) and count clientNode's binding at the degree servers it
// selects — GetServer and Increment with nothing in between, under one
// hold of the database mutex. It returns what Select returns, the rule's
// candidates in preference order, and the counted prefix of them: the
// client binds to the counted hosts and walks the rest as fallbacks. The
// lock is the write lock with forUpdate, else the commutative Adjust lock
// alone (see Binder.FastBind): on an Sv entry Adjust conflicts with every
// mode Read does, so it also keeps the entry's Sv still for the read.
func (db *DB) Bind(m *message, a *dbAction, id uid.UID, clientNode transport.Addr, degree int, forUpdate bool) (candidates, counted []transport.Addr, err error) {
	key, mode := db.keysOf(id).sv, lockmgr.Adjust
	if forUpdate {
		mode = lockmgr.Write
	}
	if err := db.lockLocked(m, a, key, mode); err != nil {
		return nil, nil, err
	}
	// An action already holding the write lock counts under it (adjustUse).
	exclusive := forUpdate || db.holdsLocked(m, a, key, lockmgr.Write)
	db.noteLocked(a)
	e, ok := db.servers[id]
	if !ok {
		return nil, nil, db.unknownLocked("Sv", id)
	}
	candidates, n := selectServers(e.Nodes, e.Use, degree, false, "")
	db.adjustUseLocked(a, id, e, clientNode, candidates[:n], +1, exclusive)
	return candidates, candidates[:n:n], nil
}

// Select is Bind for a binder that keeps no use lists (Binder.ReadOnly): the
// same read of Sv and the use lists under the shared Read lock and the same
// selection rule, with no count. It returns the rule's candidates in
// preference order — the servers in use, else Sv — so that a read-only
// client binds to the copy the writers keep current, and nothing else: the
// use lists stay at the database.
func (db *DB) Select(m *message, a *dbAction, id uid.UID) ([]transport.Addr, error) {
	if err := db.lockLocked(m, a, db.keysOf(id).sv, lockmgr.Read); err != nil {
		return nil, err
	}
	db.noteLocked(a)
	e, ok := db.servers[id]
	if !ok {
		return nil, db.unknownLocked("Sv", id)
	}
	candidates, _ := selectServers(e.Nodes, e.Use, 0, false, "")
	return candidates, nil
}

// Insert adds host to Sv_A under a write lock. Because the write lock
// conflicts with every client's read lock, the operation succeeds only
// when the object is quiescent — exactly the §4.1.2 recovery check. For
// clients of the enhanced schemes (whose locks are short-lived) the same
// guarantee comes from the use lists: Insert refuses while any use list
// is non-empty (§4.1.3's quiescence definition).
func (db *DB) Insert(m *message, a *dbAction, id uid.UID, host transport.Addr) error {
	if err := db.lockLocked(m, a, db.keysOf(id).sv, lockmgr.Write); err != nil {
		return err
	}
	db.noteLocked(a)
	e, ok := db.servers[id]
	if !ok {
		return db.unknownLocked("Sv", id)
	}
	for _, clients := range e.Use {
		for _, n := range clients {
			if n > 0 {
				return rpc.Errorf(CodeNotQuiescent, "object %v has active use counts", id)
			}
		}
	}
	db.snapServerLocked(a, id)
	for _, n := range e.Nodes {
		if n == host {
			return nil // already a member — idempotent re-insert
		}
	}
	e.Nodes = withNode(e.Nodes, host)
	if e.Use[host] == nil {
		e.Use[host] = make(map[transport.Addr]int)
	}
	return nil
}

// Remove deletes host from Sv_A under a write lock — the §4.1.2 operation
// by which an application varies the degree of replication. The enhanced
// schemes drop failed servers by Repair instead.
func (db *DB) Remove(m *message, a *dbAction, id uid.UID, host transport.Addr) error {
	if err := db.lockLocked(m, a, db.keysOf(id).sv, lockmgr.Write); err != nil {
		return err
	}
	db.noteLocked(a)
	e, ok := db.servers[id]
	if !ok {
		return db.unknownLocked("Sv", id)
	}
	db.snapServerLocked(a, id)
	e.drop(host)
	return nil
}

// Repair is the database half of the repair of Figure 7's bind action
// (§4.1.3), as one operation under the Sv write lock: a binding whose probe
// found servers dead is moved off them. Under the fixed selection rule an
// object in use is in use at servers every binding must be on, so while
// the use lists name any, Repair refuses with CodeNotQuiescent unless every
// server in now — the ones the binding runs on — is among them: removing a
// server dead to this client but serving others would leave two activated
// copies behind. The binding's own counts are not the others': the binder
// sends its Decrement ahead of the Repair, under the same action. Otherwise
// Repair removes the dead servers from Sv with their use lists, so that
// later clients skip the discovery (§4.1.3(i)), and counts clientNode at
// now.
func (db *DB) Repair(m *message, a *dbAction, id uid.UID, clientNode transport.Addr, now, dead []transport.Addr) error {
	if err := db.lockLocked(m, a, db.keysOf(id).sv, lockmgr.Write); err != nil {
		return err
	}
	db.noteLocked(a)
	e, ok := db.servers[id]
	if !ok {
		return db.unknownLocked("Sv", id)
	}
	if others := inUse(e.Nodes, e.Use); len(others) > 0 {
		for _, host := range now {
			if !slices.Contains(others, host) {
				return rpc.Errorf(CodeNotQuiescent, "object %v is in use at %v, which %s cannot reach", id, others, clientNode)
			}
		}
	}
	db.snapServerLocked(a, id)
	e.drop(dead...)
	db.adjustUseLocked(a, id, e, clientNode, now, +1, true)
	return nil
}

// Increment bumps clientNode's counter in the use list of each host
// (§4.1.3).
func (db *DB) Increment(m *message, a *dbAction, id uid.UID, clientNode transport.Addr, hosts []transport.Addr) error {
	return db.adjustUse(m, a, id, clientNode, hosts, +1)
}

// Decrement is the complementary operation to Increment. A Decrement for an
// object with no Sv entry — deregistered since the binding was counted,
// its use lists gone with the entry — has nothing to drop and succeeds: the
// action-end carries one Decrement per object of the action, and one whose
// object moved away must not fail the others (see txGroup.end).
func (db *DB) Decrement(m *message, a *dbAction, id uid.UID, clientNode transport.Addr, hosts []transport.Addr) error {
	return db.adjustUse(m, a, id, clientNode, hosts, -1)
}

// adjustUse applies a use-count delta. Increments and decrements commute,
// so an action that does not already hold the entry's write lock takes the
// Adjust lock — compatible with readers and with other adjusters, conflicting
// only with the structural Write operations (Insert/Remove, and the
// write-locked bind of Figure 7) — and its mutation is undone on abort by
// the inverse delta. An action that does hold the write lock (the Figure 7
// bind reads Sv, removes failed servers and increments in one action) keeps
// the exclusive pre-image snapshot discipline.
func (db *DB) adjustUse(m *message, a *dbAction, id uid.UID, clientNode transport.Addr, hosts []transport.Addr, delta int) error {
	key := db.keysOf(id).sv
	exclusive := db.holdsLocked(m, a, key, lockmgr.Write)
	if !exclusive {
		if err := db.lockLocked(m, a, key, lockmgr.Adjust); err != nil {
			return err
		}
	}
	db.noteLocked(a)
	e, ok := db.servers[id]
	if !ok {
		if delta < 0 {
			return nil
		}
		return db.unknownLocked("Sv", id)
	}
	db.adjustUseLocked(a, id, e, clientNode, hosts, delta, exclusive)
	return nil
}

// adjustUseLocked applies adjustUse's delta to entry e of object id, under
// whichever of the two disciplines the action's lock calls for. db.mu held.
func (db *DB) adjustUseLocked(a *dbAction, id uid.UID, e *serverEntry, clientNode transport.Addr, hosts []transport.Addr, delta int, exclusive bool) {
	if exclusive {
		db.snapServerLocked(a, id)
	}
	for _, host := range hosts {
		m := e.Use[host]
		if m == nil {
			m = make(map[transport.Addr]int)
			e.Use[host] = m
		}
		old := m[clientNode]
		nv := old + delta
		if nv <= 0 {
			delete(m, clientNode)
			nv = 0 // counts clamp at zero
		} else {
			m[clientNode] = nv
		}
		if !exclusive && nv != old {
			// Log the effective delta — at the zero clamp a decrement
			// applies less than asked, and the inverse must match what
			// actually happened to the counter.
			ss := db.snapsLocked(a)
			ss.useDeltas = append(ss.useDeltas, useDelta{id, useKey{host, clientNode}, nv - old})
		}
	}
}

// GetView returns St_A and the object's class under a read lock (§4.2).
func (db *DB) GetView(m *message, a *dbAction, id uid.UID) ([]transport.Addr, string, error) {
	if err := db.lockLocked(m, a, db.keysOf(id).st, lockmgr.Read); err != nil {
		return nil, "", err
	}
	db.noteLocked(a)
	e, ok := db.states[id]
	if !ok {
		return nil, "", db.unknownLocked("St", id)
	}
	return e.Nodes, e.Class, nil
}

// Include adds host back to St_A under a write lock — run by a recovering
// store node (§4.2) — and returns the post-include view. The write lock is
// the §4.2 serialisation point: it is granted only once every in-flight
// action's GetView read lock has drained, and it blocks new binds until
// the recovery action ends. The recovering node therefore takes the lock
// FIRST and fetches its catch-up state while holding it (the returned view
// names the fetch sources); fetching before the lock would race in-flight
// commits and re-admit the node with a stale state.
func (db *DB) Include(m *message, a *dbAction, id uid.UID, host transport.Addr) ([]transport.Addr, error) {
	if err := db.lockLocked(m, a, db.keysOf(id).st, lockmgr.Write); err != nil {
		return nil, err
	}
	db.noteLocked(a)
	e, ok := db.states[id]
	if !ok {
		return nil, db.unknownLocked("St", id)
	}
	db.snapStateLocked(a, id)
	present := false
	for _, n := range e.Nodes {
		if n == host {
			present = true
			break
		}
	}
	if !present {
		e.Nodes = withNode(e.Nodes, host)
	}
	return e.Nodes, nil
}

// ExcludePair names the store nodes to exclude for one object.
type ExcludePair struct {
	UID   uid.UID
	Hosts []transport.Addr
}

// Exclude removes failed store nodes from the St sets of the listed
// objects (§4.2), as a single batched operation, at commit time of the
// calling action.
//
// Locking implements §4.2.1's type-specific concurrency control: if the
// action already holds a read lock on an entry it is promoted to
// exclude-write, which *shares with other readers*; otherwise an
// exclude-write lock is acquired outright (non-blocking — commit
// processing must not wait). With useWriteLock set the operation instead
// promotes to a full write lock, reproducing the paper's problem case: the
// promotion is refused whenever other clients hold read locks, and the
// caller's action must abort.
func (db *DB) Exclude(m *message, a *dbAction, pairs []ExcludePair, useWriteLock bool) error {
	owner := db.ownerLocked(m, a)
	target := lockmgr.ExcludeWrite
	if useWriteLock {
		target = lockmgr.Write
	}
	for _, p := range pairs {
		key := db.keysOf(p.UID).st
		if m.locks.Holds(owner, key, lockmgr.Read) && !m.locks.Holds(owner, key, target) {
			if err := m.locks.TryPromote(owner, key, lockmgr.Read, target); err != nil {
				return rpc.Errorf(CodeLockRefused, "exclude %v: %v", p.UID, err)
			}
		} else if !m.locks.Holds(owner, key, target) {
			if err := m.locks.TryAcquire(owner, key, target); err != nil {
				return rpc.Errorf(CodeLockRefused, "exclude %v: %v", p.UID, err)
			}
		}
	}
	db.noteLocked(a)
	for _, p := range pairs {
		e, ok := db.states[p.UID]
		if !ok {
			return db.unknownLocked("St", p.UID)
		}
		db.snapStateLocked(a, p.UID)
		e.Nodes = withoutNodes(e.Nodes, p.Hosts...)
	}
	return nil
}

// --- the batch request ---

// OpKind names one database operation of §4.1/§4.2.
type OpKind byte

// The database operations, in wire order.
const (
	OpRegister OpKind = iota + 1
	OpDeregister
	OpGetServer
	OpInsert
	OpRemove
	OpIncrement
	OpDecrement
	OpGetView
	OpInclude
	OpExclude
	OpEndAction
	OpBind
	OpSelect
	OpRepair
	opKindEnd // one past the last valid kind
)

// Op is one operation of a batch request: the kind, the action it runs
// under (each op names its own, so one message can carry ops of several
// owners; the empty name is the message's own action, see BatchReq), and
// the arguments that kind takes. Build one with the constructors below.
type Op struct {
	Kind   OpKind
	Action string
	// UID is the object (every kind but Exclude and EndAction).
	UID uid.UID
	// Class is the object's class (Register).
	Class string
	// Host is the node to insert, remove or include, for Increment,
	// Decrement, Bind and Repair the client node whose counters move, and
	// for Deregister the database the object moves to.
	Host transport.Addr
	// Hosts lists Sv (Register) or the servers whose use lists move
	// (Increment, Decrement, Repair); Stores lists St (Register) or the
	// servers found dead (Repair).
	Hosts, Stores []transport.Addr
	// Pairs lists the exclusions (Exclude).
	Pairs []ExcludePair
	// Degree is how many servers the binding is counted at (Bind; 0 = all
	// the rule selects).
	Degree int
	// WantUse qualifies GetServer, ForUpdate GetServer and Bind,
	// UseWriteLock Exclude, and Commit EndAction; see the DB methods of those
	// names.
	WantUse, ForUpdate, UseWriteLock, Commit bool
}

// RegisterOp registers a new object in both databases.
func RegisterOp(act string, id uid.UID, class string, svNodes, stNodes []transport.Addr) Op {
	return Op{Kind: OpRegister, Action: act, UID: id, Class: class, Hosts: svNodes, Stores: stNodes}
}

// DeregisterOp removes an object from both databases, leaving a forward to
// the database to (none if "").
func DeregisterOp(act string, id uid.UID, to transport.Addr) Op {
	return Op{Kind: OpDeregister, Action: act, UID: id, Host: to}
}

// GetServerOp reads Sv_A (and the use lists when wantUse); forUpdate takes
// a write lock.
func GetServerOp(act string, id uid.UID, wantUse, forUpdate bool) Op {
	return Op{Kind: OpGetServer, Action: act, UID: id, WantUse: wantUse, ForUpdate: forUpdate}
}

// InsertOp adds a server node to Sv_A.
func InsertOp(act string, id uid.UID, host transport.Addr) Op {
	return Op{Kind: OpInsert, Action: act, UID: id, Host: host}
}

// RemoveOp drops a server node from Sv_A.
func RemoveOp(act string, id uid.UID, host transport.Addr) Op {
	return Op{Kind: OpRemove, Action: act, UID: id, Host: host}
}

// IncrementOp bumps clientNode's use count at the given hosts.
func IncrementOp(act string, id uid.UID, clientNode transport.Addr, hosts []transport.Addr) Op {
	return Op{Kind: OpIncrement, Action: act, UID: id, Host: clientNode, Hosts: hosts}
}

// DecrementOp is the complementary operation to IncrementOp.
func DecrementOp(act string, id uid.UID, clientNode transport.Addr, hosts []transport.Addr) Op {
	return Op{Kind: OpDecrement, Action: act, UID: id, Host: clientNode, Hosts: hosts}
}

// BindOp selects from Sv_A by the use lists and counts clientNode's binding
// at the first degree servers the selection rule picks; see DB.Bind.
func BindOp(act string, id uid.UID, clientNode transport.Addr, degree int, forUpdate bool) Op {
	return Op{Kind: OpBind, Action: act, UID: id, Host: clientNode, Degree: degree, ForUpdate: forUpdate}
}

// RepairOp removes the dead servers from Sv_A and counts clientNode's
// binding at now, unless the object is in use elsewhere; see DB.Repair.
func RepairOp(act string, id uid.UID, clientNode transport.Addr, now, dead []transport.Addr) Op {
	return Op{Kind: OpRepair, Action: act, UID: id, Host: clientNode, Hosts: now, Stores: dead}
}

// SelectOp reads Sv_A and the use lists and returns the servers the selection
// rule picks from, counting nothing; see DB.Select.
func SelectOp(act string, id uid.UID) Op {
	return Op{Kind: OpSelect, Action: act, UID: id}
}

// GetViewOp reads St_A and the class name.
func GetViewOp(act string, id uid.UID) Op {
	return Op{Kind: OpGetView, Action: act, UID: id}
}

// IncludeOp adds a store node back into St_A.
func IncludeOp(act string, id uid.UID, host transport.Addr) Op {
	return Op{Kind: OpInclude, Action: act, UID: id, Host: host}
}

// ExcludeOp removes failed store nodes from St sets.
func ExcludeOp(act string, pairs []ExcludePair, useWriteLock bool) Op {
	return Op{Kind: OpExclude, Action: act, Pairs: pairs, UseWriteLock: useWriteLock}
}

// EndActionOp finishes an action at the database.
func EndActionOp(act string, commit bool) Op {
	return Op{Kind: OpEndAction, Action: act, Commit: commit}
}

// OpResult is what one operation returned: Sv and the use lists
// (GetServer), the candidates (Select, Bind) and the hosts counted (Bind),
// St and the class (GetView, Deregister), the post-include view (Include),
// nothing for the rest.
type OpResult struct {
	Nodes []transport.Addr
	Class string
	Use   map[transport.Addr]map[transport.Addr]int
	Hosts []transport.Addr
}

// BatchReq is the database's request record: operations to execute in
// order. The ops that name no action run under the message's own action,
// which the database, its lone participant, mints and ends before it
// replies: committed, or aborted at the first op that failed.
type BatchReq struct {
	Ops []Op
}

// BatchResp carries one result per operation of the request.
type BatchResp struct {
	Results []OpResult
}

// registerService installs the database's single dispatch path.
func registerService(srv *rpc.Server, db *DB) {
	srv.Handle(ServiceName, MethodBatch, rpc.Method(db.batch))
}

// batch executes a message's operations in order and stops at the first
// one that fails: that operation's error, code included, is the reply. An
// op of a named action runs exactly as if it had arrived alone, so the named
// actions' ops before the failure stand (their locks are held, their
// mutations pending, their commits made) — the state a sequence of single
// calls failing at the same operation leaves. The message's own action is
// aborted instead. It lives in this frame alone (see dbAction). An own
// EndAction ends it there, and the next own op begins another: what a
// message carries ahead of its own ops (Binder.do) commits as its own
// action and shares no lock or fate with theirs.
//
// The message runs in one critical section: it holds db.mu from its first
// op to its reply, but while an op waits for a lock (DB.lockLocked). The
// lock table therefore holds only the locks that outlive the message or
// must wait: the own action's locks are checked against it and kept beside
// the action, and recorded only for a wait.
//
// Each commit releases its locks at once, and the message writes, on
// success and on failure alike, before it replies (DB.writeLocked): one
// stable write for all it committed, with whatever other messages
// committed since the last write. A failed write fails the message;
// CodeStopped says that nothing of it is durable.
func (db *DB) batch(ctx context.Context, from transport.Addr, req BatchReq) (BatchResp, error) {
	if db.failed.Load() {
		return BatchResp{}, errStopped
	}
	resp := BatchResp{Results: make([]OpResult, len(req.Ops))}
	db.mu.Lock()
	defer db.mu.Unlock()
	m := message{ctx: ctx, locks: db.locks, incarnation: db.incarnation}
	m.own, m.named = dbAction{from: from, own: true}, dbAction{from: from}
	var err error
	for i := range req.Ops {
		op, a := &req.Ops[i], &m.own
		if op.Action != "" {
			m.named.name, a = op.Action, &m.named
		}
		if resp.Results[i], err = db.exec(&m, a, op); err != nil {
			break
		}
	}
	db.endOwnLocked(&m, err == nil)
	first := m.own.first
	if m.named.first != 0 && (first == 0 || m.named.first < first) {
		first = m.named.first
	}
	if werr := db.writeLocked(first, m.incarnation); werr != nil {
		return BatchResp{}, werr
	}
	if err != nil {
		return BatchResp{}, err
	}
	return resp, nil
}

// exec runs one operation of message m under a. db.mu held.
func (db *DB) exec(m *message, a *dbAction, op *Op) (res OpResult, err error) {
	switch op.Kind {
	case OpRegister:
		err = db.Register(m, a, op.UID, op.Class, op.Hosts, op.Stores)
	case OpDeregister:
		res.Nodes, res.Class, err = db.Deregister(m, a, op.UID, op.Host)
	case OpGetServer:
		res.Nodes, res.Use, err = db.GetServer(m, a, op.UID, op.WantUse, op.ForUpdate)
	case OpInsert:
		err = db.Insert(m, a, op.UID, op.Host)
	case OpRemove:
		err = db.Remove(m, a, op.UID, op.Host)
	case OpIncrement:
		err = db.Increment(m, a, op.UID, op.Host, op.Hosts)
	case OpDecrement:
		err = db.Decrement(m, a, op.UID, op.Host, op.Hosts)
	case OpGetView:
		res.Nodes, res.Class, err = db.GetView(m, a, op.UID)
	case OpInclude:
		res.Nodes, err = db.Include(m, a, op.UID, op.Host)
	case OpExclude:
		err = db.Exclude(m, a, op.Pairs, op.UseWriteLock)
	case OpEndAction:
		if a.own {
			// An own op after this one starts a fresh own action (batch).
			db.endOwnLocked(m, op.Commit)
		} else {
			a.committed(db.endActionLocked(a.name, op.Commit))
		}
	case OpBind:
		res.Nodes, res.Hosts, err = db.Bind(m, a, op.UID, op.Host, op.Degree, op.ForUpdate)
	case OpSelect:
		res.Nodes, err = db.Select(m, a, op.UID)
	case OpRepair:
		err = db.Repair(m, a, op.UID, op.Host, op.Hosts, op.Stores)
	default:
		err = rpc.Errorf(rpc.CodeInternal, "unknown groupview op %d", op.Kind)
	}
	return res, err
}

// Client is a typed client for a remote group view database.
type Client struct {
	RPC rpc.Client
	DB  transport.Addr
}

// opScratch holds the op lists Do sends. The RPC layer's generic call
// leaks its request, so a request naming the caller's ops would put every
// variadic caller's argument array on the heap; Do copies them into a list
// from here instead, free for the next message once its request returns.
var opScratch = sync.Pool{New: func() any { return new([]Op) }}

// Do sends ops to the database as one message and returns their results
// in order. On an error no result is returned; see batch for what a
// message that fails part-way leaves behind.
func (c Client) Do(ctx context.Context, ops ...Op) ([]OpResult, error) {
	scratch := opScratch.Get().(*[]Op)
	sent := append((*scratch)[:0], ops...)
	res, err := c.send(ctx, sent)
	putOps(scratch, sent)
	return res, err
}

// send sends ops, a list the request may keep (see opScratch), as one
// message.
func (c Client) send(ctx context.Context, ops []Op) ([]OpResult, error) {
	resp, err := rpc.Invoke[BatchReq, BatchResp](ctx, c.RPC, c.DB, ServiceName, MethodBatch, BatchReq{Ops: ops})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(ops) {
		return nil, fmt.Errorf("core: %v answered %d ops with %d results", c, len(ops), len(resp.Results))
	}
	return resp.Results, nil
}

// putOps gives a list taken from opScratch back, emptied.
func putOps(scratch *[]Op, sent []Op) {
	clear(sent)
	*scratch = sent[:0]
	opScratch.Put(scratch)
}

// do1 sends a single operation.
func (c Client) do1(ctx context.Context, op Op) (OpResult, error) {
	res, err := c.Do(ctx, op)
	if err != nil {
		return OpResult{}, err
	}
	return res[0], nil
}

// Register registers a new object.
func (c Client) Register(ctx context.Context, act string, id uid.UID, class string, svNodes, stNodes []transport.Addr) error {
	_, err := c.do1(ctx, RegisterOp(act, id, class, svNodes, stNodes))
	return err
}

// Deregister removes an object from both databases on its way to the
// database to, returning the last St view and class for the caller's
// catch-up. Fails with CodeNotQuiescent while any use list is non-empty.
func (c Client) Deregister(ctx context.Context, act string, id uid.UID, to transport.Addr) ([]transport.Addr, string, error) {
	res, err := c.do1(ctx, DeregisterOp(act, id, to))
	return res.Nodes, res.Class, err
}

// GetServer fetches Sv_A (and use lists when wantUse); forUpdate takes a
// write lock.
func (c Client) GetServer(ctx context.Context, act string, id uid.UID, wantUse, forUpdate bool) ([]transport.Addr, map[transport.Addr]map[transport.Addr]int, error) {
	res, err := c.do1(ctx, GetServerOp(act, id, wantUse, forUpdate))
	return res.Nodes, res.Use, err
}

// GetView fetches St_A and the class name.
func (c Client) GetView(ctx context.Context, act string, id uid.UID) ([]transport.Addr, string, error) {
	res, err := c.do1(ctx, GetViewOp(act, id))
	return res.Nodes, res.Class, err
}

// Include adds a store node back into St_A under the §4.2 write lock and
// returns the post-include view — the fetch sources for the caller's
// catch-up, valid while the caller's action holds the lock.
func (c Client) Include(ctx context.Context, act string, id uid.UID, host transport.Addr) ([]transport.Addr, error) {
	res, err := c.do1(ctx, IncludeOp(act, id, host))
	return res.Nodes, err
}

// Exclude removes failed store nodes from St sets (batched).
func (c Client) Exclude(ctx context.Context, act string, pairs []ExcludePair, useWriteLock bool) error {
	_, err := c.do1(ctx, ExcludeOp(act, pairs, useWriteLock))
	return err
}

// EndAction finishes an action at the database.
func (c Client) EndAction(ctx context.Context, act string, commit bool) error {
	_, err := c.do1(ctx, EndActionOp(act, commit))
	return err
}

// String renders the client target for logs.
func (c Client) String() string { return fmt.Sprintf("groupview@%s", c.DB) }
