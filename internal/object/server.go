package object

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/conc"
	"repro/internal/group"
	"repro/internal/lockmgr"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// ServiceName is the RPC service under which a node's object servers are
// reachable.
const ServiceName = "objsrv"

// RPC method names.
const (
	MethodInvoke    = "Invoke"
	MethodPrepare   = "Prepare"
	MethodCommit    = "Commit"
	MethodAbort     = "Abort"
	MethodPassivate = "Passivate"
	MethodStatus    = "Status"
	MethodInstall   = "Install"
)

// Application error codes specific to object servers.
const (
	// CodeNotActive reports an invocation on an object with no server at
	// this node — the caller must activate first.
	CodeNotActive = "not-active"
	// CodeUnavailable reports that activation failed because no St node
	// could supply the object's state.
	CodeUnavailable = "unavailable"
	// CodeBusy reports a refused passivation (the object is not quiescent).
	CodeBusy = "busy"
	// CodeStaleServer reports that this node's activated copy was refused
	// as stale by a store already holding that version or a later one; the
	// instance has been destroyed and the calling action must abort (a
	// retry re-activates fresh).
	CodeStaleServer = "stale-server"
	// CodeCommitUncertain reports that a one-phase commit attempt ended
	// ambiguously: the server's one-phase Prepare to the St node failed
	// with an error that does not rule out the store having durably applied
	// the write (context cancellation, deadline, or a lost reply) — or a
	// solo op was folded into another action's commit and its caller stopped
	// waiting before that commit was decided. The caller must NOT treat this
	// as a definite refusal — the outcome is unknown and has to be resolved
	// (or reported as unknown) upstream.
	CodeCommitUncertain = "commit-uncertain"
)

// GroupPrefix prefixes the group ID servers join for an object when group
// invocation is enabled: GroupPrefix + UID.String().
const GroupPrefix = "obj/"

// KindInvoke is the multicast message kind for group-ordered invocations.
const KindInvoke = "invoke"

// instance is one activated object replica living in a node's volatile
// memory.
type instance struct {
	class *Class
	id    uid.UID
	locks *lockmgr.Manager

	mu    sync.Mutex
	state []byte
	// seq is the committed version this state derives from.
	seq uint64
	// actions holds a record for each action currently bound here (invoked
	// at least once and not yet ended); the object is quiescent when empty.
	actions map[string]actionRec

	// Read-lease state (see lease.go; all guarded by mu). stNodes is
	// the St view captured at activation, for grant-time probes.
	// confirmedAt is the last instant this copy was confirmed latest
	// against a store majority (zero until first confirmed — a freshly
	// activated copy loaded from ONE store may be stale, so the first
	// grant always probes). leaseHolders maps each holder's client node
	// to its grant expiry by this server's clock; leaseSeq is the
	// version those holders were granted at. graceUntil is the instant
	// before which no version-advancing commit may be acknowledged
	// (zero until the instance's first advance sets it).
	stNodes      []string
	confirmedAt  time.Time
	leaseSeq     uint64
	leaseHolders map[transport.Addr]time.Time
	graceUntil   time.Time

	// comb queues solo commutative ops that lost the write-lock race;
	// it has its own mutex (see combine.go for the lock order).
	comb combiner
}

// actionRec is what an instance keeps about one bound action.
type actionRec struct {
	// dirty marks an action that modified the state.
	dirty bool
	// snap is the state before the action's first write, which an abort
	// restores; snapped says it was taken (an empty state copies to nil).
	snap    []byte
	snapped bool
	// prepared lists the St nodes where the action's write-back is
	// prepared, and preparedSeq is the version it will commit as (0 until
	// a prepare is recorded, which may have reached no store).
	prepared    []transport.Addr
	preparedSeq uint64
	// batch holds the commutative ops folded into the write-back at
	// prepare time, awaiting the outcome.
	batch []*pendingOp
	// onePhase marks a one-phase store leg in flight, or one that failed
	// leaving doubt: the batch's fate is the store's, whatever an Abort
	// says meanwhile.
	onePhase bool
}

// newInstance builds an instance holding state at version seq, with no
// action bound.
func (m *Manager) newInstance(class *Class, id uid.UID, state []byte, seq uint64, stNodes []string) *instance {
	return &instance{
		class:        class,
		id:           id,
		locks:        m.newLocks(),
		state:        state,
		seq:          seq,
		actions:      make(map[string]actionRec),
		stNodes:      stNodes,
		leaseHolders: make(map[transport.Addr]time.Time),
	}
}

// writing reports whether some bound action has modified the state. in.mu
// is held.
func (in *instance) writing() bool {
	for _, rec := range in.actions {
		if rec.dirty {
			return true
		}
	}
	return false
}

// volatileKey is where a node's activated instances live; being volatile,
// every activated object disappears when the node crashes (§2.1).
const volatileKey = "objsrv.instances"

// instanceTable is the volatile map of activated objects.
type instanceTable struct {
	mu sync.Mutex
	m  map[uid.UID]*instance
}

// Manager runs a node's object servers: it activates passive objects,
// executes invocations under action-held locks, and drives commit-time
// state copy-back to the object stores.
type Manager struct {
	node     *sim.Node
	registry *Registry
	ghost    *group.Host // nil unless group invocation is enabled
	stats    *metrics.Registry
	// leaseTTL enables read leases when non-zero (see lease.go). Set
	// before any traffic.
	leaseTTL time.Duration
	// pool runs the manager's fan-outs to stores and cohorts.
	pool conc.Pool
}

// NewManager installs an object-server manager on node, registering its
// RPC handlers. The registry supplies method code — the paper's assumption
// that server nodes hold the executable binary for the objects they serve.
func NewManager(node *sim.Node, registry *Registry) *Manager {
	m := &Manager{node: node, registry: registry, stats: node.Metrics()}
	srv := node.Server()
	srv.Handle(ServiceName, MethodInvoke, rpc.Method(m.handleInvoke))
	srv.Handle(ServiceName, MethodPrepare, rpc.Method(m.handlePrepare))
	srv.Handle(ServiceName, MethodCommit, rpc.Method(m.handleCommit))
	srv.Handle(ServiceName, MethodAbort, rpc.Method(m.handleAbort))
	srv.Handle(ServiceName, MethodPassivate, rpc.Method(m.handlePassivate))
	srv.Handle(ServiceName, MethodStatus, rpc.Method(m.handleStatus))
	srv.Handle(ServiceName, MethodInstall, rpc.Method(m.handleInstall))
	return m
}

// EnableGroupInvocation joins activated objects to a per-object group so
// that invocations can be delivered in total order across all replica
// servers — required by active replication (§2.3(2)).
func (m *Manager) EnableGroupInvocation(host *group.Host) { m.ghost = host }

// newLocks builds an instance's lock manager, with this manager observing
// queue events.
func (m *Manager) newLocks() *lockmgr.Manager {
	lm := lockmgr.New(lockmgr.NoNesting)
	lm.SetObserver(m)
	return lm
}

// Lock-queue observability (lockmgr.Observer). The recorded series appear
// in System.StatsSnapshot alongside the RPC counters.
var _ lockmgr.Observer = (*Manager)(nil)

// LockQueued implements lockmgr.Observer.
func (m *Manager) LockQueued(depth int) {
	m.stats.Histogram("objsrv.lock.queue_depth").Record(float64(depth))
}

// LockGranted implements lockmgr.Observer.
func (m *Manager) LockGranted(wait time.Duration) {
	m.stats.Histogram("objsrv.lock.wait_ms").RecordDuration(wait)
}

// table returns the node's instance table, creating it on first use in
// this incarnation. Get-or-create is one step at the node: two first
// callers racing on a fresh or just-recovered node must agree on the table,
// or an instance activated into the loser's is not-active to its own next
// request.
func (m *Manager) table() *instanceTable {
	return m.node.VolatileOrStore(volatileKey, func() any {
		return &instanceTable{m: make(map[uid.UID]*instance)}
	}).(*instanceTable)
}

func (m *Manager) lookup(id uid.UID) (*instance, bool) {
	t := m.table()
	t.mu.Lock()
	defer t.mu.Unlock()
	in, ok := t.m[id]
	return in, ok
}

// --- wire records ---

// InvokeReq invokes a method under an action. It is the object server's one
// request for work under an action.
//
// A request with no Method runs none. With an Action it takes the object's
// read lock for that action and records the action bound, as a read-only
// method does before it runs: the re-check of a read served with no lock
// behind it (a lease, a carried read-only vote). A writer that superseded
// that read cannot release its write lock before its lease fence completes,
// so a granted read lock plus a matching InvokeResp.Seq proves the read
// still the latest committed state, and keeps it so through the action's
// commit. Without an Action it takes no lock and records nothing: with
// Class set it is an activation probe. A method-less request is never Solo,
// never carries phase one and is never granted a lease.
type InvokeReq struct {
	UID    string
	Action string
	Method string
	Args   []byte
	// Solo declares that this invocation is the action's ENTIRE write set:
	// the action touches no other object and performs no further writes.
	// For a method the class marks Commutative, that permission lets the
	// server fold the op into a concurrent holder's commit instead of
	// queueing for the lock. Callers that cannot promise this must leave
	// it false.
	Solo bool
	// LeaseHolder, when non-empty, names the client node that would
	// like a read lease on the object: if the invocation takes the read
	// path, carries no phase one, and the server can vouch its copy is the
	// latest committed version, the reply carries a LeaseGrant (see
	// lease.go).
	LeaseHolder string
	// Class and StNodes ride a binding's first request: when Class is
	// non-empty and the object has no server at this node, the handler
	// activates it, loading its state from StNodes, before invoking. Later
	// requests leave Class empty; a miss is then CodeNotActive. Failover
	// says that the binding tried a server it preferred first and got no
	// answer: a copy already activated here is then checked against the
	// stores before it serves (Manager.revalidate).
	Class    string
	StNodes  []string
	Failover bool
	// Carry, on a Solo request, asks the server to go straight on from the
	// method into the action's phase one: the operation is all the action
	// will ever do, so the vote need not wait for a second message. The
	// server runs what the Prepare RPC runs against StNodes — one-phase, with
	// CheckpointTo, for CarryCommit — and the reply carries the vote beside
	// the result. A method that fails carries nothing, and neither does an op
	// folded into another action's commit.
	Carry        Carry
	CheckpointTo []string
}

// Carry says how far a solo request takes its action once the method has
// run.
type Carry uint8

// The carried phases. The client picks by the rule that sets
// PrepareReq.OnePhase (see replica.Prepare).
const (
	CarryNone Carry = iota
	CarryPrepare
	CarryCommit
)

// InvokeResp carries the method result. Modified reports whether the
// invocation took the write path (clients use it to decide whether a
// checkpoint or state copy will be needed).
type InvokeResp struct {
	Result   []byte
	Modified bool
	// Seq is the committed version the object held when the request ran,
	// read under the request's lock when it took one.
	Seq uint64
	// Batched reports that the op was folded into another action's commit,
	// which has ALREADY COMMITTED: the effect is durable and the invoking
	// action has nothing left to write or prepare.
	Batched bool
	// BatchSize is the number of ops the carrying commit folded (set only
	// when Batched).
	BatchSize int
	// WaitNanos is how long the op waited for the lock or in the combiner
	// queue before resolving, for client-side queue-wait stats.
	WaitNanos int64
	// Lease, when non-nil, is the read lease granted for this
	// invocation (requested via InvokeReq.LeaseHolder).
	Lease *LeaseGrant
	// Carried echoes InvokeReq.Carry when the server went on into phase one
	// in this request. Vote is then what the Prepare RPC would have answered
	// for the object, a refusal included. The method's result stands either
	// way: a refused vote is the caller's commit failing, not its invocation.
	Carried Carry
	Vote    Vote
}

// PrepareReq is phase one of the client action's 2PC at this server: the
// commit-time copy of each named object's state to its St nodes. A client
// sends each server one PrepareReq per action, naming every object of the
// action it holds there; an object alone at its server is a one-item
// request. Each object is prepared as it would be alone — its own lock, its
// own version-chain check at every store, its own vote — but the write-backs
// bound for one store travel in one store Prepare.
type PrepareReq struct {
	Action string
	Items  []PrepareItem
	// OnePhase delegates the commit decision to this server — the client
	// action's only voter, writing one object back to at most one store,
	// which is then told to commit the copy outright (the coordinator
	// delegation of R*). A dirty action is finished here as Commit finishes
	// one, with the item's CheckpointTo as Commit's; no phase two follows. A
	// one-phase prepare of several objects or over several stores is
	// refused: only one store's apply of one write is atomic without the
	// coordinator's outcome log.
	OnePhase bool
}

// PrepareItem names one object of a PrepareReq and the St nodes its state is
// copied to. CheckpointTo rides a one-phase item only (see
// PrepareReq.OnePhase).
type PrepareItem struct {
	UID          string
	StNodes      []string
	CheckpointTo []string
}

// PrepareResp answers a PrepareReq with one vote per item, in item order.
type PrepareResp struct {
	Votes []Vote
}

// Vote is one object's phase-one answer.
type Vote struct {
	// Dirty is false when the action never modified the object: no state
	// copy is needed, and the server has already released the action (the
	// §4.1.2 read optimisation — no phase-two round trip follows).
	Dirty bool
	// NewSeq is the version number the new state will commit (or, one-phase,
	// committed) as — or, with a read-only vote, the committed version the
	// action read under the lock this reply released.
	NewSeq uint64
	// PreparedNodes successfully recorded the intention (none one-phase:
	// the store committed the copy).
	PreparedNodes []string
	// FailedNodes could not be reached or refused — and, one-phase, cohorts
	// whose checkpoint failed; the paper requires the caller to Exclude
	// these from St_A.
	FailedNodes []string
	// BatchSize counts the operations this prepare's state copy carries:
	// 1 for an ordinary action, 1+N when N queued commutative ops were
	// folded into the write-back.
	BatchSize int
	// Code and Msg, when Code is set, are the object's refusal: the error a
	// request naming that object alone would have returned. A refusal
	// carries nothing else.
	Code, Msg string
}

// Err returns the vote's refusal as an error, nil when the vote was given.
func (v Vote) Err() error {
	if v.Code == "" {
		return nil
	}
	return &rpc.AppError{Code: v.Code, Msg: v.Msg}
}

// refusal returns the item answer that stands for err: its code and text,
// as the error would have crossed the wire as a request's reply.
func refusal(err error) (code, msg string) {
	ae := rpc.AppErrorOf(err)
	return ae.Code, ae.Msg
}

// EndReq is phase two — commit or abort — of the client action at this
// server, for every named object. Like PrepareReq it names every object of
// the action the server holds, and each store the objects prepared at gets
// one Commit or Abort of the action.
type EndReq struct {
	Action string
	Items  []EndItem
}

// EndItem names one object of an EndReq. CheckpointTo, on commit, asks the
// server to push the object's newly committed state to these nodes via
// Install — the coordinator-cohort checkpointing of §2.3(ii).
type EndItem struct {
	UID          string
	CheckpointTo []string
}

// InstallReq pushes a committed state snapshot into a node's server for an
// object, creating the instance if needed (a cohort receiving a
// checkpoint).
type InstallReq struct {
	UID   string
	Class string
	State []byte
	Seq   uint64
}

// InstallResp acknowledges an install.
type InstallResp struct{ Installed bool }

// EndResp answers an EndReq with one result per item, in item order.
type EndResp struct {
	Results []EndResult
}

// EndResult reports one object's phase two: the stores and cohorts whose
// leg failed (informational; the outcome stands), or — Code set — the error
// a request naming that object alone would have returned.
type EndResult struct {
	FailedNodes []string
	Code, Msg   string
}

// Err returns the result's error, nil when the object's phase two ran.
func (r EndResult) Err() error {
	if r.Code == "" {
		return nil
	}
	return &rpc.AppError{Code: r.Code, Msg: r.Msg}
}

// PassivateReq asks the server to destroy a quiescent instance.
type PassivateReq struct {
	UID string
	// Force destroys the instance even with users (simulates an abrupt
	// server shutdown without a node crash).
	Force bool
}

// PassivateResp reports whether the instance was destroyed.
type PassivateResp struct{ Passivated bool }

// StatusReq queries an object's server at this node.
type StatusReq struct{ UID string }

// StatusResp describes an instance.
type StatusResp struct {
	Active bool
	Seq    uint64
	Users  int
	// Prepared counts actions whose commit-time write-back was prepared at
	// the stores but whose outcome this server has not yet processed. A
	// quiescent instance has Users == 0 and Prepared == 0; anything else
	// after all actions have terminated marks a wedged instance (e.g. a
	// phase-two message that never arrived) — the chaos invariant checkers
	// look for exactly that.
	Prepared int
}

// --- handlers ---

// activate returns the node's server for the object, creating it — state
// loaded from one of stNodes — when there is none: a binding's first
// request arriving at a node where the object is passive.
func (m *Manager) activate(ctx context.Context, id uid.UID, className string, stNodes []string) (*instance, error) {
	if in, ok := m.lookup(id); ok {
		return in, nil
	}
	class, err := m.registry.Lookup(className)
	if err != nil {
		return nil, rpc.Errorf(rpc.CodeNotFound, "%v", err)
	}
	loaded, found := m.loadState(ctx, id, stNodes)
	if !found {
		return nil, rpc.Errorf(CodeUnavailable, "object %s: no reachable store in %v has its state", id, stNodes)
	}
	in, _ := m.admit(m.newInstance(class, id, loaded.Data, loaded.Seq, append([]string(nil), stNodes...)))
	return in, nil
}

// admit puts a new instance into the node's instance table and joins it to
// the object's group. When the table already holds a server for the object —
// a concurrent activation or checkpoint won the race — in is dropped, and
// the resident instance is returned with admitted false, its group
// membership untouched.
func (m *Manager) admit(in *instance) (resident *instance, admitted bool) {
	t := m.table()
	t.mu.Lock()
	if existing, ok := t.m[in.id]; ok {
		t.mu.Unlock()
		return existing, false
	}
	t.m[in.id] = in
	t.mu.Unlock()
	if m.ghost != nil {
		m.ghost.Join(GroupPrefix+in.id.String(), m.groupApply(in))
	}
	return in, true
}

// loadState reads the object's latest committed state from the first store
// node of stNodes that answers (§3.2(4): "each server is free to load the
// state of the object from any of the nodes ∈ St"). The read is
// ReadDecided: a commit whose phase-two message the store never got is
// applied first. An undecided intention stays pending, and the version
// chain check refuses a copy loaded underneath it.
func (m *Manager) loadState(ctx context.Context, id uid.UID, stNodes []string) (loaded store.Version, found bool) {
	for _, st := range stNodes {
		remote := store.RemoteStore{Client: m.node.Client(), Node: transport.Addr(st)}
		if v, err := remote.ReadDecided(ctx, id); err == nil {
			return v, true
		}
	}
	return store.Version{}, false
}

// groupApply adapts group deliveries of KindInvoke to instance invocation.
func (m *Manager) groupApply(in *instance) group.Apply {
	return func(ctx context.Context, msg group.Delivered) ([]byte, error) {
		if msg.Kind != KindInvoke {
			return nil, rpc.Errorf(rpc.CodeNoSuchMethod, "unsupported group message kind %q", msg.Kind)
		}
		var req InvokeReq
		if err := rpc.Decode(msg.Payload, &req); err != nil {
			return nil, err
		}
		// Batching is a coordinator-path optimisation; under active
		// replication the drain would run on one replica only and diverge
		// the copies, so group-delivered invokes never take the solo path.
		// Leases are likewise a single-copy-passive feature: a grant from
		// one replica of an actively replicated object would bypass the
		// total order, so group-delivered invokes never grant.
		req.Solo = false
		req.LeaseHolder = ""
		resp, err := m.invokeOn(ctx, in, req)
		if err != nil {
			return nil, err
		}
		return rpc.Encode(&resp)
	}
}

func (m *Manager) handleInvoke(ctx context.Context, from transport.Addr, req InvokeReq) (InvokeResp, error) {
	in, err := m.instanceFor(ctx, from, req.UID, req.Class, req.StNodes, req.Failover)
	if err != nil {
		return InvokeResp{}, err
	}
	resp, err := m.invokeOn(ctx, in, req)
	if err != nil || !req.Solo || req.Carry == CarryNone || resp.Batched || req.Method == "" {
		return resp, err
	}
	m.carryPhaseOne(ctx, from, req, &resp)
	return resp, nil
}

// carryPhaseOne runs the action's phase one in the request that ran its
// only operation, by calling the handler the client would otherwise have
// addressed next — so the lease fence, the combiner drain, stale-copy
// passivation and the in-doubt report are that handler's, at the same point
// of its code, one request earlier. The write lock is held from the method
// to the end of the commit with no client round trip in between.
func (m *Manager) carryPhaseOne(ctx context.Context, from transport.Addr, req InvokeReq, resp *InvokeResp) {
	item := [1]PrepareItem{{UID: req.UID, StNodes: req.StNodes, CheckpointTo: req.CheckpointTo}}
	var vote [1]Vote
	resp.Carried = req.Carry
	if err := m.prepare(ctx, from, req.Action, req.Carry == CarryCommit, item[:], vote[:]); err != nil {
		resp.Vote.Code, resp.Vote.Msg = refusal(err)
		return
	}
	resp.Vote = vote[0]
}

func (m *Manager) invokeOn(ctx context.Context, in *instance, req InvokeReq) (InvokeResp, error) {
	// A method-less request runs none, under a read lock when it has an
	// action, and under no lock at all when it has none.
	method, mode := Method(noMethod), lockmgr.Read
	if req.Method != "" {
		var err error
		if method, err = in.class.Method(req.Method); err != nil {
			return InvokeResp{}, rpc.Errorf(rpc.CodeNoSuchMethod, "%v", err)
		}
		if !in.class.IsReadOnly(req.Method) {
			mode = lockmgr.Write
		}
	} else if req.Action == "" {
		in.mu.Lock()
		defer in.mu.Unlock()
		return InvokeResp{Seq: in.seq}, nil
	}
	if req.Solo && mode == lockmgr.Write && in.class.IsCommutative(req.Method) {
		return m.invokeSolo(ctx, in, req, method)
	}
	// Strict two-phase locking: the lock is owned by the client action and
	// held until that action ends (Commit/Abort RPC).
	start := time.Now()
	if err := in.locks.Acquire(ctx, lockmgr.Owner(req.Action), "state", mode); err != nil {
		return InvokeResp{}, rpc.Errorf(rpc.CodeRefused, "lock: %v", err)
	}
	result, seq, err := in.runMethod(req.Action, method, req.Args, mode == lockmgr.Write)
	if err != nil {
		// A failed method leaves the state untouched; the lock stays held
		// (the action will abort or retry).
		return InvokeResp{}, rpc.Errorf(rpc.CodeInternal, "method %s: %v", req.Method, err)
	}
	resp := InvokeResp{Result: result, Modified: mode == lockmgr.Write, Seq: seq, WaitNanos: int64(time.Since(start))}
	// A request carrying phase one releases the read lock before its reply
	// leaves, so it is never granted (see invalidateHolders).
	carries := req.Solo && req.Carry != CarryNone
	if req.Method != "" && mode == lockmgr.Read && !carries && m.leaseTTL > 0 && req.LeaseHolder != "" {
		resp.Lease = m.maybeGrant(ctx, in, transport.Addr(req.LeaseHolder))
	}
	return resp, nil
}

// noMethod is what a method-less request runs.
func noMethod(state, _ []byte) ([]byte, []byte, error) { return state, nil, nil }

// runMethod executes method under in.mu with strict-2PL bookkeeping: the
// caller must hold the appropriate lock for action. A failed method
// leaves state, snapshot, and dirty flags exactly as they were except for
// the users entry, which records that the action touched this server. The
// committed version the method ran on is returned beside its result.
func (in *instance) runMethod(action string, method Method, args []byte, write bool) ([]byte, uint64, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	rec := in.actions[action]
	if write && !rec.snapped {
		rec.snap, rec.snapped = append([]byte(nil), in.state...), true
	}
	newState, result, err := method(in.state, args)
	if err == nil && write {
		in.state = newState
		rec.dirty = true
	}
	in.actions[action] = rec
	return result, in.seq, err
}

// invokeSolo handles a solo commutative write: take the write lock if
// free (leader — proceeds exactly like an ordinary invoke and will drain
// the combiner at its prepare), otherwise park the op in the combiner to
// ride the current holder's commit. See combine.go for the scheme.
func (m *Manager) invokeSolo(ctx context.Context, in *instance, req InvokeReq, method Method) (InvokeResp, error) {
	owner := lockmgr.Owner(req.Action)
	start := time.Now()
	if err := in.locks.TryAcquire(owner, "state", lockmgr.Write); err == nil {
		result, seq, merr := in.runMethod(req.Action, method, req.Args, true)
		if merr != nil {
			return InvokeResp{}, rpc.Errorf(rpc.CodeInternal, "method %s: %v", req.Method, merr)
		}
		return InvokeResp{Result: result, Modified: true, Seq: seq, WaitNanos: int64(time.Since(start))}, nil
	}
	op := newPendingOp(req.Action, req.Method, req.Args)
	depth := in.comb.push(op)
	m.stats.Histogram("objsrv.lock.queue_depth").Record(float64(depth))
	// Self-kick: the lock may have been released between the TryAcquire
	// above and the enqueue; without this the op could sit forever on an
	// idle lock.
	m.kickCombiner(in)

	// Parked like a lock waiter: until the outcome, or the caller's context.
	var out opOutcome
	select {
	case out = <-op.done:
	case <-ctx.Done():
		if in.comb.remove(op) {
			// Still queued: cleanly withdrawn, nothing happened.
			return InvokeResp{}, rpc.Errorf(rpc.CodeRefused, "object %s: op abandoned: %v", req.UID, ctx.Err())
		}
		// A leader claimed the op in the same instant: its fate is tied to
		// that leader's commit now. The caller has stopped waiting, so
		// unless the verdict is already in — the leader may be an action
		// whose client gave it up without an Abort reaching this server, and
		// then none ever comes — it is told exactly that: the op may yet
		// commit.
		select {
		case out = <-op.done:
		default:
			return InvokeResp{}, rpc.Errorf(CodeCommitUncertain,
				"object %s: op folded into a commit still undecided: %v", req.UID, ctx.Err())
		}
	}
	wait := int64(time.Since(start))
	m.stats.Histogram("objsrv.lock.wait_ms").RecordDuration(time.Duration(wait))
	if out.err != nil {
		return InvokeResp{}, out.err
	}
	if out.leader {
		// Promoted to lock holder: the op is applied and this action drives
		// its own commit, draining whatever queued behind it meanwhile.
		return InvokeResp{Result: out.result, Modified: true, Seq: out.seq, WaitNanos: wait}, nil
	}
	m.stats.Counter("objsrv.batch.folded").Inc()
	return InvokeResp{Result: out.result, Modified: true, Seq: out.seq, Batched: true, BatchSize: out.batchSize, WaitNanos: wait}, nil
}

// kickCombiner promotes the combiner queue head to write-lock holder when
// the lock is free. Called after every lock release and after an enqueue
// (the self-kick). TryAcquire's no-barging keeps promotion fair with the
// lock manager's own FIFO waiters: if an ordinary action is queued ahead,
// promotion refuses, that action wins the lock, and its prepare drains
// the combiner instead.
func (m *Manager) kickCombiner(in *instance) {
	for {
		in.comb.mu.Lock()
		if len(in.comb.queue) == 0 {
			in.comb.mu.Unlock()
			return
		}
		head := in.comb.queue[0]
		if err := in.locks.TryAcquire(lockmgr.Owner(head.action), "state", lockmgr.Write); err != nil {
			in.comb.mu.Unlock()
			return
		}
		in.comb.queue = in.comb.queue[1:]
		in.comb.mu.Unlock()

		method, err := in.class.Method(head.method)
		if err != nil {
			in.locks.ReleaseAll(lockmgr.Owner(head.action))
			head.done <- opOutcome{err: rpc.Errorf(rpc.CodeNoSuchMethod, "%v", err)}
			continue
		}
		result, seq, merr := in.runMethod(head.action, method, head.args, true)
		if merr != nil {
			// Same contract as a failed ordinary invoke: state untouched,
			// lock held, the client aborts the action and that abort cleans
			// up. The abort's release will kick the next head.
			head.done <- opOutcome{err: rpc.Errorf(rpc.CodeInternal, "method %s: %v", head.method, merr)}
			return
		}
		head.done <- opOutcome{result: result, seq: seq, leader: true}
		return
	}
}

// drainCombinerLocked folds every queued commutative op into the state
// under the lock-holding action whose record is rec. Caller holds in.mu and
// stores rec back; the action holds the write lock and its pre-write
// snapshot is already recorded, so the action's abort undoes the whole
// fold. Ops whose method fails are
// resolved immediately (their individual failure does not poison the
// batch); the rest park in the action's batch awaiting its outcome.
// Returns the total op count the write-back now carries (1 + folded).
func (m *Manager) drainCombinerLocked(in *instance, rec *actionRec) int {
	for _, op := range in.comb.takeAll() {
		method, err := in.class.Method(op.method)
		if err != nil {
			op.done <- opOutcome{err: rpc.Errorf(rpc.CodeNoSuchMethod, "%v", err)}
			continue
		}
		newState, result, merr := method(in.state, op.args)
		if merr != nil {
			op.done <- opOutcome{err: rpc.Errorf(rpc.CodeInternal, "method %s: %v", op.method, merr)}
			continue
		}
		in.state = newState
		op.result, op.seq = result, in.seq
		rec.batch = append(rec.batch, op)
	}
	return 1 + len(rec.batch)
}

// resolveBatch answers every op folded into an action's write-back: with
// its result and the batch size when the action committed, else with err.
func (m *Manager) resolveBatch(batch []*pendingOp, err error) {
	if len(batch) == 0 {
		return
	}
	if err != nil {
		for _, op := range batch {
			op.done <- opOutcome{err: err}
		}
		return
	}
	total := 1 + len(batch)
	m.stats.Counter("objsrv.batch.commits").Inc()
	m.stats.Histogram("objsrv.batch.size").Record(float64(total))
	for _, op := range batch {
		op.done <- opOutcome{result: op.result, seq: op.seq, batchSize: total}
	}
}

// failPending resolves every queued and folded op with a retryable
// refusal — the instance is being destroyed (force passivation, stale
// server) and nobody will ever drain or commit them — except the ops a
// one-phase round in doubt took to the store, which may have committed.
func (m *Manager) failPending(in *instance, why string) {
	in.mu.Lock()
	var folded, inDoubt []*pendingOp
	for action, rec := range in.actions {
		if rec.onePhase {
			inDoubt = append(inDoubt, rec.batch...)
		} else {
			folded = append(folded, rec.batch...)
		}
		rec.batch = nil
		in.actions[action] = rec
	}
	in.mu.Unlock()
	m.resolveBatch(inDoubt, rpc.Errorf(CodeCommitUncertain, "object %s: %s after a one-phase commit in doubt", in.id, why))
	for _, op := range append(in.comb.takeAll(), folded...) {
		op.done <- opOutcome{err: rpc.Errorf(rpc.CodeRefused, "object %s: %s; retry", in.id, why)}
	}
}

func (m *Manager) mustLookup(uidStr string) (*instance, error) {
	id, err := uid.Parse(uidStr)
	if err != nil {
		return nil, rpc.Errorf(rpc.CodeInternal, "bad uid: %v", err)
	}
	in, ok := m.lookup(id)
	if !ok {
		return nil, rpc.Errorf(CodeNotActive, "object %s not active at %s", uidStr, m.node.Name())
	}
	return in, nil
}

// instanceFor returns the server a request addresses. A request that names
// the object's class (a binding's first) activates the object on a miss;
// any other miss is CodeNotActive. A first request that came here by
// failover does not take a copy it finds activated on trust (revalidate).
func (m *Manager) instanceFor(ctx context.Context, from transport.Addr, uidStr, class string, stNodes []string, failover bool) (*instance, error) {
	in, err := m.mustLookup(uidStr)
	if class == "" {
		return in, err
	}
	if err == nil && failover {
		err = m.revalidate(ctx, from, in, stNodes)
	}
	if !IsNotActive(err) {
		return in, err
	}
	id, _ := uid.Parse(uidStr) // mustLookup parsed it already
	return m.activate(ctx, id, class, stNodes)
}

// revalidate checks, for a binding that reached this node because a server
// it preferred did not answer, that the copy activated here is still the
// latest committed state. Nothing passivates an activated copy and nothing
// refreshes one: bindings follow the use lists and Sv's order to ONE server
// (§3.2(2)), so a copy at any other was left by an earlier failover — this
// node stood in while the preferred server was down, or slow for one client
// — and every commit since went through that server to the stores. A writer
// here is caught by the stores' version check at its prepare; a reader would
// be served the old state. So the stores are asked first, as activation asks
// them: a copy no older than what a member of the request's St view holds
// stands, and so does one an action is writing through (that writer's
// prepare is the check, and the read lock queues behind it). A stale copy
// nobody uses is destroyed — the error is CodeNotActive and the caller
// activates afresh; one still in use is refused as unavailable, which moves
// the binding on to its next candidate.
func (m *Manager) revalidate(ctx context.Context, from transport.Addr, in *instance, stNodes []string) error {
	latest, found := m.loadState(ctx, in.id, stNodes)
	if !found {
		return rpc.Errorf(CodeUnavailable, "object %s: no reachable store in %v to check the copy at %s against", in.id, stNodes, m.node.Name())
	}
	in.mu.Lock()
	seq, writing := in.seq, in.writing()
	in.mu.Unlock()
	if latest.Seq <= seq || writing {
		return nil
	}
	if _, err := m.handlePassivate(ctx, from, PassivateReq{UID: in.id.String()}); err != nil {
		return rpc.Errorf(CodeUnavailable, "object %s at %s: activated copy is stale (seq %d, stores hold %d) and in use", in.id, m.node.Name(), seq, latest.Seq)
	}
	return rpc.Errorf(CodeNotActive, "object %s at %s: stale copy (seq %d, stores hold %d) passivated", in.id, m.node.Name(), seq, latest.Seq)
}

// handlePrepare is phase one at this server: the commit-time copy of each
// named object's state to St (§3.2(2)). An action that only read an object is
// released from it on the spot. A dirty object has its state — queued
// commutative ops folded in — recorded as an intention at every St node of its
// item; or, OnePhase, committed outright by the one store, and the action
// finished here as Commit finishes it. Each store gets one Prepare carrying
// every write bound for it (copyStates). Whatever goes wrong for one object —
// it is not active here, a store refuses its write, its copy is stale — is
// that object's vote and no other's.
func (m *Manager) handlePrepare(ctx context.Context, from transport.Addr, req PrepareReq) (PrepareResp, error) {
	resp := PrepareResp{Votes: make([]Vote, len(req.Items))}
	if err := m.prepare(ctx, from, req.Action, req.OnePhase, req.Items, resp.Votes); err != nil {
		return PrepareResp{}, err
	}
	return resp, nil
}

// prepare is handlePrepare's work, for the request that carries phase one
// too: it leaves each item's vote at its index in votes. The error refuses
// the request's shape.
func (m *Manager) prepare(ctx context.Context, from transport.Addr, action string, onePhase bool, items []PrepareItem, votes []Vote) error {
	if onePhase && (len(items) != 1 || len(items[0].StNodes) > 1) {
		return rpc.Errorf(rpc.CodeInternal, "one-phase prepare of %d objects: one object over one store at most", len(items))
	}
	var one [1]writeBack
	wbs := one[:0]
	for i := range items {
		wb, err := m.beginWriteBack(action, &items[i], onePhase)
		switch {
		case err != nil:
			votes[i].Code, votes[i].Msg = refusal(err)
		case wb.in == nil:
			votes[i] = Vote{NewSeq: wb.seq}
		default:
			wb.vote = i
			wbs = append(wbs, wb)
		}
	}
	if len(wbs) == 0 {
		return nil
	}
	start := time.Now()
	m.copyStates(ctx, action, wbs, onePhase)
	for k := range wbs {
		vote, err := m.finishWriteBack(ctx, from, action, onePhase, &wbs[k], start)
		if err != nil {
			// A refusal carries nothing else, as an error reply has no body.
			vote = Vote{}
			vote.Code, vote.Msg = refusal(err)
		}
		votes[wbs[k].vote] = vote
	}
	return nil
}

// writeBack is one dirty object's phase one at this server: the state it
// copies back, the version that will commit as, and each store's answer.
type writeBack struct {
	in *instance
	// item is held by value: a pointer into the request's items would send
	// a one-item request's array, which a carried phase one keeps on its
	// stack, to the heap.
	item  PrepareItem
	vote  int // the item's index in the request
	seq   uint64
	state []byte
	batch int
	// errs holds the copy's outcome at each of item.StNodes — or, with one
	// St node, err alone, so that the commonest copy allocates no list.
	errs []error
	err  error
}

// outcome is the copy's outcome at item.StNodes[i].
func (wb *writeBack) outcome(i int) error {
	if wb.errs == nil {
		return wb.err
	}
	return wb.errs[i]
}

// beginWriteBack starts an object's phase one. An object the action only
// read is released right now — its record and its locks dropped — so the
// read-only vote ends this server's involvement with no phase-two round trip
// (§4.1.2): the returned write-back has no instance then, and seq is the
// version read. A dirty object has queued commutative ops folded into its
// state, which is taken for the copy.
func (m *Manager) beginWriteBack(action string, item *PrepareItem, onePhase bool) (writeBack, error) {
	in, err := m.mustLookup(item.UID)
	if err != nil {
		return writeBack{}, err
	}
	in.mu.Lock()
	rec := in.actions[action]
	if !rec.dirty {
		delete(in.actions, action)
		seq := in.seq
		in.mu.Unlock()
		in.locks.ReleaseAll(lockmgr.Owner(action))
		m.kickCombiner(in)
		return writeBack{seq: seq}, nil
	}
	// Fold queued commutative ops into this write-back before snapshotting:
	// they ride this action's single 2PC round (one lock hold, one commit,
	// N replies).
	batchSize := m.drainCombinerLocked(in, &rec)
	if onePhase {
		rec.onePhase = true
	}
	in.actions[action] = rec
	wb := writeBack{in: in, item: *item, seq: in.seq + 1, state: append([]byte(nil), in.state...), batch: batchSize}
	in.mu.Unlock()
	return wb, nil
}

// copyStates copies every write-back's new state to each of its St nodes
// (§3.2(2)), in parallel: each store gets one Prepare carrying every write
// bound for it, so the write-back costs one store round trip instead of one
// per store and object. A store refuses a Prepare whole, so a refused one
// carrying several writes is asked again per write: the refusal must land on
// the object it is about, and a store excluded for that object stays a store
// of the others.
func (m *Manager) copyStates(ctx context.Context, action string, wbs []writeBack, onePhase bool) {
	if len(wbs) == 1 {
		// One object: each store's Prepare carries its one write.
		stNodes := wbs[0].item.StNodes
		if len(stNodes) == 1 {
			// The one-phase shape, on every write of a one-store group: no
			// fan-out to pay for.
			wbs[0].err = m.copyState(ctx, action, stNodes[0], []store.Write{wbs[0].write()}, onePhase)
			return
		}
		writes := []store.Write{wbs[0].write()}
		wbs[0].errs = m.pool.DoErr(len(stNodes), func(j int) error {
			return m.copyState(ctx, action, stNodes[j], writes, onePhase)
		})
		return
	}
	type leg struct {
		st     string
		writes []store.Write // in wbs order
		errs   []error       // each write's outcome
	}
	legs := make([]leg, 0, len(wbs[0].item.StNodes))
	n := 0
	for k := range wbs {
		n += len(wbs[k].item.StNodes)
	}
	errs := make([]error, n)
	for k := range wbs {
		sts := wbs[k].item.StNodes
		wbs[k].errs, errs = errs[:len(sts):len(sts)], errs[len(sts):]
		for _, st := range sts {
			l := slices.IndexFunc(legs, func(l leg) bool { return l.st == st })
			if l < 0 {
				l = len(legs)
				legs = append(legs, leg{st: st, writes: make([]store.Write, 0, len(wbs)-k)})
			}
			legs[l].writes = append(legs[l].writes, wbs[k].write())
		}
	}
	m.pool.Do(len(legs), func(l int) {
		lg := &legs[l]
		lg.errs = make([]error, len(lg.writes))
		err := m.copyState(ctx, action, lg.st, lg.writes, onePhase)
		for i := range lg.writes {
			if err != nil && len(lg.writes) > 1 && storeRefused(err) {
				lg.errs[i] = m.copyState(ctx, action, lg.st, lg.writes[i:i+1], onePhase)
			} else {
				lg.errs[i] = err
			}
		}
	})
	// A leg's writes are those of the write-backs bound for its store, in
	// wbs order.
	for _, lg := range legs {
		i := 0
		for k := range wbs {
			if j := slices.Index(wbs[k].item.StNodes, lg.st); j >= 0 {
				wbs[k].errs[j] = lg.errs[i]
				i++
			}
		}
	}
}

// storeRefused reports whether a store answered a Prepare with a refusal,
// rather than failing to answer it.
func storeRefused(err error) bool {
	return rpc.CodeOf(err) != "" || errors.Is(err, store.ErrStaleVersion)
}

// write is the store write that copies wb's state back.
func (wb *writeBack) write() store.Write {
	return store.Write{UID: wb.in.id, Data: wb.state, Seq: wb.seq}
}

// finishWriteBack reads one object's store answers (copyStates) into its
// vote: the St nodes that prepared and the ones that failed. With onePhase and
// the one store's commit, the action is finished here as Commit finishes it.
// The error is the object's refusal.
func (m *Manager) finishWriteBack(ctx context.Context, from transport.Addr, action string, onePhase bool, wb *writeBack, start time.Time) (Vote, error) {
	in, item := wb.in, &wb.item
	// Remember which stores prepared so commit/abort can address exactly
	// those. Outcomes are read in StNodes order so PreparedNodes/FailedNodes
	// stay deterministic.
	vote := Vote{Dirty: true, NewSeq: wb.seq, BatchSize: wb.batch}
	var preparedAddrs []transport.Addr
	if !onePhase {
		vote.PreparedNodes = make([]string, 0, len(item.StNodes))
		preparedAddrs = make([]transport.Addr, 0, len(item.StNodes))
	}
	stale, doubt := false, false
	for i, st := range item.StNodes {
		switch err := wb.outcome(i); {
		case err == nil:
			if !onePhase {
				vote.PreparedNodes = append(vote.PreparedNodes, st)
				preparedAddrs = append(preparedAddrs, transport.Addr(st))
			}
			continue
		case errors.Is(err, store.ErrStaleVersion) && !errors.Is(err, store.ErrStoreBehind):
			stale = true
		case onePhase && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, transport.ErrReplyLost)):
			// The commit may have reached the store and applied before the
			// failure was observed (the server torn down mid-call, say).
			doubt = true
		}
		vote.FailedNodes = append(vote.FailedNodes, st)
	}
	accepted := len(item.StNodes) - len(vote.FailedNodes)
	if m.leaseTTL > 0 {
		// A store accepting the copy validated its base version, so a
		// majority acceptance confirms this copy was latest at start —
		// refreshing the no-probe grant window.
		in.markConfirmed(start, accepted, len(item.StNodes))
	}
	in.mu.Lock()
	rec, bound := in.actions[action]
	if bound && onePhase && accepted == 1 {
		// The store committed: finish the action in this hold of in.mu, so
		// no Abort can come between the commit and the version advance.
		rec.preparedSeq = wb.seq
		in.actions[action] = rec
		var res [1]EndResult
		m.commitEnds(ctx, action, []ending{m.endLocked(in, action, item.CheckpointTo, 0)}, res[:])
		vote.FailedNodes = append(vote.FailedNodes, res[0].FailedNodes...)
		return vote, res[0].Err()
	}
	if bound {
		if onePhase {
			// The store did not commit, unless the failure leaves doubt.
			rec.onePhase = doubt
		} else {
			rec.prepared, rec.preparedSeq = preparedAddrs, wb.seq
		}
		in.actions[action] = rec
	}
	in.mu.Unlock()
	if !bound {
		// The action's Abort overtook this prepare — its client cancelled the
		// prepare on another participant's refusal, or gave up on a one-phase
		// round, and rolled back at once — and has been and gone while the
		// copy was at the stores: the snapshot is restored, the lock released,
		// nobody will ask again.
		if onePhase && (accepted == 1 || doubt) {
			// The store holds, or may hold, a version this rolled-back copy
			// lacks: destroy the instance so the next request reloads it. The
			// write may stand, so the answer is no refusal.
			_, _ = m.handlePassivate(ctx, from, PassivateReq{UID: item.UID, Force: true})
			return Vote{}, rpc.Errorf(CodeCommitUncertain, "object %s: action %s was aborted while its one-phase commit was at the store", item.UID, action)
		}
		// Recording the intentions now would leave them, and the entry, for
		// ever; take them back instead.
		m.pool.Do(len(preparedAddrs), func(i int) {
			_ = store.RemoteStore{Client: m.node.Client(), Node: preparedAddrs[i]}.Abort(context.WithoutCancel(ctx), action)
		})
		return Vote{}, rpc.Errorf(rpc.CodeRefused, "object %s: action %s was aborted during its prepare", item.UID, action)
	}
	if stale {
		// Some St member already holds this version or a later one: this
		// activated copy has been left behind (commits went through other
		// servers, or sat at the stores as intentions it was loaded
		// underneath). ONE such refusal is proof, and the refuser is not a
		// failed store: excluding it would leave the view to the members
		// that accepted — the stale ones — and commit a second version over
		// the same seq (a chaos bank seed lost a transfer leg that way).
		// Destroy the instance so the next activation reloads, and abort.
		_, _ = m.handlePassivate(ctx, from, PassivateReq{UID: item.UID, Force: true})
		return vote, rpc.Errorf(CodeStaleServer, "object %s at %s: activated copy is stale (base seq %d)", item.UID, m.node.Name(), wb.seq-1)
	}
	if doubt {
		// A definite refusal would let the coordinator record an abort over
		// a durably committed write.
		return vote, rpc.Errorf(CodeCommitUncertain, "object %s: one-phase commit outcome unknown: %v", item.UID, wb.outcome(0))
	}
	if accepted == 0 {
		// No store holds the new state: the action cannot commit (§3.2(2):
		// abort if all the nodes ∈ St are down).
		return vote, rpc.Errorf(CodeUnavailable, "object %s: no St node accepted the new state", item.UID)
	}
	return vote, nil
}

// copyState writes action's new states to one St node: as intentions, or
// with onePhase as the committed versions.
func (m *Manager) copyState(ctx context.Context, action, st string, writes []store.Write, onePhase bool) error {
	remote := store.RemoteStore{Client: m.node.Client(), Node: transport.Addr(st)}
	err := remote.Prepare(ctx, action, writes, onePhase)
	if rpc.CodeOf(err) == rpc.CodeConflict {
		// An object is pinned by another transaction's prepared
		// intention. That pin may be an ACKNOWLEDGED COMMIT whose
		// phase-two message this store never received — giving up here
		// would exclude the one store carrying the latest state and
		// fork the version chain. Ask the store to resolve pins with
		// affirmatively recorded outcomes (never presuming abort on a
		// live, undecided transaction) and retry once: a resolved
		// commit either unblocks us or correctly refuses us as stale.
		if _, rerr := remote.ResolveDecided(ctx); rerr == nil {
			err = remote.Prepare(ctx, action, writes, onePhase)
		}
	}
	return err
}

// handleCommit is phase two at this server: each named object's action ends
// committed (endLocked, commitEnds).
func (m *Manager) handleCommit(ctx context.Context, from transport.Addr, req EndReq) (EndResp, error) {
	resp := EndResp{Results: make([]EndResult, len(req.Items))}
	var one [1]ending
	ends := one[:0]
	if len(req.Items) > 1 {
		ends = make([]ending, 0, len(req.Items))
	}
	for i := range req.Items {
		in, err := m.mustLookup(req.Items[i].UID)
		if err != nil {
			resp.Results[i].Code, resp.Results[i].Msg = refusal(err)
			continue
		}
		in.mu.Lock()
		ends = append(ends, m.endLocked(in, req.Action, req.Items[i].CheckpointTo, i))
	}
	m.commitEnds(ctx, req.Action, ends, resp.Results)
	return resp, nil
}

// ending is one object's commit at this server in flight (see commitEnds).
type ending struct {
	in       *instance
	rec      actionRec
	advanced bool
	// ckptTo are the cohorts that take the committed state, ckptState and
	// ckptSeq that state.
	ckptTo    []string
	ckptState []byte
	ckptSeq   uint64
	result    int // the item's index in the request
}

// endLocked finishes action at in as committed — phase two, or a one-phase
// prepare whose store committed: the version advances to the one the action
// prepared, the action is forgotten and its folded ops answered, which the
// decision, already durable, allows before the stores hear of it. in.mu is
// held on entry and released here.
func (m *Manager) endLocked(in *instance, action string, checkpointTo []string, result int) ending {
	rec := in.actions[action]
	delete(in.actions, action)
	e := ending{in: in, rec: rec, advanced: rec.dirty && rec.preparedSeq != 0, ckptTo: checkpointTo, result: result}
	if e.advanced {
		in.seq = rec.preparedSeq
	}
	if len(checkpointTo) > 0 {
		e.ckptState = append([]byte(nil), in.state...)
	}
	e.ckptSeq = in.seq
	in.mu.Unlock()
	m.resolveBatch(rec.batch, nil)
	return e
}

// commitEnds completes the commits endLocked began: each store holding the
// action's intentions gets one Commit — it applies every intention of the
// action there, whichever object it is for — and each object's cohorts take
// its new state; then each object's lease fence runs and its locks go. The
// fences run side by side, so objects that must wait out their leases wait
// one window, not one each. Each object's result names its stores and cohorts
// that failed, or the fence's error.
func (m *Manager) commitEnds(ctx context.Context, action string, ends []ending, results []EndResult) {
	if len(ends) == 0 {
		return
	}
	// Phase-two store commits and coordinator-cohort checkpoints
	// (§2.3(ii): push the committed state to the cohorts so one of them
	// can take over without touching the object stores) are independent —
	// run them all in parallel, collecting failures in deterministic
	// order. Checkpoint failures break the cohort binding, which the
	// caller observes via the failed nodes.
	stores := ends[0].rec.prepared
	type install struct {
		ref   ServerRef
		class string
		state []byte
		seq   uint64
	}
	var installs []install
	for k, e := range ends {
		if k > 0 {
			for _, st := range e.rec.prepared {
				if !slices.Contains(stores, st) {
					stores = append(slices.Clip(stores), st)
				}
			}
		}
		for _, cohort := range e.ckptTo {
			ref := ServerRef{Client: m.node.Client(), Node: transport.Addr(cohort), UID: e.in.id}
			installs = append(installs, install{ref, e.in.class.Name, e.ckptState, e.ckptSeq})
		}
	}
	commitStart := time.Now()
	var errs []error
	if legs := len(stores) + len(installs); legs > 0 {
		errs = m.pool.DoErr(legs, func(i int) error {
			if i < len(stores) {
				return store.RemoteStore{Client: m.node.Client(), Node: stores[i]}.Commit(ctx, action)
			}
			in := installs[i-len(stores)]
			return in.ref.Install(ctx, in.class, in.state, in.seq)
		})
	}
	leg := len(stores)
	for k := range ends {
		e := &ends[k]
		r := &results[e.result]
		committed := 0
		for _, st := range e.rec.prepared {
			if errs[slices.Index(stores, st)] != nil {
				r.FailedNodes = append(r.FailedNodes, string(st))
			} else {
				committed++
			}
		}
		for _, cohort := range e.ckptTo {
			if errs[leg] != nil {
				r.FailedNodes = append(r.FailedNodes, cohort)
			}
			leg++
		}
		if m.leaseTTL > 0 && e.advanced {
			e.in.markConfirmed(commitStart, committed, len(e.rec.prepared))
		}
	}
	if m.leaseTTL == 0 || len(ends) == 1 {
		// Without leases a fence waits for nothing.
		for k := range ends {
			fenceFailed(&results[ends[k].result], m.fenceAndRelease(ctx, action, &ends[k]))
		}
		return
	}
	// The fences run side by side: objects that must wait out their leases
	// wait one window between them.
	many := slices.Clone(ends)
	fenced := make([]error, len(many))
	m.pool.Do(len(many), func(k int) { fenced[k] = m.fenceAndRelease(ctx, action, &many[k]) })
	for k, err := range fenced {
		fenceFailed(&results[ends[k].result], err)
	}
}

// fenceFailed makes a fence's error, if any, the object's result: the commit
// stands, but its acknowledgement is in doubt.
func fenceFailed(r *EndResult, err error) {
	if err != nil {
		r.FailedNodes = nil
		r.Code, r.Msg = refusal(err)
	}
}

// fenceAndRelease ends a committed object's action at this server: its lease
// fence, if the version advanced, then its locks.
//
// The new version is durable: fence every read lease at the old one BEFORE
// releasing the action's locks. The order matters — a lock released first
// could admit a conflicting action that commits against this object while
// the holders' invalidations are still in flight, so delivery-confirmed
// invalidation (or the waitout) must precede any conflicting lock grant here.
// Even a fence interrupted by ctx still releases: the commit stands, and
// holding the locks past this handler would wedge the object forever.
func (m *Manager) fenceAndRelease(ctx context.Context, action string, e *ending) error {
	var err error
	if e.advanced {
		err = m.leaseCommitFence(ctx, e.in, time.Now(), true)
	}
	e.in.locks.ReleaseAll(lockmgr.Owner(action))
	m.kickCombiner(e.in)
	return err
}

func (m *Manager) handleInstall(ctx context.Context, from transport.Addr, req InstallReq) (InstallResp, error) {
	id, err := uid.Parse(req.UID)
	if err != nil {
		return InstallResp{}, rpc.Errorf(rpc.CodeInternal, "bad uid: %v", err)
	}
	in, ok := m.lookup(id)
	if !ok {
		class, err := m.registry.Lookup(req.Class)
		if err != nil {
			return InstallResp{}, rpc.Errorf(rpc.CodeNotFound, "%v", err)
		}
		var admitted bool
		if in, admitted = m.admit(m.newInstance(class, id, append([]byte(nil), req.State...), req.Seq, nil)); admitted {
			return InstallResp{Installed: true}, nil
		}
		// A concurrent activation or checkpoint got there first: this one is
		// checked against the resident instance as any other is.
	}
	in.mu.Lock()
	if len(in.actions) > 0 {
		in.mu.Unlock()
		return InstallResp{}, rpc.Errorf(CodeBusy, "object %s has active users", req.UID)
	}
	if req.Seq <= in.seq {
		// Stale checkpoint: keep the newer state.
		in.mu.Unlock()
		return InstallResp{Installed: false}, nil
	}
	in.state = append([]byte(nil), req.State...)
	in.seq = req.Seq
	in.mu.Unlock()
	// The version advanced past any leases this server granted:
	// fence them before acknowledging (the committer pushing this
	// checkpoint acks its client only after this reply).
	if err := m.leaseCommitFence(ctx, in, time.Now(), false); err != nil {
		return InstallResp{}, err
	}
	return InstallResp{Installed: true}, nil
}

// handleAbort undoes the action at this server for each named object: its
// state goes back to the snapshot and its locks go. Each store holding the
// action's intentions gets one Abort, which takes back every intention of the
// action there.
func (m *Manager) handleAbort(ctx context.Context, from transport.Addr, req EndReq) (EndResp, error) {
	resp := EndResp{Results: make([]EndResult, len(req.Items))}
	type undone struct {
		in       *instance
		prepared []transport.Addr
		result   int
	}
	undo := make([]undone, 0, len(req.Items))
	var stores []transport.Addr
	for i := range req.Items {
		in, err := m.mustLookup(req.Items[i].UID)
		if err != nil {
			resp.Results[i].Code, resp.Results[i].Msg = refusal(err)
			continue
		}
		in.mu.Lock()
		rec := in.actions[req.Action]
		delete(in.actions, req.Action)
		if rec.snapped {
			in.state = rec.snap
		}
		in.mu.Unlock()
		if len(rec.batch) > 0 {
			// The snapshot restore above undid the whole fold: the folded ops
			// are told to retry — unless a one-phase round took them to the
			// store, which may have committed them.
			verdict := rpc.Errorf(rpc.CodeRefused, "object %s: carrying action %s aborted; retry", in.id, req.Action)
			if rec.onePhase {
				verdict = rpc.Errorf(CodeCommitUncertain, "object %s: carrying action %s aborted after its one-phase commit was sent", in.id, req.Action)
			}
			m.resolveBatch(rec.batch, verdict)
		}
		undo = append(undo, undone{in: in, prepared: rec.prepared, result: i})
		for _, st := range rec.prepared {
			if !slices.Contains(stores, st) {
				stores = append(stores, st)
			}
		}
	}
	abortErrs := m.pool.DoErr(len(stores), func(i int) error {
		return store.RemoteStore{Client: m.node.Client(), Node: stores[i]}.Abort(ctx, req.Action)
	})
	for _, u := range undo {
		for _, st := range u.prepared {
			if abortErrs[slices.Index(stores, st)] != nil {
				resp.Results[u.result].FailedNodes = append(resp.Results[u.result].FailedNodes, string(st))
			}
		}
		u.in.locks.ReleaseAll(lockmgr.Owner(req.Action))
		m.kickCombiner(u.in)
	}
	return resp, nil
}

func (m *Manager) handlePassivate(ctx context.Context, from transport.Addr, req PassivateReq) (PassivateResp, error) {
	id, err := uid.Parse(req.UID)
	if err != nil {
		return PassivateResp{}, rpc.Errorf(rpc.CodeInternal, "bad uid: %v", err)
	}
	t := m.table()
	t.mu.Lock()
	in, ok := t.m[id]
	if !ok {
		t.mu.Unlock()
		return PassivateResp{Passivated: false}, nil
	}
	in.mu.Lock()
	busy := len(in.actions) > 0
	in.mu.Unlock()
	if in.comb.depth() > 0 {
		busy = true
	}
	if busy && !req.Force {
		t.mu.Unlock()
		return PassivateResp{}, rpc.Errorf(CodeBusy, "object %s has %s", req.UID, "active users")
	}
	delete(t.m, id)
	t.mu.Unlock()
	m.failPending(in, "server passivated")
	if m.ghost != nil {
		m.ghost.Leave(GroupPrefix + id.String())
	}
	// Fence outstanding read leases before confirming: once the
	// instance is gone no commit through this server will ever
	// invalidate them (the placement.Move stale-lease hazard).
	if err := m.leasePassivateFence(ctx, in); err != nil {
		return PassivateResp{}, err
	}
	return PassivateResp{Passivated: true}, nil
}

func (m *Manager) handleStatus(ctx context.Context, from transport.Addr, req StatusReq) (StatusResp, error) {
	id, err := uid.Parse(req.UID)
	if err != nil {
		return StatusResp{}, rpc.Errorf(rpc.CodeInternal, "bad uid: %v", err)
	}
	in, ok := m.lookup(id)
	if !ok {
		return StatusResp{Active: false}, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	prepared := 0
	for _, rec := range in.actions {
		if rec.preparedSeq != 0 {
			prepared++
		}
	}
	return StatusResp{Active: true, Seq: in.seq, Users: len(in.actions), Prepared: prepared}, nil
}

// errNotActive exposes a sentinel check helper for clients.
var errNotActive = errors.New(CodeNotActive)

// IsNotActive reports whether err is an object-not-active application
// error.
func IsNotActive(err error) bool {
	if errors.Is(err, errNotActive) {
		return true
	}
	return rpc.CodeOf(err) == CodeNotActive
}
