package arjuna

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"time"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// Default Atomic retry bounds for transient refusals (lock conflicts and
// overload backpressure); override per client with ClientRetry.
const (
	defaultRetries = 3
	defaultBackoff = 2 * time.Millisecond
	// maxBackoff caps the exponential growth of the retry delay; beyond
	// this, longer sleeps only add latency without shedding more load.
	maxBackoff = 250 * time.Millisecond
)

// retryDelay returns the sleep before retrying after the n-th failed
// attempt (1-based): exponential growth from base, capped at maxBackoff,
// with ±50% jitter so clients refused together do not retry together —
// the single shared policy for lock refusals and overload backpressure.
// The jitter comes from the client's own source, so a deployment's seed
// reproduces every client's delay sequence.
func (c *Client) retryDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	half := d / 2
	return half + time.Duration(c.jitter.Int64N(int64(half)+1))
}

// Client runs atomic actions from one client node. Obtain with
// System.Client; a Client is safe for sequential use (one Atomic at a
// time — run concurrent workloads from separate Clients).
type Client struct {
	sys  *System
	name transport.Addr
	// binder resolves each object's group through the deployment's
	// placement table — one row, and no message, with one group — and
	// binds it there.
	binder *placement.Binder
	cfg    clientConfig
	// leases is the client's L1 view over its node's shared lease cache;
	// nil unless the deployment was opened WithReadLeases (and the
	// client replicates single-copy passive).
	leases *lease.Local
	// jitter draws the retry backoff's jitter. It is seeded with the
	// deployment's network seed and a hash of the client's node name: the
	// same seed replays the same delays, and clients still decorrelate
	// because their names differ.
	jitter *rand.Rand
}

// Name returns the client's node address.
func (c *Client) Name() transport.Addr { return c.name }

// CommitReport describes the aftermath of one Atomic call: whether it
// committed, how many attempts it took, and the failure anatomy the
// binding and commit protocols observed along the way.
type CommitReport struct {
	// Committed reports whether the action's effects are permanent.
	Committed bool
	// Attempts is the number of times the action body ran (>1 when
	// transient lock refusals were retried).
	Attempts int
	// BrokenServers lists server bindings found broken during the final
	// attempt — the "hard way" failure-discovery cost of §4.1.
	BrokenServers []transport.Addr
	// ExcludedStores lists store nodes excluded from St views during
	// commit processing of the final attempt (§4.2).
	ExcludedStores []transport.Addr
	// PhaseTwoErrors lists the participants, one per group view database,
	// whose phase-two commit call failed after the commit point. The
	// action IS committed; they learn the outcome from the log at recovery.
	PhaseTwoErrors []error
	// ReadOnlyVoters and CommitVoters count the phase-one votes of the
	// final attempt's objects (§4.1.2's read optimisation made visible):
	// read-only voters were released after phase one and took no part in
	// phase two.
	ReadOnlyVoters int
	CommitVoters   int
	// OnePhase reports that the commit ran as a single combined
	// prepare+commit round with the action's only participant.
	OnePhase bool
	// OutcomeLogged reports whether the coordinator wrote a commit record.
	// All-read-only and one-phase commits skip the write — presumed abort
	// means no recovery will ever ask about them.
	OutcomeLogged bool
	// Batched reports that the action's write was folded into another
	// action's commit round (flat combining): the server executed it under
	// the lock holder's 2PC, and this action's own commit processing
	// finished locally with nothing to send.
	Batched bool
	// BatchSize is the number of operations the commit round that carried
	// this action's write folded — as the carrying leader or as a folded
	// follower (0 when the write was not part of any batch).
	BatchSize int
	// Overloads counts the attempts refused with ErrOverloaded — a
	// multiplexed connection at its pending-call cap, the one source of
	// that error — across the whole Atomic call (the final attempt
	// included, if it failed so).
	Overloads int
	// LeaseStale counts the attempts aborted with ErrLeaseStale across the
	// whole Atomic call: commit-time revalidation found a read served with no
	// lock behind it — leased, or carried by a ClientReadOnly client's first
	// request — superseded, or such a client's first object had been moved
	// away when a second was bound, and the attempt was undone before it could
	// commit.
	LeaseStale int
	// QueueWait is the longest server-side lock or combiner-queue wait
	// observed by the final attempt's invocations.
	QueueWait time.Duration
	// BreakerSkipped lists peers the final attempt never called because
	// their circuit breakers were open — the action ran in degraded mode,
	// routing around nodes already known sick.
	BreakerSkipped []transport.Addr
	// LeaseReads counts the final attempt's invocations served entirely
	// from the client's lease cache — zero RPCs and zero lock-manager
	// traffic each (WithReadLeases).
	LeaseReads int
}

// Txn is one running atomic action. It is handed to the closure passed to
// Atomic and is only valid for the closure's duration.
type Txn struct {
	c   *Client
	act *action.Action
	// objects lists the handles handed out, in first-use order: an action
	// touches one or two objects, so a scan beats a map.
	objects []*Object
	// notes records the peers this action's calls skipped via breaker
	// fast-fail; surfaced as CommitReport.BreakerSkipped. The note
	// context is attached per call site (bind/invoke/commit) rather than
	// by wrapping runOnce's context, because the closure invokes objects
	// under the CALLER's context, not a derived one.
	notes *rpc.BreakerNotes
	// notedFrom and notedCtx are the last caller context the note context
	// was derived from, and the derived one (see noted).
	notedFrom, notedCtx context.Context
	// unlocked records the reads this action was served with no lock left
	// behind them, for commit-time revalidation (see revalidateReads).
	unlocked []unlockedRead
	// ops counts the operations that got past bind, on their way to a server,
	// and carried (0 or 1) how many of them were carried reads.
	ops, carried int
	// retry marks an attempt after the first: it never carries a read, so an
	// action whose carried read went stale falls back to locks held.
	retry bool
}

// unlockedRead is one read whose result the action holds with no server lock
// to keep it current: served from a lease snapshot, or by a request that
// carried the read-only vote and so released the lock as it answered.
type unlockedRead struct {
	id uid.UID
	// seq is the committed version the read saw.
	seq uint64
	// lease is the cache entry that served the read; nil for a carried read.
	lease *lease.Entry
}

// noted attaches the transaction's breaker-note recorder to ctx. An
// action's bind, invokes and commit nearly always run under one caller
// context, so the derived context is kept for the last one it was derived
// from rather than derived per call.
func (t *Txn) noted(ctx context.Context) context.Context {
	if t.notedCtx == nil || !sameContext(ctx, t.notedFrom) {
		t.notedFrom, t.notedCtx = ctx, rpc.ContextWithNotes(ctx, t.notes)
	}
	return t.notedCtx
}

// sameContext reports whether a and b are the same context value. A value
// that cannot be compared — a caller's own context type may hold one —
// counts as different rather than panic.
func sameContext(a, b context.Context) bool {
	return reflect.ValueOf(a).Comparable() && a == b
}

// ID returns the underlying action's identifier.
func (t *Txn) ID() string { return t.act.ID() }

// Object returns a handle on the identified persistent object. The handle
// is bound through the naming and binding service lazily, on its first
// Invoke/Read; repeated calls return the same handle.
func (t *Txn) Object(id uid.UID) *Object {
	if o := t.object(id); o != nil {
		return o
	}
	o := &Object{t: t, id: id}
	t.objects = append(t.objects, o)
	return o
}

// object returns the handle already handed out for id, or nil.
func (t *Txn) object(id uid.UID) *Object {
	for _, o := range t.objects {
		if o.id == id {
			return o
		}
	}
	return nil
}

// Object is a bound (or about-to-be-bound) handle on one persistent
// replicated object within one atomic action.
type Object struct {
	t       *Txn
	id      uid.UID
	bd      *core.Binding
	bindErr error
	// batched records that a solo invocation was folded into another
	// action's commit (surfaced in the CommitReport).
	batched bool
	// inDoubt holds the failure of a solo invocation that carried the
	// action's commit and may have committed it (see apply).
	inDoubt error
}

// ID returns the object's identifier.
func (o *Object) ID() uid.UID { return o.id }

func (o *Object) bind(ctx context.Context) error {
	if o.bindErr != nil {
		return o.bindErr
	}
	if o.bd != nil {
		return nil
	}
	bd, err := o.t.c.binder.Bind(o.t.noted(ctx), o.t.act, o.id)
	if err != nil {
		o.bindErr = MapError(err)
		return o.bindErr
	}
	o.bd = bd
	return nil
}

// Invoke calls a method on the object under the transaction's action,
// binding first if necessary. Errors are classified against the package's
// sentinels; returning one from the Atomic closure aborts the action.
//
// With WithReadLeases, a read-only method on an object the client holds
// a valid lease for — and has not yet bound in this action — runs
// locally on the leased snapshot instead: zero RPCs, zero lock-manager
// traffic.
//
// On a ClientReadOnly client without a lease cache, a read-only method that
// is the first thing the action asks of any server is sent as a solo request
// carrying the read-only vote (see carriedRead): the server runs it and
// releases the action at once, and the first bind of such an action left no
// lock at the database (core.Binder), so an action of one read is two
// messages — bind, invoke — and holds the read lock for the method only. A
// second object costs the first one's pin, one database message, before its
// own bind.
func (o *Object) Invoke(ctx context.Context, method string, args []byte) ([]byte, error) {
	if out, ok := o.leasedRead(method, args); ok {
		return out, nil
	}
	if err := o.bind(ctx); err != nil {
		return nil, err
	}
	t := o.t
	t.ops++
	if t.c.cfg.readOnly {
		readOnly, err := o.classify(method)
		if err != nil {
			return nil, err
		}
		if readOnly && t.ops == 1 && t.c.leases == nil && !t.retry {
			return o.carriedRead(ctx, method, args)
		}
	}
	t0 := time.Now()
	resp, err := o.bd.Invoke(t.noted(ctx), replica.Call{Method: method, Args: args})
	if err != nil {
		return nil, MapError(err)
	}
	o.harvestLease(t0, resp.Lease)
	return resp.Result, nil
}

// carriedRead sends a read the way apply sends an Apply: as a solo request
// that carries the action's phase one, which for a read is the read-only
// vote — the server releases the action in the request that ran the method,
// and commit processing answers from the carried vote with no message. It is
// taken only where the saving cannot cost a write its retry: by a client that
// cannot write, for the first operation of a first attempt, never with a
// lease cache (a grant riding a request that also releases the read lock
// would reach this node after a writer's fence could have missed it; see
// object.Manager.invalidateHolders).
//
// Unlike an Apply, the action may go on. The read is then one served with no
// lock behind it, and is recorded for revalidateReads beside the leased ones,
// with the version the reply says it read. Where the binding could not carry
// (a broken candidate, active replication), or the carried vote is not a
// clean read-only one, the server still holds the read lock and nothing is
// recorded.
func (o *Object) carriedRead(ctx context.Context, method string, args []byte) ([]byte, error) {
	resp, err := o.bd.Invoke(o.t.noted(ctx), replica.Call{Method: method, Args: args, Solo: true, ReadOnly: true})
	if err != nil {
		return nil, MapError(err)
	}
	if resp.Carried != object.CarryNone && resp.Vote.Code == "" && !resp.Vote.Dirty {
		o.t.carried++
		o.t.unlocked = append(o.t.unlocked, unlockedRead{id: o.id, seq: resp.Seq})
	}
	return resp.Result, nil
}

// leasedRead serves a read-only method from the client's lease cache
// when the object is still unbound and a valid lease is held. Once the
// object is bound, the action may already have written it, so reads
// must go to the server, whose locks give read-your-writes. Any
// anomaly (unknown class, non-read-only method, method error) falls
// back to the server path so semantics match the leaseless client.
func (o *Object) leasedRead(method string, args []byte) ([]byte, bool) {
	lc := o.t.c.leases
	if lc == nil || o.bd != nil || o.bindErr != nil {
		return nil, false
	}
	e, ok := lc.Get(o.id, time.Now())
	if !ok {
		return nil, false
	}
	cls, err := o.t.c.sys.w.Registry.Lookup(e.Snap.Class)
	if err != nil || !cls.IsReadOnly(method) {
		return nil, false
	}
	fn, err := cls.Method(method)
	if err != nil {
		return nil, false
	}
	_, out, err := fn(e.Snap.State, args)
	if err != nil {
		return nil, false
	}
	o.t.unlocked = append(o.t.unlocked, unlockedRead{id: o.id, seq: e.Snap.Seq, lease: e})
	return out, true
}

// harvestLease caches a lease g the server attached to an invocation.
// The snapshot's expiry is computed from t0 — an instant BEFORE the
// request was sent — so whatever the clocks did, the cached lease dies
// no later than the granting server believes it does.
func (o *Object) harvestLease(t0 time.Time, g *object.LeaseGrant) {
	if lc := o.t.c.leases; lc != nil && g != nil {
		lc.Put(lease.Snapshot{UID: o.id, Class: g.Class, State: g.State, Seq: g.Seq, Expiry: t0.Add(g.TTL)})
	}
}

// Read invokes a read-only method. It is Invoke under a name that states
// intent; pair it with a ClientReadOnly client for the §4.1.2 read
// optimisation, under which an action's first Read is its one server message.
func (o *Object) Read(ctx context.Context, method string, args []byte) ([]byte, error) {
	return o.Invoke(ctx, method, args)
}

// classify looks method up in the bound object's class as this node knows it
// and reports whether the class marks it read-only. On a ClientReadOnly
// client a method that may write is refused here, before any message is
// sent: such a client binds outside the use lists, so its write could
// activate a second copy beside the one writers use with only the store's
// version check between the two. A class or method this node does not know
// is left for the server to judge.
func (o *Object) classify(method string) (readOnly bool, err error) {
	cls, lerr := o.t.c.sys.w.Registry.Lookup(o.bd.Class())
	if lerr != nil {
		return false, nil
	}
	if cls.IsReadOnly(method) {
		return true, nil
	}
	if !o.t.c.cfg.readOnly {
		return false, nil
	}
	if _, merr := cls.Method(method); merr != nil {
		return false, nil
	}
	return false, fmt.Errorf("arjuna: %s.%s is not a read-only method: refused on a ClientReadOnly client", cls.Name, method)
}

// apply sends Client.Apply's operation as a Solo call: the request carries
// the action's phase one, so the commit that follows has nothing to send to
// the server. A request that carried the commit and failed ambiguously may
// have committed: the failure is kept in o.inDoubt and NOT returned, so that
// the closure succeeds and the action goes on to commit processing, which
// resolves the doubt (Apply reports it). A read-only method has nothing to
// be in doubt about and is sent saying so: its lost reply is a failed invoke.
func (o *Object) apply(ctx context.Context, method string, args []byte) ([]byte, error) {
	if err := o.bind(ctx); err != nil {
		return nil, err
	}
	readOnly, err := o.classify(method)
	if err != nil {
		return nil, err
	}
	o.t.ops++
	resp, err := o.bd.Invoke(o.t.noted(ctx), replica.Call{Method: method, Args: args, Solo: true, ReadOnly: readOnly})
	if errors.Is(err, action.ErrOutcomeUnknown) {
		o.inDoubt = MapError(err)
		return nil, nil
	}
	if err != nil {
		return nil, MapError(err)
	}
	o.batched = resp.Batched
	return resp.Result, nil
}

// Atomic runs fn inside one top-level atomic action: begin, let fn bind
// and invoke objects through the Txn, then commit — or abort, undoing all
// effects, if fn returns an error or commit cannot prepare. Transient
// refusals — lock conflicts (ErrLockRefused, the §4.2.1 conflict) and
// overload backpressure (ErrOverloaded, a connection at its pending-call
// cap) — are retried with capped, jittered exponential backoff per the
// client's ClientRetry setting.
//
// The returned error is nil exactly when the action is known to have
// committed. Otherwise it carries either ErrAborted plus the classified
// cause — every effect was undone — or, alone, ErrOutcomeUnknown: the
// commit ended in doubt, its effects may stand, and the action is not
// retried. The CommitReport is non-nil in every case and describes the
// final attempt.
func (c *Client) Atomic(ctx context.Context, fn func(tx *Txn) error) (*CommitReport, error) {
	if gate := c.sys.admit; gate != nil {
		// WithAdmission: hold one in-flight slot for the whole action,
		// retries included. Parking here is the cheap place to wait —
		// before any bind, lock or 2PC work has been started.
		select {
		case gate <- struct{}{}:
			defer func() { <-gate }()
		case <-ctx.Done():
			return &CommitReport{}, tag(ErrAborted, ctx.Err())
		}
	}
	var rep *CommitReport
	var err error
	overloads, stale := 0, 0
	for attempt := 1; ; attempt++ {
		rep, err = c.runOnce(ctx, fn, attempt > 1)
		rep.Attempts = attempt
		if errors.Is(err, ErrOverloaded) {
			overloads++
		}
		if errors.Is(err, ErrLeaseStale) {
			stale++
		}
		rep.Overloads, rep.LeaseStale = overloads, stale
		// A breaker fast-fail is retryable too — the sick peer may have
		// been excluded from the view by the failed attempt's recovery
		// path, or its probe may readmit it — but in its own backoff
		// class: conflicts clear in milliseconds, sick nodes in cooldowns,
		// so the breaker class backs off from a 4× higher base.
		breakerFail := errors.Is(err, ErrPeerUnavailable)
		// (An in-doubt commit carries ErrOutcomeUnknown and none of these
		// classes — see MapError — so it is never retried.)
		retryable := errors.Is(err, ErrLockRefused) || errors.Is(err, ErrOverloaded) ||
			errors.Is(err, ErrLeaseStale) || breakerFail
		if err == nil || attempt >= c.cfg.retries || !retryable {
			return rep, err
		}
		base := c.cfg.backoff
		if breakerFail {
			base *= 4
		}
		if d := c.retryDelay(base, attempt); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return rep, tag(ErrAborted, ctx.Err())
			case <-t.C:
			}
		}
	}
}

// Apply runs a single-operation atomic action: bind the object, invoke
// method once — declared as the action's entire write set — and commit.
// Semantically Apply is exactly Atomic(one Invoke); the solo declaration
// buys two things. The server runs the action's phase one in the request
// that ran the method (and, when the write-back lands on one store, its
// commit), so a committed Apply is three client calls — bind, invoke,
// action-end — and the object's write lock is held for the commit, not for
// a client round trip as well. And for a method the object's class marks
// Commutative, the server may fold the operation into the current
// write-lock holder's commit round instead of queueing for the lock (flat
// combining); the report's Batched field says whether that happened.
//
// An error from Apply means one of two things, told apart with errors.Is.
// ErrAborted (with the classified cause): the operation's effects were
// undone or never happened — the method failed, the vote was refused, a
// server was lost before anything could commit — and transient causes were
// retried as Atomic retries them. ErrOutcomeUnknown, alone: the request that
// carried the commit was lost on its way back (or the server could not tell
// whether its store applied the write), so the operation may stand. It ran
// at most once, it is never retried, and its result is gone; when commit
// processing could establish that the write did commit, the report says so
// (Committed) beside the error.
func (c *Client) Apply(ctx context.Context, id uid.UID, method string, args []byte) ([]byte, *CommitReport, error) {
	var (
		result []byte
		obj    *Object
	)
	rep, err := c.Atomic(ctx, func(tx *Txn) error {
		obj = tx.Object(id)
		out, aerr := obj.apply(ctx, method, args)
		result = out
		return aerr
	})
	if err == nil && obj.inDoubt != nil {
		err = obj.inDoubt
	}
	if err != nil {
		return nil, rep, err
	}
	return result, rep, nil
}

// runOnce executes one begin → fn → commit/abort cycle; retry marks an
// attempt after the first.
func (c *Client) runOnce(ctx context.Context, fn func(tx *Txn) error, retry bool) (*CommitReport, error) {
	act := c.binder.Actions.BeginTop()
	tx := &Txn{c: c, act: act, notes: &rpc.BreakerNotes{}, retry: retry}
	// Abort on every path that does not reach commit — including a panic
	// inside fn — so no action is left running.
	committed := false
	defer func() {
		if !committed && act.Status() == action.StatusRunning {
			_ = act.Abort(context.WithoutCancel(ctx))
		}
	}()

	if err := fn(tx); err != nil {
		// Abort with cancellation stripped: fn may have failed BECAUSE ctx
		// is done, and the abort's participant RPCs must still run or the
		// action's remote locks leak for the process lifetime.
		_ = act.Abort(context.WithoutCancel(ctx))
		// This action is undone, but an error that says some commit's
		// outcome is unknown (an Apply run inside fn) must not read as a
		// definite abort of that.
		if err = MapError(err); !errors.Is(err, ErrOutcomeUnknown) {
			err = tag(ErrAborted, err)
		}
		return tx.report(false), err
	}
	if err := tx.revalidateReads(ctx); err != nil {
		_ = act.Abort(context.WithoutCancel(ctx))
		return tx.report(false), tag(ErrAborted, err)
	}
	acrep, err := act.Commit(tx.noted(ctx))
	if err != nil {
		// A failed prepare has already rolled the participants back — unless
		// the commit ended in doubt, where the one-phase round may stand at
		// the store: that is not an abort and must not be called one.
		if err = MapError(err); !errors.Is(err, ErrOutcomeUnknown) {
			err = tag(ErrAborted, err)
		}
		return tx.report(false), err
	}
	committed = true
	rep := tx.report(true)
	rep.PhaseTwoErrors = acrep.PhaseTwoErrors
	rep.OnePhase = acrep.OnePhase
	rep.OutcomeLogged = acrep.OutcomeLogged
	return rep, nil
}

// revalidateReads upgrades, just before commit, every read the action was
// served with no lock behind it into a LOCKED server read, when the action
// also did other work at a server. Two producers feed it and one rule covers
// both: a leased read ran on a cached snapshot, and a carried read
// (carriedRead) ran at the server under a read lock the same request
// released; each recorded the committed version it saw. The object is bound
// if it is not yet and its coordinator asked, by a method-less call that
// takes the action's read lock, for its committed version (InvokeResp.Seq). A matching version proves what was read is
// still the latest committed state, and the read lock (strict 2PL, held
// through this action's commit) keeps it so, making the transaction
// equivalent to one that read through the servers with its locks held. A
// local validity check would NOT suffice: a concurrent commit's lease
// invalidation is confirmed before that writer's locks release, but the
// multicast can still be in flight when THIS transaction — unblocked by
// a different participant's earlier release — reaches its commit, so
// only the server's lock queue gives a race-free answer. On mismatch the
// attempt fails with ErrLeaseStale and the retry reads through the servers:
// the cached entry is killed, and a retry never carries.
//
// An action that sent no server anything else skips the check. Pure lease
// reads were each individually valid when served, which is exactly the lease
// guarantee; a carried read on its own is a whole action at its server —
// lock, read, release — serialised there like any other.
func (t *Txn) revalidateReads(ctx context.Context) error {
	if len(t.unlocked) == 0 || t.ops == t.carried {
		return nil
	}
	stale := func(r unlockedRead, err error) error {
		if r.lease != nil {
			t.c.leases.Invalidate(r.id)
		}
		return err
	}
	for i, r := range t.unlocked {
		if slices.ContainsFunc(t.unlocked[:i], func(p unlockedRead) bool { return p.id == r.id }) {
			continue
		}
		// Both producers record through a handle of this action.
		o := t.object(r.id)
		if err := o.bind(ctx); err != nil {
			return stale(r, err)
		}
		resp, err := o.bd.Invoke(t.noted(ctx), replica.Call{})
		if err != nil {
			// Unreachable coordinator, refused lock, dead context — the read
			// cannot be vouched for. Classify the cause for the retry loop,
			// which takes the plain server path.
			return stale(r, MapError(err))
		}
		if resp.Seq != r.seq {
			return stale(r, ErrLeaseStale)
		}
	}
	return nil
}

// report collects the failure anatomy from every bound object and, for a
// committed action, the phase-one vote of each (core.Binding.Vote).
func (t *Txn) report(committed bool) *CommitReport {
	rep := &CommitReport{Committed: committed, LeaseReads: len(t.unlocked) - t.carried}
	// Both lists stay nil unless something broke: the accessors return nil
	// for an empty set.
	var broken, excluded []transport.Addr
	for _, o := range t.objects {
		if o.bd == nil {
			continue
		}
		broken = append(broken, o.bd.BrokenServers()...)
		excluded = append(excluded, o.bd.FailedStores()...)
		switch v := o.bd.Vote(); {
		case committed && v == action.VoteReadOnly:
			rep.ReadOnlyVoters++
		case committed && v == action.VoteCommit:
			rep.CommitVoters++
		}
		if o.batched {
			rep.Batched = true
		}
		if bs := o.bd.BatchSize(); bs > rep.BatchSize {
			rep.BatchSize = bs
		}
		if w := o.bd.QueueWait(); w > rep.QueueWait {
			rep.QueueWait = w
		}
	}
	rep.BrokenServers = sortedSet(broken)
	rep.ExcludedStores = sortedSet(excluded)
	rep.BreakerSkipped = t.notes.Skipped()
	return rep
}

// sortedSet sorts addrs and drops the duplicates two objects sharing a node
// contribute.
func sortedSet(addrs []transport.Addr) []transport.Addr {
	slices.Sort(addrs)
	return slices.Compact(addrs)
}
