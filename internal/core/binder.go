package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/action"
	"repro/internal/conc"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// Scheme selects how database accesses are structured with respect to the
// application action (§4.1.2–§4.1.3).
type Scheme int

// The three access schemes of the paper. Figure 8 differs from Figure 7
// only in nesting the database actions inside the client action, and this
// system has no nested actions: SchemeNestedTopLevel binds through Figure
// 7's code, and its spelling stays so that all three figures can be named.
const (
	// SchemeStandard — Figure 6: GetServer/GetView run under the client
	// action itself, which owns their read locks until it ends. Sv is
	// static: clients never repair it, so each client rediscovers dead
	// servers "the hard way".
	SchemeStandard Scheme = iota + 1
	// SchemeIndependent — Figure 7: an independent top-level action reads
	// Sv plus use lists under a write lock, removes failed servers, and
	// increments use counts; after the client action terminates another
	// top-level action decrements them. Sv stays current.
	SchemeIndependent
	// SchemeNestedTopLevel — Figure 8: in the paper, SchemeIndependent with
	// the database actions begun as nested top-level actions inside the
	// client action. Here it runs SchemeIndependent's code.
	SchemeNestedTopLevel
)

// ParseScheme maps a flag/config spelling to a Scheme. Both the short
// spellings used by command-line flags ("standard", "independent",
// "nested") and the full String() forms are accepted.
func ParseScheme(s string) (Scheme, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "standard":
		return SchemeStandard, nil
	case "independent", "independent-top-level":
		return SchemeIndependent, nil
	case "nested", "nested-top-level":
		return SchemeNestedTopLevel, nil
	default:
		return 0, fmt.Errorf("core: unknown scheme %q (want standard | independent | nested)", s)
	}
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeStandard:
		return "standard"
	case SchemeIndependent:
		return "independent-top-level"
	case SchemeNestedTopLevel:
		return "nested-top-level"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Binder binds client actions to replicated objects through the group view
// database, according to a scheme and a replication policy.
//
// Under the enhanced schemes one binding talks to the database twice — once
// to bind, and once, shared with the action's other bindings there, to end —
// and each conversation carries the paper's operations in the paper's
// order, each under the action that owns it — the short top-level actions
// of Figure 7 (Figure 8's scheme runs the same code) each under its
// message's own (BatchReq). The bind is a message of its own (Binder.do);
// the end rides one:
//
//   - bind — [Bind(own), GetView(client action)]: the first shaded action
//     reads Sv and the use lists, selects the servers by the fixed rule and
//     counts the binding there (DB.Bind is GetServer and Increment in one
//     step); the St read belongs to the client action, as in Figure 6. A
//     ReadOnly binder never updates use lists and sends Select in Bind's
//     place — the same read and the same rule, uncounted — or, under active
//     replication, a bare GetServer.
//   - action-end — [EndAction(client action), Decrement(own) × k]: the
//     client action's database locks go, then the last shaded action of
//     Figure 7 drops the use counts, one Decrement for each of the action's
//     k bindings at this database, each standing alone. It is queued when
//     the action's group there has finished commit or abort processing
//     (txGroup.end), and rides the head of the binder's next message to
//     that database, an own EndAction between it and the message's own ops;
//     when a fixed bound (endBound, 1 ms) passes with no such message, it
//     goes alone. Two ends go at once: that of a group that sent an Exclude,
//     which the end decides before the action returns, and Figure 6's.
//     Every wait for quiescence in a deployment flushes its binders first
//     (Ends.Flush): a server's or a store's recovery, a Move's Deregister,
//     a shutdown.
//
// The first object a read-only action binds has the first conversation only
// — [Select(own), GetView(own)]: the St read joins the bind action, its
// lock lives and dies inside the one message, and the binding is unpinned:
// nothing of the client action's is at the database, its group is untracked
// (txGroup) and there is no action-end at all. For an action of ONE object
// the St read lock guards nothing. It never copies a state back, so a
// recovering store's Include (§4.2) has no view-read/write-back window of
// its to stay out of, and a view that misses a store included since is
// still a set of current members; Exclude was always read-compatible
// (§4.2.1); Insert and Deregister's use-count check never saw a ReadOnly
// binder; and placement.Move, the one thing the lock did hold off, leaves
// the read linearizable at its bind. It is the second object that makes
// the lock matter — the two must be read from one state of the world — so
// that is when it is taken:
//
//   - pin — [GetView(client action)], at the first binding's own database,
//     before the second object's bind message (Binding.pin): the lock, and
//     the group tracked as a pinned bind would have left it, from here to
//     the action's end. The second and every later object is bound pinned. A
//     pin that finds the object deregistered — moved away since the bind —
//     is ErrPinStale, and the attempt fails: what was read at the old home
//     cannot be vouched for beside what the new one now says.
//
// This is the rule an action served from a lease already lives by (it binds
// late, when it goes on: pkg/arjuna Txn.revalidateReads). Three conditions
// keep everyone else pinned from the first bind (bindsUnpinned). ReadOnly: an
// action that may write copies state back to the view it read. No
// LeaseHolder: Move's lease fence passivates the source servers and relies on
// the write-locked entries — which wait for every reader's St lock — to keep
// new grants from being handed out behind it. Single-copy passive: its
// binding sends no server anything at bind time, so the unpinned view is
// used once, by the request that also reads; active and coordinator-cohort
// bindings activate their replicas from the view in a probe of their own
// (finishBind), never carry a read, and no test or workload has an Include or
// a Move sliding between their view read and that probe — they keep the lock
// that rules it out. The standard scheme never comes this way: Figure 6 holds
// GetServer's and GetView's locks alike until the action ends, and that is
// what it measures.
//
// Between the two the binding talks to its servers, and how often depends on
// what the action says about itself:
//
//   - invoke, then Prepare and Commit — or one one-phase Prepare when a
//     single server writes back to a single store — for a binding of
//     Atomic + Invoke, one among possibly several in its action. The
//     Prepare and the Commit are its group's, the action's participant at
//     the database (txGroup): each server gets one of each naming every
//     object of the action it holds, so two objects at one server are
//     bind · bind · invoke · invoke · Prepare · Commit, 6 messages, the
//     action-end riding the client's next one — a group of two is never a
//     one-phase participant;
//   - one invoke for a binding of Apply (a Solo call), whose operation is
//     declared the action's entire write set: the request carries phase one,
//     so over one store a committed write is bind · invoke, and over several
//     bind · invoke · Commit, with the outcome logged before the Commit as
//     ever, and its end carried as above. Commit processing answers from the
//     vote the reply carried (replica.Handle);
//   - one invoke, too, for the read-only binding: a ReadOnly binder's client
//     cannot write, so when a read is the first thing its action asks of any
//     server it is sent the same way, flagged read-only — the server runs the
//     method, gives the read-only vote and releases the action in that one
//     request, and a committed read is bind · invoke on either store count
//     (the bind being unpinned). Unlike an Apply the action may go on; what
//     the read saw is then re-checked under a held lock before commit
//     (a method-less Invoke, one more message) exactly as a read served
//     from a lease is.
//
// No message goes to a server at bind time under single-copy passive: the
// binding's first request activates the object where it lands and is the
// §4.1.2 probe (replica.Handle); where it lands past a candidate that did
// not answer, the server first checks a copy it already holds against the
// stores, because nothing else has kept a stand-in's copy current
// (object.Manager.revalidate). Active and coordinator-cohort bindings
// probe explicitly, after the bind message. Either way, when the probe
// finds selected servers dead, one more message follows it, once:
//
//   - repair — [Decrement(own), Repair(own)]: Figure 7's exclusive pass, the
//     message's own action under the Sv write lock, drops the binding's
//     counts, checks that nobody else is using the servers found dead, drops
//     them from Sv so later clients do not pay the discovery cost
//     (§4.1.3(i)) and counts the binding at the servers that replaced them
//     (DB.Repair, Binding.repair). A request sent after a candidate broke
//     carries no phase one, so the repair always precedes the first message
//     that could commit anything at the replacement.
//   - rebind — a binding whose probe found the servers the use lists put
//     it on dead before any ran the action's request — its first request
//     reached none, or its activation reached none or was refused the
//     repair — while Sv names another server, waits until the use lists
//     would let a bind pick a live one, and binds again (Binder.rebind):
//     what put it there may be the use counts of ended actions whose ends
//     still wait in their clients' binders. Every policy's writers and
//     readers pass through it; it is [GetServer(own)] after one bound,
//     then after twice as long each time, then the bind's Sv op alone.
//
// The standard scheme (Figure 6) has [GetServer, GetView] and a bare
// EndAction only, and never repairs. A message that fails part-way leaves
// what single calls failing at the same operation would (see DB.batch), so
// the failure paths are the ends a lost message carried, which the binder
// sends again (pendingEnds.lost), and the trackTxDB hook.
type Binder struct {
	BindConfig
	// DB addresses the group view database.
	DB Client

	// dbtxKey is the stash key of trackTxDB, built on first use.
	dbtxOnce sync.Once
	dbtxKey  string

	// pool runs the fan-outs of the handles the binder creates.
	pool conc.Pool

	// ends holds the action-ends waiting for a message to ride (do).
	ends pendingEnds
}

// BindConfig is a binder's settings: every Binder field but the database
// it binds against. It is its own type so that a template of settings can
// be copied into each binder built from it (placement.Binder builds one
// per shard); a Binder itself holds a sync.Once and a pool, and must not
// be copied.
type BindConfig struct {
	// Actions creates the client's atomic actions.
	Actions *action.Manager
	// ClientNode is the client's own address (use-list identity).
	ClientNode transport.Addr
	// Scheme selects the database access structure.
	Scheme Scheme
	// Policy is the replication policy for bound objects.
	Policy replica.Policy
	// Degree is the desired |Sv'| (0 = all of Sv).
	Degree int
	// ReadOnly applies the §4.1.2 read optimisation: the client never
	// updates use lists, and never writes — its bindings stand outside the
	// use lists and its first one outside the St lock too, so nothing would
	// order a state it copied back (pkg/arjuna refuses such a client's
	// writes before any message). Under active replication it binds to any one
	// convenient server — the total order keeps every replica current. Under
	// the other policies only the copy the writers use is current, so it
	// binds where they do: the servers in use, else Sv in order (DB.Select).
	ReadOnly bool
	// UseWriteLockForExclude selects the §4.2.1 problem baseline: commit-
	// time Exclude promotes the St read lock to a full write lock instead
	// of the read-compatible exclude-write lock.
	UseWriteLockForExclude bool
	// FastBind applies the type-specific-locking idea of §4.2.1 to the
	// enhanced schemes' bind action: it reads Sv and the use lists and
	// increments under the commutative Adjust lock alone, which shuts out
	// every writer of Sv a Read lock would, so binds to a hot object proceed
	// in parallel instead of convoying behind one another's exclusive write
	// lock. The exclusive write-locked pass of Figure 7 is still used by the
	// repair that removes broken servers (and by Insert/Remove themselves),
	// so Sv repair and the §4.1.2 quiescence check keep their exact
	// semantics. Ignored by the standard scheme.
	FastBind bool
	// NameServer, when set, enables the §5 extension: Sv is read from (and
	// repaired in) a traditional non-atomic name server, while the atomic
	// Object State database alone guarantees consistent binding. The
	// Scheme field is ignored for the Sv side; St handling follows the
	// standard scheme.
	NameServer *NSClient
	// LeaseHolder, when non-empty, asks bound objects' view-primary
	// servers for read leases on plain read-path invocations (see
	// internal/lease); the value is this client's node address, whose
	// lease mailbox receives the invalidations. A grant comes back in the
	// reply Binding.Invoke returns (InvokeResp.Lease), for the caller's
	// cache.
	LeaseHolder transport.Addr
	// LeaseTTL is the deployment's read-lease duration (zero when leases
	// are disabled), set on every binder — lease holder or not — so that
	// commit processing can wait out the lease clock when a granting
	// primary fails during phase two (see replica.Config.LeaseTTL).
	LeaseTTL time.Duration
	// Ends, when set, is the deployment's set of binders whose action-ends
	// its waits for quiescence flush first (Ends.Flush).
	Ends *Ends
}

// Binding is one client action's binding to one replicated object. Its
// group (txGroup) is the action's participant: commit processing writes
// object state to the stores, excludes failed store nodes from St, and
// maintains use lists per the scheme.
type Binding struct {
	binder *Binder
	act    *action.Action
	id     uid.UID
	class  string
	// handle is the binding's replica handle: in own, unless a rebind
	// moved the binding onto the handle of the binding it made.
	handle *replica.Handle
	own    replica.Handle
	// bound lists the servers whose use lists count this binding: the hosts
	// the bind action counted, as corrected by repair. Nil where use lists
	// are not kept (standard scheme, ReadOnly, name server).
	bound []transport.Addr
	// probed marks the one post-probe repair as done (see repair).
	probed bool
	// rebound marks the one rebind as done (see rebind).
	rebound bool
	// group is the client action's group at the binding's database, shared
	// with sibling bindings and the action-level hook (see txGroup,
	// trackTxDB). It is untracked while the binding is unpinned: the client
	// action holds nothing at the database for it (see Binder, Binding.pin).
	group *txGroup
	// pinned marks the St read lock an unpinned binding was bound without
	// taken (pin).
	pinned bool
	// vote is the binding's phase-one vote, set by its group's commit
	// processing (see Vote).
	vote action.Vote
}

// Bind resolves the object's UID through the naming and binding service
// and returns a Binding ready for Invoke. It must be called inside a
// running client action, and an action's binds must follow one another —
// which of them is the action's one unpinned binding, and whether it has
// been pinned, is decided with no lock, as one goroutine per action decides
// it (pkg/arjuna's Client is for sequential use, and nothing else binds).
// Binding errors mean the client action must abort.
func (b *Binder) Bind(ctx context.Context, act *action.Action, id uid.UID) (*Binding, error) {
	if act == nil || act.Status() != action.StatusRunning {
		return nil, errors.New("core: Bind requires a running client action")
	}
	// An action that goes on to another object holds the St read lock of
	// every object it has bound: the one bound unpinned takes it now.
	if first, ok := act.Stashed(unpinnedKey); ok {
		if err := first.(*Binding).pin(ctx); err != nil {
			return nil, err
		}
	}
	if b.NameServer != nil {
		return b.bindNonAtomicSv(ctx, act, id)
	}
	switch b.Scheme {
	case SchemeStandard:
		return b.bindStandard(ctx, act, id)
	case SchemeIndependent, SchemeNestedTopLevel:
		return b.bindEnhanced(ctx, act, id)
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", b.Scheme)
	}
}

// txGroup is one client action's bindings at one group view database — in
// the paper's deployment of one group, every object the action binds — and
// the action's one participant there (action.Participant, and
// action.OnePhaser). Every binding belongs to exactly one group, and the
// group does once for all its members what each would otherwise do alone:
//
//   - each commit phase — Prepare, Commit, Abort — runs once over every
//     member's replica handle, so each server gets one request per phase
//     naming every object of the action it holds (replica.Prepare, Commit,
//     Abort), and each member takes its own part of the answer. Votes, locks
//     and store checks stay per object (Binding.Vote); the group's vote is
//     commit when any member's is. The stores any member failed to write are
//     excluded in one Exclude.
//   - the action-end is one conversation, [EndAction(client action),
//     Decrement(own) × k], queued after every member has finished commit or
//     abort processing: by phase two or the roll-back, or — when the group
//     takes no part in phase two, its read-only vote or one-phase commit
//     having finished it in phase one — by the resolve hook, once the
//     action's outcome is decided (end). It rides the binder's next message
//     to the database, or goes alone after endBound.
type txGroup struct {
	b   *Binder
	act *action.Action

	mu sync.Mutex
	// members are the group's bindings, one per object; first holds the
	// first, so that an action of one object allocates no list for it.
	members []*Binding
	first   [1]*Binding
	// tracked says the resolve hook that ends the client action at the
	// database is registered (trackTxDB). An unpinned binding's group is
	// not, until the pin (see Binder), and has no action-end to send.
	tracked bool
	// excluded says the group sent an Exclude, which its action-end
	// decides: the end is then sent at once (end).
	excluded bool
	// ended claims the action-end.
	ended bool
	// one is the room of the group's first binding (probe): an action's
	// first object at a database allocates its binding with its group.
	one     Binding
	oneUsed bool
}

var (
	_ action.Participant = (*txGroup)(nil)
	_ action.OnePhaser   = (*txGroup)(nil)
	_ action.Resolver    = (*txGroup)(nil)
)

// join makes bd a member of its group, unless the group holds its object
// already, and enlists the group in the action with its first member.
func (g *txGroup) join(bd *Binding) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if slices.ContainsFunc(g.members, func(m *Binding) bool { return m.id == bd.id }) {
		return
	}
	if g.members == nil {
		if g.act.Enlist(g) != nil {
			return
		}
		g.members = g.first[:0]
	}
	g.members = append(g.members, bd)
}

// handles returns the members with their handles and an outcome for each,
// all at one index: in buf, for a group of one. Each commit phase passes them
// to the package function of replica that runs it over every member at once.
func (g *txGroup) handles(buf *phaseBuf) ([]*Binding, []*replica.Handle, []replica.Outcome) {
	g.mu.Lock()
	members := g.members
	g.mu.Unlock()
	hs, out := buf.hs[:], buf.out[:]
	if len(members) > 1 {
		hs, out = make([]*replica.Handle, len(members)), make([]replica.Outcome, len(members))
	}
	for i, bd := range members {
		hs[i] = bd.handle
	}
	return members, hs, out
}

// phaseBuf holds a group of one's handle and outcome in a commit phase.
type phaseBuf struct {
	hs  [1]*replica.Handle
	out [1]replica.Outcome
}

// Name implements action.Participant.
func (g *txGroup) Name() string { return "group(" + string(g.b.DB.DB) + ")" }

// Prepare implements action.Participant: the servers copy every member's
// new object state to the St nodes (replica.Prepare), and the stores any
// member's copy failed at are excluded from its St_A in the same commit
// processing (§4.2), in one Exclude. A refused exclude lock aborts the
// action (§4.2.1).
//
// A member every server reports read-only votes read-only: the servers have
// released the action for it. When every member does (and no store needs
// excluding), so does the group: the use-list Decrements and any tx-owned
// database locks wait for the action-end — never sent during phase one,
// because the database action must not commit another participant's work
// before the commit point — and the group is done with no phase-two round
// trips and no outcome-log write upstream.
func (g *txGroup) Prepare(ctx context.Context, tx string) (action.Vote, error) {
	var buf phaseBuf
	members, hs, out := g.handles(&buf)
	replica.Prepare(ctx, tx, hs, false, out)
	vote := action.VoteReadOnly
	var excluded []ExcludePair
	for i, bd := range members {
		if out[i].Err != nil {
			return 0, out[i].Err
		}
		bd.vote = out[i].Vote
		if failed := bd.handle.FailedStores(); len(failed) > 0 {
			// An Exclude must commit or abort with the action: the member
			// stays a commit voter so that EndAction runs in phase two.
			excluded = append(excluded, ExcludePair{UID: bd.id, Hosts: failed})
			bd.vote = action.VoteCommit
		}
		if bd.vote == action.VoteCommit {
			vote = action.VoteCommit
		}
	}
	if len(excluded) == 0 {
		return vote, nil
	}
	g.setExcluded()
	if err := g.b.DB.Exclude(ctx, tx, excluded, g.b.UseWriteLockForExclude); err != nil {
		return 0, fmt.Errorf("core: Exclude(%v): %w", excluded, err)
	}
	for _, bd := range members {
		if len(bd.handle.FailedStores()) == 0 {
			continue
		}
		// Cross-exclusion gate, per object. Exclude-write locks share with
		// readers (§4.2.1), so two concurrent actions can each exclude the
		// store the OTHER one successfully prepared at — and if both then
		// committed, the stores' version chains would diverge on disjoint
		// survivor sets (split brain; the chaos harness finds this). The
		// gate: after excluding, re-read St and require every remaining
		// member to hold OUR prepared state, and the view to be non-empty.
		// Any interleaving of exclude/gate pairs then admits at most one of
		// the cross-excluders past the gate: the later gate necessarily
		// observes the earlier action's exclusion and fails.
		view, _, err := g.b.DB.GetView(ctx, tx, bd.id)
		if err != nil {
			return 0, fmt.Errorf("core: post-exclude GetView(%v): %w", bd.id, err)
		}
		if len(view) == 0 {
			return 0, fmt.Errorf("core: %v: St view empty after excluding %v — no surviving store holds the new state", bd.id, bd.handle.FailedStores())
		}
		prepared := bd.handle.PreparedStores()
		for _, st := range view {
			if !slices.Contains(prepared, st) {
				return 0, fmt.Errorf("core: %v: St member %s was not prepared by this action (concurrent exclusion race) — aborting to preserve St consistency", bd.id, st)
			}
		}
	}
	return vote, nil
}

// CommitOnePhase implements action.OnePhaser: a group of one, the action's
// only participant, commits in its handle's combined round (replica.Prepare
// with onePhase), which leaves ineligible shapes (several servers or stores)
// untouched for ordinary 2PC. A group of several is ineligible: each member
// would write its own stores, and only the coordinator's outcome log keeps
// those writes atomic.
func (g *txGroup) CommitOnePhase(ctx context.Context, tx string) (action.Vote, error) {
	g.mu.Lock()
	n := len(g.members)
	g.mu.Unlock()
	if n != 1 {
		return 0, action.ErrOnePhaseIneligible
	}
	var buf phaseBuf
	members, hs, out := g.handles(&buf)
	replica.Prepare(ctx, tx, hs, true, out)
	if out[0].Err != nil {
		// Ineligible passes through untouched; any other failure aborts the
		// action and the coordinator's roll-back runs g.Abort.
		return 0, out[0].Err
	}
	bd := members[0]
	bd.vote = out[0].Vote
	if failed := bd.handle.FailedStores(); len(failed) > 0 {
		// Best effort: the state is already committed, so a refused exclude
		// lock cannot abort the action any more; the recovering store will
		// be excluded by a later action's commit processing instead.
		g.setExcluded()
		_ = g.b.DB.Exclude(ctx, tx, []ExcludePair{{UID: bd.id, Hosts: failed}}, g.b.UseWriteLockForExclude)
	}
	// The group is the action's only participant, so nothing else shares
	// the database action: ending it right here is safe, and the decision
	// is already commit.
	_ = g.end(ctx, true)
	return bd.vote, nil
}

// Commit implements action.Participant: phase two at the servers for every
// member (replica.Commit), then the action-end (end): the database action
// ends, releasing its locks and committing any Exclude, and — for the
// enhanced schemes — the use-list Decrements run as the message's own
// action. A member released at phase one sends nothing.
func (g *txGroup) Commit(ctx context.Context, tx string) error {
	var buf phaseBuf
	members, hs, out := g.handles(&buf)
	replica.Commit(ctx, tx, hs, out)
	var err error
	for i, bd := range members {
		if out[i].Err != nil || len(bd.handle.FailedStores()) > 0 {
			// Some store never acked this action's writes — whether its
			// prepare reply was lost or its phase-two copy failed, it may
			// hold a prepared intention it can only resolve by querying
			// the coordinator's log at its own recovery. Keep the commit
			// record past the outcome-log GC.
			g.act.RetainOutcome()
		}
		if err == nil {
			err = out[i].Err
		}
	}
	if endErr := g.end(ctx, true); err == nil {
		err = endErr
	}
	return err
}

// Abort implements action.Participant: the roll-back at the servers for
// every member (replica.Abort), then the action-end. Use counts still drop:
// the bindings existed regardless of the action's outcome. A member already
// released (read-only voter) has nothing of its own to undo.
func (g *txGroup) Abort(ctx context.Context, tx string) error {
	var buf phaseBuf
	members, hs, out := g.handles(&buf)
	replica.Abort(ctx, tx, hs, out)
	endErr := g.end(ctx, false)
	for i := range members {
		if out[i].Err != nil {
			return out[i].Err
		}
	}
	return endErr
}

// end is the action-end conversation: the client action's database action
// ends with the action's outcome — unless it was ended already — releasing
// its locks and deciding any Exclude; then, for the enhanced schemes, each
// binding's §4.1.3 Decrement runs as an own action, after the client action
// has terminated (the last shaded action of Figure 7). Use counts drop
// whatever the outcome: the binding existed regardless. A Decrement whose
// object was deregistered meanwhile drops nothing and fails nothing
// (DB.Decrement), so each stands alone.
//
// The end is not a message of its own. Its ops wait in the binder (see
// pendingEnds) and ride the head of the binder's next message to this
// database — a bind, a pin, another action's end — or, when endBound
// passes with none, go alone (Binder.do). Holding the client action's read
// locks that much longer is safe under two-phase locking, and a wait for
// quiescence flushes the binder first (Binder.FlushEnds). Two kinds of end
// are sent at once, alone or with whatever else waits: the end of a group
// that sent an Exclude, which the end decides and which must be decided
// before the action returns, and Figure 6's, whose locks held to the end are
// what the standard scheme is measured by.
//
// The returned error is that of a message sent at once and lost in
// transport; the binder sends what it carried once more (Binder.do), and
// under a context already done it sends nothing and leaves the end to the
// bound.
func (g *txGroup) end(ctx context.Context, commit bool) error {
	b := g.b
	g.mu.Lock()
	if !g.tracked || g.ended {
		g.mu.Unlock()
		return nil
	}
	g.ended = true
	members := g.members
	now := g.excluded || b.Scheme == SchemeStandard
	g.mu.Unlock()
	b.ends.add(b, g.act.ID(), commit, members)
	if !now {
		return nil
	}
	if _, err := b.do(ctx); rpc.CodeOf(err) == "" || rpc.CodeOf(err) == CodeStopped {
		// Nil, lost in transport, or not durable. Any other answer means
		// the message's EndActions, which come first and cannot be
		// refused, ran.
		return err
	}
	return nil
}

// Resolved implements action.Resolver: the hook trackTxDB registers, which
// ends the client action at the database with its outcome unless phase two
// or the roll-back did.
func (g *txGroup) Resolved(committed bool) { _ = g.end(context.Background(), committed) }

// newBinding returns memory for a binding of the group's: its room for the
// first, a new Binding after. An action's binds follow one another (Bind),
// so the room is claimed with no lock.
func (g *txGroup) newBinding() *Binding {
	if g.oneUsed {
		return new(Binding)
	}
	g.oneUsed = true
	return &g.one
}

// setExcluded marks the group as one that sent an Exclude.
func (g *txGroup) setExcluded() {
	g.mu.Lock()
	g.excluded = true
	g.mu.Unlock()
}

// untrack undoes the trackTxDB of a bind that left nothing at the database:
// the resolve hook stays, and finds nothing to end.
func (g *txGroup) untrack() {
	g.mu.Lock()
	g.tracked = false
	g.mu.Unlock()
}

// group returns the client action's group at this database (see txGroup),
// creating it, untracked, on the action's first bind here.
func (b *Binder) group(act *action.Action) *txGroup {
	b.dbtxOnce.Do(func() { b.dbtxKey = "core.dbtx:" + string(b.DB.DB) })
	if v, ok := act.Stashed(b.dbtxKey); ok {
		return v.(*txGroup)
	}
	g := &txGroup{b: b, act: act}
	act.StashOnce(b.dbtxKey, g) // free: an action's binds are sequential (Bind)
	return g
}

// trackTxDB tracks the client action's group at this database: it ensures
// the client action's database state is ended exactly once, with the
// action's outcome, no matter how the bind proceeds. It registers an
// action-level resolve hook BEFORE the first tx-owned lock is taken, closing
// two holes at once:
//
//   - a bind that fails before any binding joins would otherwise leak
//     its read locks forever (nothing else runs EndAction for the
//     action), wedging a recovering node's Insert/Include;
//   - releasing those locks eagerly on the failure path would be worse:
//     the caller may tolerate the failed bind and commit the action with
//     its other bindings, whose St view read locks are exactly what
//     keeps a recovering store's Include from sliding inside the
//     action's view-read/write-back window.
//
// The hook simply defers the release to the action's own resolution,
// which is correct in both worlds; a phase two or roll-back that ended the
// database action claimed it first, and the hook degrades to a no-op. It
// also sends the Decrements nothing else sent: those of a group that
// finished in phase one.
//
// An action that has left StatusRunning takes no more hooks (its commit or
// abort processing already holds the list), so nothing would ever end what
// the caller is about to lock: trackTxDB fails then, leaving the group
// untracked, and the bind or pin that asked fails with it. fresh reports
// that this call tracked the group.
func (b *Binder) trackTxDB(act *action.Action) (fresh bool, err error) {
	g := b.group(act)
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.tracked {
		if !act.OnResolve(g) {
			return false, fmt.Errorf("core: %s has begun to end, nothing would release its locks at %s: %w", act.ID(), b.DB.DB, action.ErrNotRunning)
		}
		g.tracked, fresh = true, true
	}
	return fresh, nil
}

// spreadReads reports whether bindings are spread over Sv by client name
// instead of following the use lists: the read optimisation, where every
// replica is as good as any other.
func (b *Binder) spreadReads() bool {
	return b.ReadOnly && b.Policy == replica.Active
}

// unpinnedKey stashes, on the client action, the one binding the
// action bound unpinned — its first.
const unpinnedKey = "core.unpinned"

// ErrPinStale reports a pin that found the object gone from the database the
// action bound it at: it was moved (placement.Move) between the bind and the
// pin. What the action read there can no longer be vouched for beside
// anything it reads from now on, so the attempt must fail; a fresh attempt
// binds where the object now is.
var ErrPinStale = errors.New("core: object left its database between bind and pin")

// bindsUnpinned reports whether the first object an action binds through b
// is bound without the client action's St read lock (see Binder).
func (b *Binder) bindsUnpinned() bool {
	return b.ReadOnly && b.Policy == replica.SingleCopyPassive && b.LeaseHolder == ""
}

// pin takes, for the client action, the St read lock an unpinned binding was
// bound without — GetView under the client action at the binding's own
// database, with its group tracked first (trackTxDB), exactly the lock and
// the backstop a pinned bind leaves behind. From here on the binding is a
// pinned one, and a second pin has nothing to do.
//
// The view the pin reads is not compared with the one the bind read: a
// read-only binding copies nothing back, so a store included since is one
// its activation did not need and a store excluded since is one today's
// pinned binding outlives too (Exclude is read-compatible, §4.2.1). Only
// an object that is no longer registered here is news: ErrPinStale.
func (bd *Binding) pin(ctx context.Context) error {
	if bd.pinned {
		return nil
	}
	b := bd.binder
	if _, err := b.trackTxDB(bd.act); err != nil {
		return err
	}
	if _, err := b.do(ctx, GetViewOp(bd.act.ID(), bd.id)); err != nil {
		if rpc.CodeOf(err) == CodeUnknownObject {
			// The code stays off the chain: a placement binder would read
			// it as the object being bound now having moved.
			return fmt.Errorf("core: pin %v: %v: %w", bd.id, err, ErrPinStale)
		}
		return fmt.Errorf("core: pin %v: %w", bd.id, err)
	}
	bd.pinned = true
	return nil
}

// degree is how many servers a binding activates and is counted at.
func (b *Binder) degree() int {
	if b.Policy == replica.SingleCopyPassive {
		return 1 // §3.2(2): exactly one activated copy
	}
	return b.Degree
}

// bindStandard implements Figure 6: GetServer and GetView in one message
// under the client action, which owns their read locks and holds them until
// it ends; the trackTxDB hook (or its group's commit/abort processing)
// releases them. If either operation fails the client action must abort.
func (b *Binder) bindStandard(ctx context.Context, act *action.Action, id uid.UID) (*Binding, error) {
	if _, err := b.trackTxDB(act); err != nil {
		return nil, err
	}
	tx := act.ID()
	res, err := b.do(ctx, GetServerOp(tx, id, false, false), GetViewOp(tx, id))
	if err != nil {
		return nil, fmt.Errorf("core: GetServer+GetView(%v): %w", id, err)
	}
	sv, st, class := res[0].Nodes, res[1].Nodes, res[1].Class
	candidates, _ := selectServers(sv, nil, b.degree(), b.spreadReads(), b.ClientNode)
	return b.finishBind(ctx, act, id, class, candidates, st, nil)
}

// bindEnhanced implements Figures 7 and 8: the Object Server database
// work (Sv, use lists) runs in its own top-level action (independent, or
// begun from within the client action — structurally identical here),
// keeping Sv current. With FastBind the action holds the commutative Adjust
// lock, without it the write lock; it is the bind message's own action, so
// it begins and ends inside that one message.
//
// The Object State database read (GetView) is NOT part of that short
// action — the first binding of a read-only action apart, which copies
// nothing back (see Binder): its read lock belongs to the client action
// and is held until the client action ends, exactly as in the standard
// scheme. The lock is what serialises commit processing against a
// recovering store node's Include (§4.2): release it at bind time and an
// Include may land between this action's view read and its commit-time
// write-back — the action then copies its new state only to the stale
// view's members while the recovered node, caught up to the PRE-commit
// state, is already back in St_A. The St sets' mutual consistency breaks,
// and the committed update is lost once anyone catches up from the
// recovered node. (The chaos harness finds this within a few dozen seeds.)
func (b *Binder) bindEnhanced(ctx context.Context, act *action.Action, id uid.UID) (*Binding, error) {
	// The first object a read-only action binds is bound unpinned (see
	// Binder): the St read is the bind message's own action's (the empty
	// name), and nothing of the client action's is left at the database.
	unpinned := b.bindsUnpinned()
	if unpinned {
		_, second := act.Stashed(unpinnedKey)
		unpinned = !second
	}
	viewAct, fresh := "", false
	if !unpinned {
		viewAct = act.ID()
		var err error
		if fresh, err = b.trackTxDB(act); err != nil {
			return nil, err
		}
	}
	viewOp := GetViewOp(viewAct, id)

	// A read-only binder never updates use lists: it reads Sv to spread
	// over, or has the database select from it as Bind would. Either runs
	// as the message's own action.
	svOp := BindOp("", id, b.ClientNode, b.degree(), !b.FastBind)
	switch {
	case b.spreadReads():
		svOp = GetServerOp("", id, false, false)
	case b.ReadOnly:
		svOp = SelectOp("", id)
	}
	res, err := b.do(ctx, svOp, viewOp)
	if err != nil {
		if fresh && MovedTo(err) != "" {
			// The object moved away. The Sv op said so, and the message
			// stopped there: the client action holds nothing at this
			// database, so its action-end would have nothing to end.
			b.group(act).untrack()
		}
		return nil, fmt.Errorf("core: Bind+GetView(%v): %w", id, err)
	}
	// The database answers with its selection: the candidates, of which
	// the hosts counted are the first and the rest the fallbacks the probe
	// walks. Only the spread over Sv is the client's own to make.
	candidates := res[0].Nodes
	if b.spreadReads() {
		candidates, _ = selectServers(candidates, nil, b.degree(), true, b.ClientNode)
	}
	bd, err := b.finishBind(ctx, act, id, res[1].Class, candidates, res[1].Nodes, res[0].Hosts)
	if err == nil && unpinned {
		act.StashOnce(unpinnedKey, bd) // free: an action's binds are sequential (Bind)
	}
	return bd, err
}

// bindNonAtomicSv implements the §5 extension: Sv comes from the
// non-atomic name server (no locks, no actions); failed servers are
// repaired there as soon as the probe finds them (see repair). The St side
// keeps full atomic-action discipline — it alone guarantees that the
// client binds to the latest mutually consistent state; GetView's read
// lock is owned by the client action and trackTxDB releases it.
func (b *Binder) bindNonAtomicSv(ctx context.Context, act *action.Action, id uid.UID) (*Binding, error) {
	if _, err := b.trackTxDB(act); err != nil {
		return nil, err
	}
	sv, err := b.NameServer.Get(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("core: name server Get(%v): %w", id, err)
	}
	if len(sv) == 0 {
		return nil, fmt.Errorf("core: name server has no servers for %v", id)
	}
	res, err := b.do(ctx, GetViewOp(act.ID(), id))
	if err != nil {
		return nil, fmt.Errorf("core: GetView(%v): %w", id, err)
	}
	st, class := res[0].Nodes, res[0].Class
	candidates, _ := selectServers(sv, nil, b.degree(), b.spreadReads(), b.ClientNode)
	return b.finishBind(ctx, act, id, class, candidates, st, nil)
}

// selectServers is the fixed selection algorithm every client applies to
// Sv (§3.2, §4.1.3(i)), as a pure function: the group view database calls
// it to decide where a binding is counted (DB.Bind, DB.Select), the binder
// to spread reads and on the views it reads itself. It returns the
// candidates in preference order and how many of them — the first n — a
// binding of the given degree (0 = all) activates and is counted at; the
// rest are fallbacks for the probe. With spread (see Binder.spreadReads)
// the use lists are ignored.
func selectServers(sv []transport.Addr, use map[transport.Addr]map[transport.Addr]int, degree int, spread bool, client transport.Addr) (candidates []transport.Addr, n int) {
	if len(sv) == 0 {
		return nil, 0
	}
	if spread {
		// Read optimisation over replicas kept identical: any convenient
		// node — spread read-only clients across Sv deterministically by
		// client name.
		h := fnv.New32a()
		_, _ = h.Write([]byte(client))
		return []transport.Addr{sv[h.Sum32()%uint32(len(sv))]}, 1
	}
	// §4.1.3(i): if any use list is non-empty, bind to the servers with
	// non-zero counters (the object is already activated there).
	if candidates = inUse(sv, use); len(candidates) == 0 {
		candidates = sv
	}
	n = len(candidates)
	if degree > 0 && degree < n {
		n = degree
	}
	return candidates, n
}

// inUse lists, sorted, the members of sv whose use lists hold a non-zero
// counter, in a list with cap == len (see withNode).
func inUse(sv []transport.Addr, use map[transport.Addr]map[transport.Addr]int) []transport.Addr {
	var active []transport.Addr
	for _, host := range sv {
		for _, n := range use[host] {
			if n > 0 {
				active = append(active, host)
				break
			}
		}
	}
	slices.Sort(active)
	return slices.Clip(active)
}

// finishBind builds the binding over candidates, runs the explicit probe
// the replication policy needs (none under single-copy passive) with the
// repair its findings call for, and joins the binding to the action's group
// at the database. counted lists the servers whose use lists already count
// it. A probe that found the servers it had to be on dead binds again, once
// the counts that put it there may have gone (rebind).
func (b *Binder) finishBind(ctx context.Context, act *action.Action, id uid.UID, class string, candidates, st, counted []transport.Addr) (*Binding, error) {
	bd, err := b.probe(ctx, act, id, class, candidates, st, counted)
	if err != nil && bd != nil && errors.Is(err, replica.ErrNoServers) {
		if again, rerr := b.rebind(ctx, bd, nil); again != nil || rerr != nil {
			bd, err = again, rerr
		}
	}
	if err != nil {
		return nil, err
	}
	bd.group.join(bd)
	return bd, nil
}

// probe builds the binding over candidates and, for a policy other than
// single-copy passive, activates it and repairs what the activation found.
// On a failed probe it queues the Decrement of the binding's counts with the
// binder's pending ends and returns the error with the binding, for its
// handle's findings.
func (b *Binder) probe(ctx context.Context, act *action.Action, id uid.UID, class string, candidates, st, counted []transport.Addr) (*Binding, error) {
	g := b.group(act)
	bd := g.newBinding()
	*bd = Binding{binder: b, act: act, id: id, class: class, bound: counted, group: g}
	bd.handle = &bd.own
	err := replica.Init(bd.handle, replica.Config{
		UID:         id,
		Class:       class,
		Policy:      b.Policy,
		Servers:     candidates,
		Degree:      b.degree(),
		StNodes:     st,
		Client:      b.DB.RPC,
		Pool:        &b.pool,
		ReadOnly:    b.ReadOnly,
		LeaseHolder: b.LeaseHolder,
		LeaseTTL:    b.LeaseTTL,
	})
	if err != nil {
		return nil, err // no candidates, so nothing was counted
	}
	if b.Policy != replica.SingleCopyPassive {
		if err = bd.handle.Activate(ctx); err == nil {
			err = bd.repair(ctx)
		}
		if err != nil {
			// The bind action committed the count, and this binding will
			// never join its group to drop it at the action's end: its
			// Decrement waits for a message to ride, as an action-end's does.
			b.ends.add(b, "", false, []*Binding{bd})
			bd.bound = nil
			return bd, err
		}
	}
	return bd, nil
}

// rebind binds failed's object once more, for a binding whose probe found
// the servers it had to be on dead before any ran a request of the
// action's: its first request reached none (replica.Handle.Unprobed), or
// its activation reached none or was refused the repair. The database put
// it there by §4.1.3(i), because the object was in use at those servers,
// and the counts that said so may be those of ended actions whose ends
// still wait in their clients' binders (txGroup.end): due within endBound,
// and then a message away. So rebind reads Sv and the use lists, a bound
// after the first read and twice as long after each next one, until none
// but own counts are at the dead servers, or a live server is in use too —
// a bind would then pick one — and binds again over
// the view failed had, in the same message dropping own's counts (own is
// failed, or nil when they are gone). It gives up, returning nil and no
// error, when Sv names no live server or after rebindWithin: then the
// counts are not ends, and the object is in use where this client cannot
// reach it. The standard scheme keeps no counts, and a read-only binder
// under active replication ignores them: neither rebinds.
func (b *Binder) rebind(ctx context.Context, failed, own *Binding) (*Binding, error) {
	if b.Scheme == SchemeStandard || b.NameServer != nil || b.spreadReads() {
		return nil, nil
	}
	dead := failed.handle.Broken()
	live := func(sv transport.Addr) bool { return !slices.Contains(dead, sv) }
	for deadline, wait := time.Now().Add(rebindWithin), endBound; ; wait *= 2 {
		res, err := b.do(ctx, GetServerOp("", failed.id, true, false))
		if err != nil || !slices.ContainsFunc(res[0].Nodes, live) {
			return nil, nil
		}
		use := res[0].Use
		if own != nil {
			for _, host := range own.bound { // everybody else's use lists
				if use[host][b.ClientNode] > 0 {
					use[host][b.ClientNode]--
				}
			}
		}
		if in := inUse(res[0].Nodes, use); len(in) == 0 || slices.ContainsFunc(in, live) {
			break
		}
		if !time.Now().Before(deadline) {
			return nil, nil
		}
		select {
		case <-ctx.Done():
			return nil, nil
		case <-time.After(wait):
		}
	}
	if own != nil {
		b.ends.add(b, "", false, []*Binding{own})
		own.bound = nil
	}
	svOp := BindOp("", failed.id, b.ClientNode, b.degree(), !b.FastBind)
	if b.ReadOnly {
		svOp = SelectOp("", failed.id)
	}
	res, err := b.do(ctx, svOp)
	if err != nil {
		return nil, fmt.Errorf("core: Bind(%v): %w", failed.id, err)
	}
	return b.probe(ctx, failed.act, failed.id, failed.class, res[0].Nodes, failed.handle.StNodes(), res[0].Hosts)
}

// rebindWithin bounds how long rebind waits for the counts at dead servers
// to go: six reads. Ends are due within endBound, so most of it is for
// their messages under load; a count that is no end — its action still
// running, or its client gone — holds a bind for all of it.
const rebindWithin = 30 * endBound

// repair runs once per binding, when the probe — finishBind's Activate, or
// under single-copy passive the first answered request — has shown which
// of the selected servers are dead: they are removed from Sv so that later
// clients skip the discovery (§4.1.3(i)), in the name server directly (§5:
// no lock protocol — concurrent readers may see the update mid-action, and
// a recovering server can re-insert itself with no quiescence check) or by
// Figure 7's exclusive pass, which also moves this binding's use counts to
// the servers it ended up at. The standard scheme and read-only binders
// never repair. A failed repair fails the request that triggered it: the
// action must not run on at a server its use counts do not name.
//
// The exclusive pass is one message, [Decrement(own), Repair(own)], one
// action under the Sv write lock that dies with the message: the binding's
// counts go, and the database applies the selection rule to what everybody
// else holds (DB.Repair). If the object is in use, it is in use at servers
// this binding must be on too; when it is not — a server dead to this
// client is serving others — the pass is refused, as a bind that finds the
// servers in use unreachable always has, and the Decrement is undone with
// it.
func (bd *Binding) repair(ctx context.Context) error {
	if bd.probed {
		return nil
	}
	bd.probed = true
	b := bd.binder
	broken := bd.handle.Broken()
	if len(broken) == 0 {
		return nil
	}
	if b.NameServer != nil {
		for _, dead := range broken {
			if err := b.NameServer.Remove(ctx, bd.id, dead); err != nil {
				return err
			}
		}
		return nil
	}
	if b.Scheme == SchemeStandard || b.ReadOnly {
		return nil
	}
	now := bd.handle.Bound()
	if _, err := b.do(ctx, append(bd.appendDecrement(nil), RepairOp("", bd.id, b.ClientNode, now, broken))...); err != nil {
		if rpc.CodeOf(err) == CodeNotQuiescent {
			return fmt.Errorf("core: repair Sv(%v): %v: %w", bd.id, err, replica.ErrNoServers)
		}
		return fmt.Errorf("core: repair Sv(%v): %w", bd.id, err)
	}
	bd.bound = now
	return nil
}

// Servers returns the live server bindings.
func (bd *Binding) Servers() []transport.Addr { return bd.handle.Bound() }

// Invoke sends one call to the bound object under the binding's action and
// returns the server's reply (see replica.Handle.Invoke): the method's result,
// the committed version the request ran on, and whatever the server attached
// — a read lease (see Binder.LeaseHolder), a fold into another action's
// commit, a carried vote. A method-less replica.Call{} takes the object's read
// lock under the action and reports the coordinator's committed version — the
// commit-time revalidation, in an action that did other work, of a read
// served with no lock left behind it: from a lease, or carried.
//
// A Solo call is declared the action's entire write set at this object: the
// caller will invoke nothing else under the action and goes straight on to
// commit it. The request therefore carries the action's phase one, and the
// binding's commit processing answers from the carried vote. A commutative
// method may instead be folded into another action's commit (flat combining;
// InvokeResp.Batched) — the binding then votes read-only at its own commit,
// which has nothing left to send. A ReadOnly solo call carries the read-only
// vote: a lost reply is a plain failed invoke — never in doubt — and the
// action may go on to other operations provided it re-checks the read (a
// method-less call) before it commits.
//
// Repair follows a successful request. It keeps its place after a solo
// request because a request that carried anything found nothing to repair:
// the handle carries only while every candidate is intact, so where a
// candidate broke the answering server has merely run the method, repair
// names it in the use lists — or fails the request, and the action aborts —
// and the commit is a message of its own, after that.
//
// An error wrapping action.ErrOutcomeUnknown means a solo write may have
// committed — it carried the commit, or was folded into one — and its reply
// is lost: the caller must still commit the action, which resolves the
// doubt, and must not abort or retry it. The repair is attempted then too,
// but cannot fail the request any more.
func (bd *Binding) Invoke(ctx context.Context, c replica.Call) (object.InvokeResp, error) {
	resp, err := bd.handle.Invoke(ctx, bd.act, c)
	if err != nil && !bd.rebound && bd.handle.Unprobed() {
		bd.rebound = true
		if again, rerr := bd.binder.rebind(ctx, bd, bd); again != nil {
			bd.handle, bd.bound = again.handle, again.bound
			resp, err = bd.handle.Invoke(ctx, bd.act, c)
		} else if rerr != nil {
			err = rerr
		}
	}
	if err == nil {
		err = bd.repair(ctx)
	} else if errors.Is(err, action.ErrOutcomeUnknown) {
		_ = bd.repair(ctx)
	}
	return resp, err
}

// Class returns the bound object's class name, as the database recorded it.
func (bd *Binding) Class() string { return bd.class }

// BatchSize returns the number of operations folded into the commit round
// that carried this binding's write (0 when unobserved).
func (bd *Binding) BatchSize() int { return bd.handle.BatchSize() }

// QueueWait returns the longest server-side lock or combiner wait
// observed across this binding's invocations.
func (bd *Binding) QueueWait() time.Duration { return bd.handle.QueueWait() }

// appendDecrement appends the binding's §4.1.3 Decrement to ops: the enhanced
// schemes drop the use counts a binding that may write holds (see
// txGroup.end).
func (bd *Binding) appendDecrement(ops []Op) []Op {
	b := bd.binder
	if b.ReadOnly || b.Scheme == SchemeStandard || len(bd.bound) == 0 {
		return ops
	}
	return append(ops, DecrementOp("", bd.id, b.ClientNode, bd.bound))
}

// Vote returns the binding's phase-one vote, set by its group's commit
// processing: zero before it, and for a binding that is no member.
func (bd *Binding) Vote() action.Vote { return bd.vote }

// FailedStores exposes the stores excluded during commit, for experiments.
func (bd *Binding) FailedStores() []transport.Addr { return bd.handle.FailedStores() }

// BrokenServers exposes the bindings broken during the action.
func (bd *Binding) BrokenServers() []transport.Addr { return bd.handle.Broken() }

// CreateObject installs a new persistent object: its initial state is
// written to every St node's object store, then the object is registered
// in the group view database, as the register message's own action.
func CreateObject(ctx context.Context, db Client, id uid.UID, class string, initState []byte, svNodes, stNodes []transport.Addr) error {
	// A store already holding a committed version of this UID is being
	// re-registered — a deployment reopened over an existing data dir.
	// The install must not regress any chain: the head becomes whatever
	// the highest surviving version is (initState at seq 1 only when no
	// store has anything), and every store below it is brought TO that
	// head — installing initState beside a resumed chain would wedge the
	// fresh store behind the version-chain check forever.
	headData, headSeq := initState, uint64(1)
	have := make([]uint64, len(stNodes)) // 0 = no committed state seen
	for i, st := range stNodes {
		remote := store.RemoteStore{Client: db.RPC, Node: st}
		if v, err := remote.Read(ctx, id); err == nil {
			have[i] = v.Seq
			if v.Seq >= headSeq {
				headData, headSeq = v.Data, v.Seq
			}
		}
	}
	for i, st := range stNodes {
		if have[i] >= headSeq {
			continue
		}
		remote := store.RemoteStore{Client: db.RPC, Node: st}
		if err := remote.Put(ctx, id, headData, headSeq); err != nil {
			return fmt.Errorf("core: install state at %s: %w", st, err)
		}
	}
	_, err := db.Do(ctx, RegisterOp("", id, class, svNodes, stNodes))
	return err
}
