// Package replica implements the paper's three object replication policies
// (§2.3) over the object-server substrate:
//
//   - SingleCopyPassive — one activated copy; its state is checkpointed to
//     the object stores as part of commit processing [Alsberg & Day]. A
//     server crash aborts the affected action; restarting the action
//     activates a new copy (§2.3(iii)).
//   - Active — k activated copies all perform processing; invocations are
//     delivered through reliable totally-ordered multicast so replicas stay
//     identical, masking up to k−1 server crashes during an action (§2.3(i),
//     §3.2(3)).
//   - CoordinatorCohort — k activated copies, only the coordinator
//     processes; it checkpoints committed state to the cohorts, so after a
//     coordinator crash the next action continues at a cohort without
//     touching the object stores (§2.3(ii)). Per the binding rules of §3.1,
//     a crash mid-action still aborts that action: a broken binding stays
//     broken until the action terminates.
//
// A Handle is the per-action client-side facade over the bound servers
// (the set Sv_A' of §3.2). Every request through it is one call, Invoke,
// which returns the server's reply. Its commit processing runs with the
// other handles of its action at one database, driven by the action's
// participant there (core's group of bindings): the package's Prepare,
// Commit and Abort send each server one request per phase naming every
// object of those handles it holds, and each handle reads its own item of
// the reply as it would read a reply of its own. At commit time the bound
// servers copy the object's new state to every functioning node in St_A,
// and the Handle records which St nodes failed so the naming and binding
// layer can Exclude them (§4.2).
package replica

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/action"
	"repro/internal/conc"
	"repro/internal/group"
	"repro/internal/object"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// Policy selects a replication discipline.
type Policy int

// Replication policies (§2.3).
const (
	SingleCopyPassive Policy = iota + 1
	Active
	CoordinatorCohort
)

// ParsePolicy maps a flag/config spelling to a Policy. Both the short
// spellings used by command-line flags ("single", "active", "cohort") and
// the full String() forms are accepted.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "single", "single-copy-passive", "passive":
		return SingleCopyPassive, nil
	case "active":
		return Active, nil
	case "cohort", "coordinator-cohort":
		return CoordinatorCohort, nil
	default:
		return 0, fmt.Errorf("replica: unknown policy %q (want single | active | cohort)", s)
	}
}

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SingleCopyPassive:
		return "single-copy-passive"
	case Active:
		return "active"
	case CoordinatorCohort:
		return "coordinator-cohort"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ErrNoServers reports that no bound server is functioning, so the action
// must abort (§3.2).
var ErrNoServers = errors.New("replica: no functioning servers")

// Config describes one replicated-object binding for one client action.
type Config struct {
	// UID and Class identify the persistent object.
	UID   uid.UID
	Class string
	// Policy selects the replication discipline.
	Policy Policy
	// Servers is Sv_A': the chosen server nodes, in preference order (the
	// first functioning one is the coordinator where relevant).
	Servers []transport.Addr
	// Degree is the desired number of activated replicas (|Sv_A'| in
	// §3.2); 0 means all of Servers. The probe — Activate, or under
	// single-copy passive the binding's first request — walks Servers in
	// order until Degree replicas are running: a client with a stale Sv
	// view discovers crashed nodes "the hard way" here (§4.1.2).
	Degree int
	// StNodes is the St_A view used for activation and commit-time copy.
	StNodes []transport.Addr
	// Client is the invoking node's RPC client.
	Client rpc.Client
	// Pool runs the handle's fan-outs, and those of the grouped phases
	// (Prepare, Commit, Abort) it takes part in. It belongs to whoever
	// creates the handle, and outlives the handle. Required.
	Pool *conc.Pool
	// LeaseHolder, when non-empty, names the client node to request read
	// leases for. Leases are only requested from the view-primary
	// coordinator (Servers[0]) under single-copy passive replication: a
	// fallback coordinator is already a degraded path, and keeping the
	// primary the sole granter is what lets its commits invalidate every
	// known lease without a granter handshake.
	LeaseHolder transport.Addr
	// ReadOnly marks a binding that only reads, bound outside the use lists
	// (§4.1.2's read optimisation). Under active replication it holds one
	// replica, and its calls go to that replica alone, outside the group's
	// total order (see Invoke).
	ReadOnly bool
	// LeaseTTL is the deployment's read-lease duration; zero when leases
	// are disabled. It is set whether or not THIS client holds leases:
	// phase two needs it to wait out the lease clock before acknowledging
	// a commit whose fence at the granting primary could not be confirmed
	// (see Commit).
	LeaseTTL time.Duration
}

// Handle is the client-side representation of a bound, activated,
// replicated object for the duration of one application action.
type Handle struct {
	cfg Config
	// uid is cfg.UID.String(), rendered once for every request and key.
	uid string

	mu sync.Mutex
	// activated lists servers where activation succeeded, in preference
	// order; only these participate in invocation and commit.
	activated []transport.Addr
	// unprobed marks a single-copy-passive handle that has not yet had a
	// request answered: it is bound to its first intact candidate, and its
	// first request carries the activation fields and walks the candidates
	// (see atCoordinator). Cleared for good by the first answer — or the
	// first ambiguous failure, after which the operation may have run and
	// no other server may be tried.
	unprobed bool
	// broken marks servers whose binding failed (crash detected); per
	// §3.1 a broken binding is never repaired within the action.
	broken map[transport.Addr]bool
	// failedStores accumulates St nodes whose commit-time copy failed and
	// must be excluded from St_A.
	failedStores map[transport.Addr]bool
	// preparedStores accumulates St nodes that stably recorded the
	// action's new state during phase one — the set whose membership in
	// the post-exclusion view the binding layer validates before the
	// commit point.
	preparedStores map[transport.Addr]bool
	// prepared lists servers that acknowledged a dirty prepare (phase-two
	// commit targets). Servers that reported the action read-only release
	// it during prepare and are never addressed again.
	prepared []transport.Addr
	// released marks the handle done with commit processing before phase
	// two — a read-only vote, a completed one-phase commit, or a solo
	// invocation folded into another action's commit. Commit and Abort
	// become no-ops then.
	released bool
	// onePhaseDoubt records that a one-phase commit attempt — or the solo
	// request that carried it, or that the server may have folded into
	// another action's commit — ended ambiguously (reply lost after the
	// request may have been delivered): the write may have committed. The
	// two-phase fallback resolves the doubt only when the coordinator
	// answers the re-prepare; if it cannot be reached, Prepare reports
	// action.ErrOutcomeUnknown instead of a definite-looking failure — a
	// crashed coordinator's surviving handler goroutine may have completed
	// the store commit after the client gave the server up for dead.
	onePhaseDoubt bool
	// wrote records that the coordinator answered one of this handle's
	// invocations as a write (InvokeResp.Modified): the action is dirty there
	// and its phase one cannot honestly be a read-only vote (see lostWrite).
	wrote bool
	// carried, when not CarryNone, says that a solo request took the action
	// into phase one at the coordinator (see Invoke), and carriedVote /
	// carriedErr are what the Prepare message — one-phase for CarryCommit —
	// would have answered. Prepare takes the answer in place of sending
	// that message.
	carried     object.Carry
	carriedVote object.Vote
	carriedErr  error
	// batchSize records how many operations the commit round that carried
	// this handle's write folded (0 when unknown or unbatched).
	batchSize int
	// queueWaitNanos records the longest server-side lock/combiner wait
	// observed across this handle's invocations.
	queueWaitNanos int64
}

// New creates a handle. Call Activate before Invoke under active and
// coordinator-cohort replication; a single-copy-passive handle is ready as
// it is.
func New(cfg Config) (*Handle, error) {
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("replica %v: empty server set: %w", cfg.UID, ErrNoServers)
	}
	if cfg.Pool == nil {
		return nil, fmt.Errorf("replica %v: no fan-out pool", cfg.UID)
	}
	if cfg.Policy == SingleCopyPassive {
		// §3.2(2): single-copy passive means exactly one activated copy;
		// the remaining candidates are fallbacks probed only if earlier
		// ones cannot activate.
		cfg.Degree = 1
	}
	return &Handle{cfg: cfg, uid: cfg.UID.String(), unprobed: cfg.Policy == SingleCopyPassive}, nil
}

// mark adds addr to one of the handle's node sets, which stay nil until a
// node fails or prepares: most actions meet neither. h.mu must be held.
func mark(set *map[transport.Addr]bool, addr transport.Addr) {
	if *set == nil {
		*set = make(map[transport.Addr]bool)
	}
	(*set)[addr] = true
}

// sorted lists a node set in address order; an empty set is nil.
func sorted(set map[transport.Addr]bool) []transport.Addr {
	if len(set) == 0 {
		return nil
	}
	out := make([]transport.Addr, 0, len(set))
	for addr := range set {
		out = append(out, addr)
	}
	slices.Sort(out)
	return out
}

// Activate probes the candidate servers in preference order until Degree
// of them (all, when Degree is 0) run a server for the object, loading
// state from St as needed. Candidates that cannot activate are marked
// broken — the "hard way" failure discovery of §4.1.2. The call fails only
// when no server at all could be activated.
//
// Active replicas must have joined the object's group, and cohorts be able
// to take checkpoints, before the first multicast or commit, so those
// policies probe explicitly: each probe is a method-less invoke naming the
// class and the St view and no action, which activates the object and
// locks nothing (see object.InvokeReq). Single-copy passive sends nothing
// here: the one copy is activated by the binding's first request (see
// atCoordinator).
func (h *Handle) Activate(ctx context.Context) error {
	if h.cfg.Policy == SingleCopyPassive {
		return nil
	}
	want := h.cfg.Degree
	if want <= 0 || want > len(h.cfg.Servers) {
		want = len(h.cfg.Servers)
	}
	got := 0
	var lastErr error
	for _, sv := range h.cfg.Servers {
		if got >= want {
			break
		}
		h.mu.Lock()
		bad := h.broken[sv]
		h.mu.Unlock()
		if bad {
			continue
		}
		ref := h.ref(sv)
		ref.Class, ref.StNodes = h.cfg.Class, h.cfg.StNodes
		if _, err := ref.Invoke(ctx, object.InvokeReq{}); err != nil {
			h.markBroken(sv)
			lastErr = err
			continue
		}
		h.mu.Lock()
		h.activated = append(h.activated, sv)
		h.mu.Unlock()
		got++
	}
	if got == 0 {
		// Keep the last per-server cause on the chain: callers distinguish
		// "every server breaker-open" (fast-fail, retry later) from other
		// total-failure modes.
		if lastErr != nil {
			return fmt.Errorf("replica %v: activation failed at all of %v: %w: %w", h.cfg.UID, h.cfg.Servers, ErrNoServers, lastErr)
		}
		return fmt.Errorf("replica %v: activation failed at all of %v: %w", h.cfg.UID, h.cfg.Servers, ErrNoServers)
	}
	return nil
}

func (h *Handle) ref(sv transport.Addr) object.ServerRef {
	return object.ServerRef{Client: h.cfg.Client, Node: sv, UID: h.cfg.UID, Name: h.uid}
}

func (h *Handle) markBroken(sv transport.Addr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	mark(&h.broken, sv)
}

// live returns the servers whose bindings are intact, in preference order:
// the activated ones, or — while the handle is unprobed — the candidate its
// first request will try next. The result is read-only: unless a binding
// broke it shares the handle's own list, with no room to append into.
func (h *Handle) live() []transport.Addr {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.unprobed {
		for i, sv := range h.cfg.Servers {
			if !h.broken[sv] {
				return h.cfg.Servers[i : i+1 : i+1]
			}
		}
		return nil
	}
	if len(h.broken) == 0 {
		return h.activated[:len(h.activated):len(h.activated)]
	}
	var out []transport.Addr
	for _, sv := range h.activated {
		if !h.broken[sv] {
			out = append(out, sv)
		}
	}
	return out
}

// Bound returns the currently live server bindings (a copy).
func (h *Handle) Bound() []transport.Addr { return slices.Clone(h.live()) }

// Coordinator returns the first live server (the processing replica for
// single-copy and coordinator-cohort policies).
func (h *Handle) Coordinator() (transport.Addr, error) {
	live := h.live()
	if len(live) == 0 {
		return "", fmt.Errorf("replica %v: %w", h.cfg.UID, ErrNoServers)
	}
	return live[0], nil
}

// Broken returns the servers whose bindings broke during the action,
// sorted — input for the §4.1.3 Remove repairs.
func (h *Handle) Broken() []transport.Addr {
	h.mu.Lock()
	defer h.mu.Unlock()
	return sorted(h.broken)
}

// FailedStores returns the St nodes whose commit-time copy failed, sorted
// — input for the §4.2 Exclude.
func (h *Handle) FailedStores() []transport.Addr {
	h.mu.Lock()
	defer h.mu.Unlock()
	return sorted(h.failedStores)
}

// PreparedStores returns the St nodes that hold the action's prepared new
// state, sorted — the set the binding layer checks the post-exclusion St
// view against before committing.
func (h *Handle) PreparedStores() []transport.Addr {
	h.mu.Lock()
	defer h.mu.Unlock()
	return sorted(h.preparedStores)
}

// Call is one request through a handle. Method and Args name the operation;
// a Call with no Method is the method-less check (see Invoke).
type Call struct {
	Method string
	Args   []byte
	// Solo declares the operation the action's entire write set at this
	// object: the request then carries the action's phase one. A method-less
	// call is never solo.
	Solo bool
	// ReadOnly is the caller's word, from the object's class, that the method
	// writes nothing; it shapes a Solo call only.
	ReadOnly bool
}

// Invoke sends one call under act and returns the server's reply: the
// method's Result, the committed version the request ran on (Seq), and what
// else the server attached — a read lease, a fold into another action's
// commit, a carried vote. Any call drops a vote an earlier solo read carried:
// the request takes the action back to the server, which holds a lock for it
// again until a phase-one message of its own releases it.
//
// A plain call runs the method at the coordinator. Under single-copy passive,
// a handle with a LeaseHolder asks the view primary for a read lease
// (InvokeResp.Lease).
//
// A Solo call declares the operation the action's entire write set at this
// object — the action will do nothing else, so the request also carries the
// action's phase one: the server goes on from the method into what the
// handle's next message would have asked for (a one-phase prepare when its
// shape is eligible, a plain one otherwise), the reply brings the vote back
// with the result, and Prepare answers from that record with no message.
// For a commutative method contending on the write lock, the server may
// instead fold the operation into the current lock holder's commit round
// (flat combining; InvokeResp.Batched): the operation's durability is then
// tied to the carrying action's already-decided commit, the handle is
// released, and the caller's own commit processing completes locally with
// no further RPCs. A solo request never asks for a lease: a grant riding the
// request that also released the read lock could reach its holder after a
// writer's fence missed it.
//
// Only a handle with every candidate intact carries. Once a candidate broke,
// the binding layer has use lists to repair before anything may commit at
// the server that answered, so the request is a plain solo invoke and commit
// processing sends its own messages.
//
// A solo write that fails ambiguously — reply lost, deadline, cancellation,
// or the server's own CodeCommitUncertain — may have committed: it carried
// the commit, or the server folded it into a commit that went through. The
// binding is not broken then: the error wraps action.ErrOutcomeUnknown, the
// doubt is recorded, and the caller must go on to commit processing, which
// resolves it as it resolves a lost one-phase Prepare reply (see
// readPhaseOne) — aborting instead could undo nothing and report an abort
// over a committed write.
//
// A ReadOnly solo call carries the read-only vote: the server releases the
// action in the request that ran the method, and the reply's clean Vote says
// so beside the version read (Seq). There is nothing to be in doubt about, so
// an ambiguous failure is a plain call's — the binding breaks and the action
// aborts — and no intention precedes Commit, so no commit window is opened.
// The promise is weaker too: the caller MAY go on to other calls through the
// handle, and what the read saw is then the caller's to re-check.
//
// The method-less call, Call{}, is that re-check: it takes the object's read
// lock under act at the coordinator and reports the committed version there
// (Seq) — the server-backed revalidation of a read served without a lock,
// from a lease or carried. It is sent as any other coordinator request is —
// as the binding's first, it activates and fails over — under every policy,
// and it asks for no lease. The lock, held until the action ends, is what
// makes the answer durable for the caller's commit: leases are a
// single-copy-passive feature and active replication never carries, so the
// coordinator is the one server whose version can advance.
//
// Under active replication a call that names a method is multicast to every
// live replica and never batches or carries (one replica folding, or
// preparing ahead of the others, would diverge the copies): a Solo call is a
// plain one there. A ReadOnly binding's call is sent to its one replica as a
// plain call: multicast to a view of that replica alone, it would take a
// group sequence number no other replica is ever sent, and every other
// replica would hold the group's next message back for it. The replica's
// lock orders the read against the writes the group delivers.
func (h *Handle) Invoke(ctx context.Context, act *action.Action, c Call) (object.InvokeResp, error) {
	h.mu.Lock()
	h.carried = object.CarryNone
	h.mu.Unlock()
	owner := act.ID()
	if h.cfg.Policy == Active && c.Method != "" {
		if !h.cfg.ReadOnly {
			return h.invokeActive(ctx, owner, c.Method, c.Args)
		}
		c.Solo = false
	}
	solo := c.Solo && c.Method != ""
	var resp object.InvokeResp
	err := h.atCoordinator(func(ref object.ServerRef) (err error) {
		req := object.InvokeReq{Action: owner, Method: c.Method, Args: c.Args, Solo: solo}
		switch {
		case solo && h.intact():
			ref.StNodes = h.cfg.StNodes
			if h.onePhaseEligible(1) {
				req.Carry = object.CarryCommit
				for _, sv := range h.cohortsOf(ref.Node) {
					req.CheckpointTo = append(req.CheckpointTo, string(sv))
				}
			} else {
				req.Carry = object.CarryPrepare
				if !c.ReadOnly {
					// Intentions will sit at the stores before Commit is called.
					act.ExpectPrepared()
				}
			}
		case !solo && c.Method != "" && h.cfg.LeaseHolder != "" && h.cfg.Policy == SingleCopyPassive && ref.Node == h.cfg.Servers[0]:
			// Only the view primary grants (see Config.LeaseHolder).
			req.LeaseHolder = string(h.cfg.LeaseHolder)
		}
		resp, err = ref.Invoke(ctx, req)
		if solo && !c.ReadOnly && commitInDoubt(err) {
			h.mu.Lock()
			h.onePhaseDoubt = true
			h.mu.Unlock()
			// The cause is text only: nothing on the chain may read as a crash
			// or a refusal, to atCoordinator or to the caller.
			return fmt.Errorf("replica %v: solo request's outcome unknown (%v): %w", h.cfg.UID, err, action.ErrOutcomeUnknown)
		}
		return err
	})
	if err != nil {
		return object.InvokeResp{}, err
	}
	h.mu.Lock()
	if resp.WaitNanos > h.queueWaitNanos {
		h.queueWaitNanos = resp.WaitNanos
	}
	if resp.Batched {
		// The op rode another action's commit, which is already durable;
		// this handle has nothing left to prepare or commit.
		h.released = true
		h.batchSize = resp.BatchSize
	} else if resp.Modified {
		h.wrote = true
	}
	h.carried, h.carriedVote, h.carriedErr = resp.Carried, resp.Vote, resp.Vote.Err()
	h.mu.Unlock()
	return resp, nil
}

// intact reports whether no candidate's binding has broken.
func (h *Handle) intact() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.broken) == 0
}

// takeCarried hands over, once, the phase-one answer a solo request carried
// back for the given phase.
func (h *Handle) takeCarried(phase object.Carry) (vote object.Vote, ok bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.carried != phase {
		return object.Vote{}, false, nil
	}
	h.carried = object.CarryNone
	return h.carriedVote, true, h.carriedErr
}

// BatchSize returns the number of operations folded into the commit round
// that carried this handle's write (0 when none was observed).
func (h *Handle) BatchSize() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.batchSize
}

// QueueWait returns the longest server-side lock or combiner wait
// observed across this handle's invocations.
func (h *Handle) QueueWait() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.queueWaitNanos)
}

// lostWrite reports whether a clean phase-one answer from the coordinator
// contradicts what it told this handle earlier: it ran a write under the
// action, and now knows of none. Its volatile state went in between — the
// node restarted and another client's request re-activated the object — and
// the write with it. Taking the answer as a read-only vote would commit the
// action's other participants around a lost update, so it counts as the
// crash it is. (After an ambiguous one-phase attempt a clean answer is the
// expected one — committed and forgotten — and Prepare resolves it.)
func (h *Handle) lostWrite() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.wrote && !h.onePhaseDoubt
}

// atCoordinator sends one request to the processing replica. When the
// server turns out to be gone the binding breaks (§3.1) and stays broken
// for this action; for coordinator-cohort the paper's cohorts elect a new
// coordinator for FUTURE actions, the current one must abort because the
// coordinator's uncommitted state died with it.
//
// An unprobed handle's request is its binding's first: it carries the
// class and the St view, so the server activates the object on a miss, and
// it is the §4.1.2 "hard way" probe. A failure that shows the request
// never ran (see neverRan) breaks that candidate and moves on to the next,
// saying so in the request (object.InvokeReq.Failover);
// an ambiguous one — reply lost, deadline — breaks the binding as a
// mid-action crash does, because the operation may have run there under
// the action's lock and must not run at a second server. (A solo write's
// ambiguous failure never gets this far as one: Invoke turns it into a
// recorded doubt, because that operation may even have committed.)
func (h *Handle) atCoordinator(call func(ref object.ServerRef) error) error {
	var lastErr error
	for {
		h.mu.Lock()
		first := h.unprobed
		h.mu.Unlock()
		coord, err := h.Coordinator()
		if err != nil {
			if lastErr != nil {
				// Keep the last per-server cause on the chain: callers
				// distinguish "every server breaker-open" (fast-fail, retry
				// later) from other total-failure modes.
				return fmt.Errorf("replica %v: activation failed at all of %v: %w: %w", h.cfg.UID, h.cfg.Servers, ErrNoServers, lastErr)
			}
			return err
		}
		ref := h.ref(coord)
		if first {
			// Past a candidate that did not answer, a copy found activated
			// at this one is an earlier failover's: the server checks it
			// against the stores before it serves.
			ref.Class, ref.StNodes, ref.Failover = h.cfg.Class, h.cfg.StNodes, lastErr != nil
		}
		err = call(ref)
		if first && neverRan(err) {
			h.markBroken(coord)
			lastErr = err
			continue
		}
		gone := isCrashError(err) || object.IsNotActive(err)
		h.mu.Lock()
		if first {
			h.unprobed = false
			h.activated = append(h.activated, coord)
		}
		if gone {
			mark(&h.broken, coord)
		}
		h.mu.Unlock()
		if gone {
			return fmt.Errorf("replica %v: coordinator %s failed: %w", h.cfg.UID, coord, ErrNoServers)
		}
		return err
	}
}

// neverRan reports whether a first request's failure is definite: the
// request was not delivered (unreachable, lost on the way, breaker
// fast-fail), or the server refused to activate the object and so executed
// nothing under the action.
func neverRan(err error) bool {
	if errors.Is(err, transport.ErrUnreachable) || errors.Is(err, transport.ErrRequestLost) {
		return true
	}
	switch rpc.CodeOf(err) {
	case object.CodeUnavailable, rpc.CodeNotFound, object.CodeNotActive:
		return true
	}
	return false
}

// invokeActive drives active replication: the invocation is delivered to
// all live replicas in total order; any replica's reply serves as the
// result; unreachable replicas are masked (binding broken) so long as one
// replica survives.
func (h *Handle) invokeActive(ctx context.Context, owner, method string, args []byte) (object.InvokeResp, error) {
	live := h.live()
	if len(live) == 0 {
		return object.InvokeResp{}, fmt.Errorf("replica %v: %w", h.cfg.UID, ErrNoServers)
	}
	payload, err := rpc.Encode(&object.InvokeReq{
		UID:    h.uid,
		Action: owner,
		Method: method,
		Args:   args,
	})
	if err != nil {
		return object.InvokeResp{}, err
	}
	g := group.Group{ID: object.GroupPrefix + h.uid, Members: live}
	res, err := group.Multicast(ctx, h.cfg.Client, g, object.KindInvoke, payload)
	if err != nil {
		// No sequencer reachable: every replica is gone.
		for _, sv := range live {
			h.markBroken(sv)
		}
		return object.InvokeResp{}, fmt.Errorf("replica %v: %v: %w", h.cfg.UID, err, ErrNoServers)
	}
	for _, sv := range res.Failed {
		h.markBroken(sv)
	}
	var (
		resp    object.InvokeResp
		gotOK   bool
		lastErr string
	)
	for _, r := range res.Replies {
		if r.Err != "" {
			lastErr = r.Err
			h.markBroken(r.Member) // replica diverged or refused: drop it
			continue
		}
		var ir object.InvokeResp
		if err := rpc.Decode(r.Payload, &ir); err != nil {
			return object.InvokeResp{}, err
		}
		resp, gotOK = ir, true
	}
	if !gotOK {
		if lastErr != "" {
			return object.InvokeResp{}, fmt.Errorf("replica %v: all replicas failed the method: %s", h.cfg.UID, lastErr)
		}
		return object.InvokeResp{}, fmt.Errorf("replica %v: %w", h.cfg.UID, ErrNoServers)
	}
	return resp, nil
}

// Outcome is one handle's answer in a grouped commit phase: its vote, in
// phase one, and its error.
type Outcome struct {
	Vote action.Vote
	Err  error
}

// pair is one item of a grouped phase on its way to its server.
type pair[I any] struct {
	node transport.Addr
	item I
}

// reply is a server's answer about one item: the item's own answer, or the
// request's failure.
type reply[A any] struct {
	ans A
	err error
}

// answer is an item's answer in a reply: it says whether the item was
// refused.
type answer interface{ Err() error }

// sender sends one server's request of a grouped phase.
type sender[I any, A answer] interface {
	send(ctx context.Context, node transport.Addr, items []I) ([]A, error)
}

// Lone items' lists: the request that names one item takes its list from
// here (exchange). The RPC layer moves a request, and so its list, to the
// heap, and the list is garbage once the request is encoded.
var (
	lonePrepareItems = sync.Pool{New: func() any { return new([1]object.PrepareItem) }}
	loneEndItems     = sync.Pool{New: func() any { return new([1]object.EndItem) }}
)

// exchange sends the items of pairs, one request per server naming every item
// bound there, on pool's workers, and returns each pair's reply, in pairs
// order — in buf, when there is one pair, whose list comes from lone. A
// request that fails fails every item it named.
func exchange[I any, A answer, S sender[I, A]](ctx context.Context, pool *conc.Pool, s S, pairs []pair[I], buf *[1]reply[A], lone *sync.Pool) []reply[A] {
	switch len(pairs) {
	case 0:
		return nil
	case 1:
		items := lone.Get().(*[1]I)
		items[0] = pairs[0].item
		got, err := s.send(ctx, pairs[0].node, items[:])
		*items = [1]I{}
		lone.Put(items)
		buf[0] = replyOf(got, 0, err)
		return buf[:]
	}
	type request struct {
		node  transport.Addr
		items []I
		got   []A
		err   error
	}
	var reqs []request
	for i, p := range pairs {
		r := slices.IndexFunc(reqs, func(r request) bool { return r.node == p.node })
		if r < 0 {
			r = len(reqs)
			reqs = append(reqs, request{node: p.node, items: make([]I, 0, len(pairs)-i)})
		}
		reqs[r].items = append(reqs[r].items, p.item)
	}
	if len(reqs) == 1 {
		reqs[0].got, reqs[0].err = s.send(ctx, reqs[0].node, reqs[0].items)
	} else {
		pool.Do(len(reqs), func(r int) {
			reqs[r].got, reqs[r].err = s.send(ctx, reqs[r].node, reqs[r].items)
		})
	}
	// A request's items are its server's pairs, in pairs order.
	replies := make([]reply[A], len(pairs))
	for _, r := range reqs {
		j := 0
		for i, p := range pairs {
			if p.node == r.node {
				replies[i] = replyOf(r.got, j, r.err)
				j++
			}
		}
	}
	return replies
}

// replyOf is item j's reply in a request that answered got or failed.
func replyOf[A answer](got []A, j int, err error) reply[A] {
	if err != nil {
		return reply[A]{err: err}
	}
	return reply[A]{ans: got[j], err: got[j].Err()}
}

// prepareSender sends phase-one requests.
type prepareSender struct {
	client   rpc.Client
	tx       string
	onePhase bool
}

func (s prepareSender) send(ctx context.Context, node transport.Addr, items []object.PrepareItem) ([]object.Vote, error) {
	resp, err := object.Server{Client: s.client, Node: node}.Prepare(ctx, object.PrepareReq{Action: s.tx, Items: items, OnePhase: s.onePhase})
	return resp.Votes, err
}

// endSender sends phase-two requests: Commit, or with abort Abort.
type endSender struct {
	client rpc.Client
	tx     string
	abort  bool
}

func (s endSender) send(ctx context.Context, node transport.Addr, items []object.EndItem) ([]object.EndResult, error) {
	srv, req := object.Server{Client: s.client, Node: node}, object.EndReq{Action: s.tx, Items: items}
	send := srv.Commit
	if s.abort {
		send = srv.Abort
	}
	resp, err := send(ctx, req)
	return resp.Results, err
}

// Prepare runs phase one — with onePhase, the combined prepare+commit round
// an action delegates to its only participant (action.OnePhaser), which a
// handle of ineligible shape (onePhaseEligible) answers with
// action.ErrOnePhaseIneligible, untouched — for the handles hs, one at least
// and all one client's, and leaves each handle's outcome at its index in
// out: each server taking part gets one PrepareReq naming every object of hs
// it takes part for, and each handle reads its own item of the reply as it
// would read a reply of its own. A transport failure fails every item of the
// request. Handles with nothing to send — released, unprobed, or answered by
// the vote their solo request carried — send nothing.
//
// Every live server of a handle copies the new object state to the
// functioning St nodes (§3.2(2)/(4)), all servers in parallel — their store
// prepares merge idempotently, so concurrent write-back is safe and the
// latency is that of the slowest server. Server failures are masked per
// policy; St failures are recorded for exclusion. A handle's phase one fails
// when no server can complete its copy.
func Prepare(ctx context.Context, tx string, hs []*Handle, onePhase bool, out []Outcome) {
	var one [1]phaseOne
	ones := one[:]
	if len(hs) > 1 {
		ones = make([]phaseOne, len(hs))
	}
	var pairBuf [1]pair[object.PrepareItem]
	pairs := pairBuf[:0]
	for k, h := range hs {
		p := &ones[k]
		if out[k].Vote, p.done, out[k].Err = h.startPhaseOne(onePhase, p); p.done || p.carried {
			continue
		}
		p.first = len(pairs)
		for _, sv := range p.targets {
			item := object.PrepareItem{UID: h.uid, StNodes: addrsToStrings(h.cfg.StNodes)}
			if onePhase {
				item.CheckpointTo = addrsToStrings(p.checkpointTo)
			}
			pairs = append(pairs, pair[object.PrepareItem]{sv, item})
		}
	}
	var buf [1]reply[object.Vote]
	replies := exchange(ctx, hs[0].cfg.Pool, prepareSender{hs[0].cfg.Client, tx, onePhase}, pairs, &buf, &lonePrepareItems)
	for k, h := range hs {
		p := &ones[k]
		switch {
		case p.done:
		case p.carried:
			out[k].Vote, out[k].Err = h.readPhaseOne(ctx, tx, onePhase, p, p.carriedReply[:])
		default:
			out[k].Vote, out[k].Err = h.readPhaseOne(ctx, tx, onePhase, p, replies[p.first:p.first+len(p.targets)])
		}
	}
}

// phaseOne is one handle's part in a grouped phase one.
type phaseOne struct {
	// done says the handle answered without a reply to read.
	done bool
	// carried says the vote a solo request carried stands in for the reply,
	// and carriedReply is it.
	carried      bool
	carriedReply [1]reply[object.Vote]
	// doubt is the one-phase doubt the phase started under (see
	// Handle.onePhaseDoubt).
	doubt        bool
	targets      []transport.Addr
	checkpointTo []transport.Addr
	// first is the index of the handle's first item among the phase's.
	first int
}

// startPhaseOne sets up the handle's phase one in p: the servers taking part
// in commit processing, or — when the handle's one solo request carried it
// (see Invoke) — the answer that request brought back, which is read as the
// reply would have been, because that is what it is. With done, the vote and
// error are the handle's answer already, and no reply is read.
func (h *Handle) startPhaseOne(onePhase bool, p *phaseOne) (vote action.Vote, done bool, err error) {
	if h.releasedOrUnprobed() {
		// A batched solo invocation already committed with its carrying
		// action and the servers have forgotten this action — or no server
		// ever heard of it.
		return action.VoteReadOnly, true, nil
	}
	h.mu.Lock()
	p.doubt = h.onePhaseDoubt
	h.mu.Unlock()
	if onePhase && p.doubt {
		// The combined round has been tried — carried by the solo request —
		// and ended in doubt; asking again could not tell "committed and
		// forgotten" from "never ran". Two-phase resolves it (see
		// readPhaseOne).
		return 0, true, action.ErrOnePhaseIneligible
	}
	if p.targets, err = h.prepareTargets(); err != nil {
		return 0, true, err
	}
	carry := object.CarryPrepare
	if onePhase {
		if !h.onePhaseEligible(len(p.targets)) {
			return 0, true, action.ErrOnePhaseIneligible
		}
		carry, p.checkpointTo = object.CarryCommit, h.cohortsOf(p.targets[0])
	}
	if vote, ok, verr := h.takeCarried(carry); ok {
		// Only a coordinator carries, and it is the one target then.
		p.carried, p.carriedReply[0] = true, reply[object.Vote]{vote, verr}
	}
	return 0, false, nil
}

// readPhaseOne reads the handle's phase-one replies, one per target, into its
// vote.
func (h *Handle) readPhaseOne(ctx context.Context, tx string, onePhase bool, p *phaseOne, replies []reply[object.Vote]) (action.Vote, error) {
	okCount, dirtyCount := 0, 0
	var firstErr error
	for i, sv := range p.targets {
		resp, err := replies[i].ans, replies[i].err
		if err == nil && !resp.Dirty && h.lostWrite() {
			h.markBroken(sv)
			err = fmt.Errorf("%s restarted under the action and lost its write", sv)
		}
		if err != nil {
			if onePhase && commitInDoubt(err) {
				// The combined round may have committed with only the reply
				// lost — or the server itself reported that its store write
				// ended in doubt (CodeCommitUncertain) — so an abort would lie.
				// Ineligible sends the coordinator to ordinary 2PC, which
				// resolves the doubt: a re-prepare finds either the
				// still-pending action (normal commit proceeds) or an
				// already-released one (the server reports it clean and the
				// store's committed TxID must confirm the commit, see below).
				// |St| = 1 here, so no store can be left inconsistent.
				h.mu.Lock()
				h.onePhaseDoubt = true
				h.mu.Unlock()
				return 0, fmt.Errorf("replica %v: one-phase outcome unknown (%v): %w", h.cfg.UID, err, action.ErrOnePhaseIneligible)
			}
			if isCrashError(err) || object.IsNotActive(err) {
				h.markBroken(sv)
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		okCount++
		if !resp.Dirty {
			// The server released the read-only action during prepare.
			continue
		}
		dirtyCount++
		// FailedNodes names stores whose copy failed and, after a one-phase
		// commit, cohorts whose checkpoint failed.
		for _, f := range resp.FailedNodes {
			h.recordFailure(transport.Addr(f))
		}
		h.mu.Lock()
		if resp.BatchSize > h.batchSize {
			h.batchSize = resp.BatchSize
		}
		if !onePhase {
			// Prepared: a phase-two target.
			h.prepared = append(h.prepared, sv)
			for _, st := range resp.PreparedNodes {
				mark(&h.preparedStores, transport.Addr(st))
			}
		}
		h.mu.Unlock()
	}
	if okCount == 0 {
		if p.doubt {
			// An ambiguous one-phase attempt preceded this fallback and no
			// server answered the re-prepare: the combined round may have
			// committed at the store before the coordinator died. Reporting
			// a plain failure here would let the caller claim a definite
			// abort over a committed write (a phantom update — a mux-
			// transport chaos seed found exactly this); surface the doubt.
			return 0, fmt.Errorf("replica %v: one-phase doubt unresolved, prepare failed everywhere: %w: %w: %w",
				h.cfg.UID, firstErr, ErrNoServers, action.ErrOutcomeUnknown)
		}
		return 0, fmt.Errorf("replica %v: prepare failed everywhere: %w: %w", h.cfg.UID, firstErr, ErrNoServers)
	}
	if dirtyCount == 0 && p.doubt && !h.onePhaseCommitVisible(ctx, tx) {
		// Every server answered "clean", but under one-phase doubt that
		// answer is trustworthy only from a server that actually released
		// this action after committing it — a server that crashed and
		// recovered in between reports clean about actions it never saw.
		// The store's committed TxID is the ground truth; when it does not
		// affirm this tx, the outcome stays unknown (claiming commit here
		// could report an update that never happened).
		return 0, fmt.Errorf("replica %v: one-phase doubt unresolved, servers report clean: %w",
			h.cfg.UID, action.ErrOutcomeUnknown)
	}
	if dirtyCount == 0 || onePhase {
		// Every server released the action, or the one server committed it:
		// there is no phase two.
		h.mu.Lock()
		h.released = true
		h.mu.Unlock()
	}
	if dirtyCount == 0 {
		return action.VoteReadOnly, nil
	}
	return action.VoteCommit, nil
}

// releasedOrUnprobed reports whether commit processing has nothing to do:
// the handle is already released, or it is bound but was never invoked —
// no server has heard of the action, so it is released here and votes
// read-only without contacting one.
func (h *Handle) releasedOrUnprobed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.unprobed {
		h.released = true
	}
	return h.released
}

// onePhaseCommitVisible reports whether the single St node's committed
// version carries tx — the affirmative evidence that an ambiguous
// one-phase round did commit. A read failure, a different TxID (which may
// merely mean a later action already committed on top), or a multi-store
// view (the one-phase shape no longer holds) all answer false: the caller
// then reports the outcome unknown rather than guessing.
func (h *Handle) onePhaseCommitVisible(ctx context.Context, tx string) bool {
	if len(h.cfg.StNodes) != 1 {
		return false
	}
	v, err := store.RemoteStore{Client: h.cfg.Client, Node: h.cfg.StNodes[0]}.Read(ctx, h.cfg.UID)
	return err == nil && v.TxID == tx
}

// onePhaseEligible is the shape rule of a one-phase Prepare, for a commit
// addressing the given number of servers: exactly one server and at most
// one St store. Any other shape falls back to ordinary 2PC untouched — a
// multi-store write-back needs the coordinator's outcome log to stay atomic
// across stores, and multiple active replicas must all prepare before any
// may commit.
func (h *Handle) onePhaseEligible(targets int) bool {
	return targets == 1 && len(h.cfg.StNodes) <= 1
}

// commitInDoubt reports whether a failed combined round may nevertheless
// have committed: its reply was lost, its caller stopped waiting, or the
// server itself could not tell (CodeCommitUncertain).
func commitInDoubt(err error) bool {
	return errors.Is(err, transport.ErrReplyLost) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		rpc.CodeOf(err) == object.CodeCommitUncertain
}

// cohortsOf lists the servers the coordinator checkpoints its committed
// state to: the other live ones under coordinator-cohort, none otherwise.
func (h *Handle) cohortsOf(coord transport.Addr) []transport.Addr {
	if h.cfg.Policy != CoordinatorCohort {
		return nil
	}
	var cohorts []transport.Addr
	for _, sv := range h.live() {
		if sv != coord {
			cohorts = append(cohorts, sv)
		}
	}
	return cohorts
}

// prepareTargets returns the servers that take part in commit processing:
// every live replica under active replication (they hold identical state
// and their store prepares merge idempotently), only the coordinator
// otherwise — cohorts and passive copies never processed anything.
func (h *Handle) prepareTargets() ([]transport.Addr, error) {
	live := h.live()
	if len(live) == 0 {
		return nil, fmt.Errorf("replica %v: %w", h.cfg.UID, ErrNoServers)
	}
	if h.cfg.Policy != Active {
		live = live[:1:1]
	}
	return live, nil
}

// Commit runs phase two for the handles hs, one at least and all one
// client's, and leaves each handle's error at its index in out: each prepared
// server gets one EndReq naming every object of hs it prepared, and each
// handle reads its own item of the reply. For coordinator-cohort the
// coordinator also checkpoints its committed state to the cohorts. A handle
// released at phase one (a read-only vote or a one-phase commit) has nothing
// left to do.
//
// A prepared server that is gone at phase two — crashed, restarted (its
// volatile instance lost), or unreachable — cannot relay the commit to
// the stores, yet the new state already sits there as stable prepared
// intentions. Commit falls back to committing those intentions directly:
// store Commit is idempotent and a no-op for unknown transactions, so the
// fallback composes safely with servers that did relay, and the committed
// update is never stranded behind a server failure. Stores the fallback
// cannot reach resolve the in-doubt intention at their own restart via
// the outcome log.
func Commit(ctx context.Context, tx string, hs []*Handle, out []Outcome) {
	var one [1]phaseTwo
	twos := one[:]
	if len(hs) > 1 {
		twos = make([]phaseTwo, len(hs))
	}
	var pairBuf [1]pair[object.EndItem]
	pairs := pairBuf[:0]
	for k, h := range hs {
		if h.releasedOrUnprobed() {
			continue
		}
		// A handle not released by phase one voted commit, so it prepared
		// at one server at least.
		h.mu.Lock()
		twos[k] = phaseTwo{servers: slices.Clone(h.prepared), first: len(pairs)}
		h.mu.Unlock()
		for i, sv := range twos[k].servers {
			item := object.EndItem{UID: h.uid}
			if i == 0 {
				item.CheckpointTo = addrsToStrings(h.cohortsOf(sv))
			}
			pairs = append(pairs, pair[object.EndItem]{sv, item})
		}
	}
	var buf [1]reply[object.EndResult]
	replies := exchange(ctx, hs[0].cfg.Pool, endSender{hs[0].cfg.Client, tx, false}, pairs, &buf, &loneEndItems)
	var wait time.Duration
	for k, h := range hs {
		t := &twos[k]
		w, err := h.readCommit(ctx, tx, t.servers, replies[t.first:t.first+len(t.servers)])
		out[k].Err = err
		wait = max(wait, w)
	}
	if wait > 0 {
		// The commit is durable, but a server never confirmed its lease
		// fence — it may have crashed with granted read leases outstanding,
		// and nobody is left to invalidate them. Wait the lease clock out
		// before acknowledging — once, for every handle that must. See
		// readCommit.
		time.Sleep(wait)
	}
}

// phaseTwo is one handle's part in a grouped phase two: the servers it
// addresses, and the index of its first item among the phase's.
type phaseTwo struct {
	servers []transport.Addr
	first   int
}

// readCommit reads the handle's phase-two replies, one per prepared server.
// It returns how long the caller must wait the lease clock out before
// acknowledging the commit, and the handle's error.
func (h *Handle) readCommit(ctx context.Context, tx string, prepared []transport.Addr, replies []reply[object.EndResult]) (time.Duration, error) {
	var firstErr error
	fenceDoubt := false
	for i := range prepared {
		if err := replies[i].err; err != nil {
			// A successful server Commit implies its lease fence ran
			// before the reply; a failed one leaves it unconfirmed. That
			// holds at a fallback coordinator too: it grants no leases, but
			// its first commit waits out the ones the view primary granted
			// before it failed, and a server that dies inside that wait
			// takes the wait with it.
			if h.cfg.LeaseTTL > 0 && h.cfg.Policy == SingleCopyPassive {
				fenceDoubt = true
			}
			if isCrashError(err) || object.IsNotActive(err) {
				h.markBroken(prepared[i])
				if h.commitStoresDirect(ctx, tx) {
					continue
				}
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// FailedNodes may name store nodes (phase-two copy failures) or
		// cohort servers (checkpoint failures); file each in its bucket.
		// A failed STORE commit gets one direct retry from here first:
		// the server's path to the store may be partitioned while the
		// client's is fine, and a store left holding the acknowledged
		// commit only as a pending intention is a chain fork waiting to
		// happen — a later action can find the store busy, exclude it
		// (the only holder of the latest state), and rebuild the same
		// version on a stale base, silently dropping this committed
		// update. Store Commit is idempotent, so retrying a relay whose
		// reply (rather than request) was lost is safe.
		for _, f := range replies[i].ans.FailedNodes {
			addr := transport.Addr(f)
			if h.isStore(addr) {
				direct := store.RemoteStore{Client: h.cfg.Client, Node: addr}
				if direct.Commit(ctx, tx) == nil {
					continue
				}
			}
			h.recordFailure(addr)
		}
	}
	if fenceDoubt {
		// The commit is durable, but the server never confirmed its lease
		// fence — it may have crashed with granted read leases outstanding,
		// and nobody is left to invalidate them. The caller waits the lease
		// clock out before acknowledging: every grant a server could have
		// issued expires by confirmedAt + 2·TTL, and confirmedAt predates
		// this commit's store durability, so sleeping 2·TTL from here
		// outlives them all. Deliberately not ctx-interruptible — cutting the
		// wait short would let a caller observe a definite commit while a
		// stale lease still serves the old state.
		return 2 * h.cfg.LeaseTTL, firstErr
	}
	return 0, firstErr
}

// isStore reports whether addr is one of the handle's St nodes.
func (h *Handle) isStore(addr transport.Addr) bool {
	for _, st := range h.cfg.StNodes {
		if st == addr {
			return true
		}
	}
	return false
}

// commitStoresDirect commits tx's prepared intentions at every St node,
// bypassing a gone server. It reports whether every store acknowledged;
// stores that could not be reached are recorded as failed (for Exclude)
// and will resolve the intention at restart via the outcome log.
func (h *Handle) commitStoresDirect(ctx context.Context, tx string) bool {
	errs := h.cfg.Pool.DoErr(len(h.cfg.StNodes), func(i int) error {
		return store.RemoteStore{Client: h.cfg.Client, Node: h.cfg.StNodes[i]}.Commit(ctx, tx)
	})
	ok := true
	for i, err := range errs {
		if err != nil {
			ok = false
			h.recordFailure(h.cfg.StNodes[i])
		}
	}
	return ok
}

// recordFailure classifies a failed node as a broken server binding or a
// failed store, based on which set it belongs to.
func (h *Handle) recordFailure(addr transport.Addr) {
	for _, sv := range h.cfg.Servers {
		if sv == addr {
			h.markBroken(addr)
			return
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	mark(&h.failedStores, addr)
}

// Abort rolls back the handles hs, one at least and all one client's, and
// leaves each handle's error at its index in out: each live server gets one
// EndReq naming every object of hs bound there, and each handle reads its own
// items of the replies. A handle already released (read-only vote) sends nothing —
// the servers forgot the action when they released it. A server found gone
// is no error: it holds nothing of the action's any more.
func Abort(ctx context.Context, tx string, hs []*Handle, out []Outcome) {
	var one [1]phaseTwo
	twos := one[:]
	if len(hs) > 1 {
		twos = make([]phaseTwo, len(hs))
	}
	var pairBuf [1]pair[object.EndItem]
	pairs := pairBuf[:0]
	for k, h := range hs {
		if h.releasedOrUnprobed() {
			continue
		}
		twos[k] = phaseTwo{servers: h.live(), first: len(pairs)}
		for _, sv := range twos[k].servers {
			pairs = append(pairs, pair[object.EndItem]{sv, object.EndItem{UID: h.uid}})
		}
	}
	var buf [1]reply[object.EndResult]
	replies := exchange(ctx, hs[0].cfg.Pool, endSender{hs[0].cfg.Client, tx, true}, pairs, &buf, &loneEndItems)
	for k := range hs {
		t := &twos[k]
		for _, r := range replies[t.first : t.first+len(t.servers)] {
			if r.err != nil && !isCrashError(r.err) && !object.IsNotActive(r.err) {
				out[k].Err = r.err
				break
			}
		}
	}
}

// addrsToStrings renders nodes as requests carry them.
func addrsToStrings(nodes []transport.Addr) []string {
	if len(nodes) == 0 {
		return nil
	}
	out := make([]string, len(nodes))
	for i, a := range nodes {
		out[i] = string(a)
	}
	return out
}

// isCrashError reports whether err indicates the callee is gone rather
// than an application-level refusal.
func isCrashError(err error) bool {
	return errors.Is(err, transport.ErrUnreachable) ||
		errors.Is(err, transport.ErrRequestLost) ||
		errors.Is(err, transport.ErrReplyLost) ||
		errors.Is(err, context.DeadlineExceeded)
}
