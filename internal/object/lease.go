package object

import (
	"context"
	"slices"
	"strings"
	"time"

	"repro/internal/group"
	"repro/internal/lease"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// LeaseGrant is a leased read snapshot piggybacked on an InvokeResp:
// the holder may serve read-only methods from State locally until the
// lease expires (TTL after the request was sent) or an invalidation
// record arrives in its node's lease mailbox. See internal/lease for the
// holder side.
type LeaseGrant struct {
	// Class names the object's type, so the holder can run its
	// read-only methods without a bind.
	Class string
	// State is the committed object state at version Seq.
	State []byte
	Seq   uint64
	// TTL is the lease duration, anchored at the holder's send instant.
	TTL time.Duration
}

// EnableLeases makes this node's object servers grant read leases with
// the given TTL and enforce the matching commit-time fence: a commit
// that advances an object's version is not acknowledged until every
// lease at the old version is provably dead — eagerly invalidated
// through its holder's mailbox, or waited out. Call during deployment
// setup, before traffic. A zero TTL leaves leasing disabled.
func (m *Manager) EnableLeases(ttl time.Duration) { m.leaseTTL = ttl }

// maybeGrant issues a read lease to holder for in's current state, or
// returns nil when the copy cannot be vouched for. Called with the
// invoking action holding the object's read lock, which excludes any
// concurrent version advance.
//
// Fence: this server may only vouch that its copy is the latest
// committed version if it has confirmed that against the stores within
// the last TTL — via a majority-acknowledged write-back of its own, or
// via the probe below. The window arithmetic is what makes a foreign
// committer's wait sound: every grant's expiry is bounded by
// confirmedAt + 2*TTL, and any commit elsewhere refutes this server's
// next confirmation, so confirmedAt < commit time and a committer that
// waits 2*TTL after its store write outlives every lease this server
// could have granted.
func (m *Manager) maybeGrant(ctx context.Context, in *instance, holder transport.Addr) *LeaseGrant {
	now := time.Now()
	in.mu.Lock()
	if in.writing() {
		// Uncommitted writes in memory (necessarily the invoking
		// action's own: any other writer's lock would have excluded
		// this read) — the state is not a committed snapshot.
		in.mu.Unlock()
		return nil
	}
	seq := in.seq
	confirmed := in.confirmedAt
	stNodes := in.stNodes
	in.mu.Unlock()

	if now.After(confirmed.Add(m.leaseTTL)) {
		t0 := time.Now()
		if !m.probeLatest(ctx, in.id, seq, stNodes) {
			m.stats.Counter("lease.fence").Inc()
			return nil
		}
		in.mu.Lock()
		if t0.After(in.confirmedAt) {
			in.confirmedAt = t0
		}
		in.mu.Unlock()
	}

	in.mu.Lock()
	defer in.mu.Unlock()
	if in.seq != seq || in.writing() {
		return nil
	}
	in.leaseSeq = seq
	in.leaseHolders[holder] = time.Now().Add(m.leaseTTL)
	m.stats.Counter("lease.grants").Inc()
	return &LeaseGrant{
		Class: in.class.Name,
		State: append([]byte(nil), in.state...),
		Seq:   seq,
		TTL:   m.leaseTTL,
	}
}

// markConfirmed records that at t0 this server's copy at seq was
// acknowledged latest by a majority of its activation-time St view.
// Called after a successful majority store prepare of the server's own
// write-back (the write-back's acceptance proves the base version was
// current at every accepting store).
func (in *instance) markConfirmed(t0 time.Time, acked, total int) {
	if total == 0 || acked < total/2+1 {
		return
	}
	in.mu.Lock()
	if t0.After(in.confirmedAt) {
		in.confirmedAt = t0
	}
	in.mu.Unlock()
}

// probeLatest confirms, against the activation-time St view, that seq
// is still the object's latest committed version: a majority must
// respond and every response must carry exactly seq. Sound whenever
// the stores carrying the latest version are reachable — any
// acknowledged newer commit prepared at at least one St member, and a
// response with a newer seq (or a majority that cannot be assembled)
// refuses the grant. If every store carrying a newer version is
// unreachable while a stale majority responds, the probe can pass
// spuriously; that needs store faults overlapping a view exclusion,
// outside the fault model leases are specified for (see the package
// doc in pkg/arjuna).
func (m *Manager) probeLatest(ctx context.Context, id uid.UID, seq uint64, stNodes []string) bool {
	if len(stNodes) == 0 {
		return false
	}
	seqs := make([]uint64, len(stNodes))
	oks := make([]bool, len(stNodes))
	m.pool.Do(len(stNodes), func(i int) {
		remote := store.RemoteStore{Client: m.node.Client(), Node: transport.Addr(stNodes[i])}
		v, err := remote.Read(ctx, id)
		if err != nil {
			return
		}
		seqs[i], oks[i] = v.Seq, true
	})
	responded := 0
	for i := range stNodes {
		if !oks[i] {
			continue
		}
		if seqs[i] != seq {
			return false
		}
		responded++
	}
	return responded >= len(stNodes)/2+1
}

// leaseCommitFence runs the lease side of a version advance that
// became durable at the stores at tc: no acknowledgement may leave
// this server until every read lease at the old version is provably
// dead. Known holders are invalidated (invalidateHolders); if any holder
// cannot confirm, the commit waits out the lease clock instead (tc +
// 2*TTL bounds every grant's expiry — see maybeGrant). withGrace
// additionally enforces the first-commit grace: until this instance has
// advanced the version once, leases granted by a prior incarnation of
// the object's server may still be live, so the first advance always
// waits out the clock. Returns an error only when ctx dies mid-fence —
// the commit itself already stands, so the caller must report
// ambiguity, not refusal.
func (m *Manager) leaseCommitFence(ctx context.Context, in *instance, tc time.Time, withGrace bool) error {
	if m.leaseTTL == 0 {
		return nil
	}
	window := 2 * m.leaseTTL
	var deadline time.Time
	if withGrace {
		in.mu.Lock()
		if in.graceUntil.IsZero() {
			in.graceUntil = tc.Add(window)
		}
		deadline = in.graceUntil
		in.mu.Unlock()
	}
	if _, ok := m.invalidateHolders(ctx, in); !ok {
		if d := tc.Add(window); d.After(deadline) {
			deadline = d
		}
	}
	return m.leaseWait(ctx, in, deadline)
}

// leasePassivateFence invalidates every outstanding lease before the
// instance is destroyed — without this, a moved or passivated object's
// holders would keep serving until expiry with no committer left to
// fence them (the placement.Move stale-lease hazard). Unconfirmed
// holders are waited out only to their recorded expiries: this
// instance was the sole granter of the leases it knows about, and
// foreign ones are the next activation's first-commit grace to cover.
func (m *Manager) leasePassivateFence(ctx context.Context, in *instance) error {
	if m.leaseTTL == 0 {
		return nil
	}
	if last, ok := m.invalidateHolders(ctx, in); !ok {
		return m.leaseWait(ctx, in, last)
	}
	return nil
}

// leaseWait sleeps until deadline, surfacing an ambiguity error if ctx
// dies first (the fence was not completed, so the caller must not
// acknowledge success).
func (m *Manager) leaseWait(ctx context.Context, in *instance, deadline time.Time) error {
	wait := time.Until(deadline)
	if wait <= 0 {
		return nil
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return rpc.Errorf(CodeCommitUncertain,
			"object %s: outcome durable but lease fence interrupted: %v", in.id, ctx.Err())
	}
}

// invalidateHolders forgets the instance's lease holders and sends each
// whose lease is still live one Inval record naming the version they were
// granted, to its node's lease Mailbox, directly and one after another.
// It reports the last of those leases' expiries, and whether EVERY such
// holder provably discarded its lease (true when there was none to ask):
// the mailbox answers cleanly whether or not it held one, and a node with
// no mailbox (not-found) holds no lease either. A holder that cannot be
// reached, or any other error, is unconfirmed, and the caller waits the
// lease clock out.
//
// A clean answer proves nothing about a grant still on its way to the
// holder: the mailbox was joined before any entry could be servable
// (lease.NewCache), but a holder that has not yet run Put for this
// grant answers cleanly and then installs a lease at the old version.
// Safety there rests on lock order: this fence runs while the committing
// action still holds the object's write lock, strict 2PL keeps that lock
// out of a reader's hands until the reader's action ended (its harvest,
// and hence its Put, has run), and the force-passivate/crash paths are
// covered by the first-commit grace window instead. A change to
// lock-break or abort semantics must revisit this branch. It is also why
// a request that carries its action's phase one is never granted a lease,
// whatever holder it names (invokeOn; the client sends none on a solo
// call, and a ClientReadOnly client with a lease cache sends plain
// invokes): a carried read-only vote releases the read lock in the
// request that would have made the grant, while the grant is still on its
// way to a holder that has installed nothing — a writer could then take
// the lock, fence, hear a clean answer from every mailbox, and commit
// under a lease about to become servable.
func (m *Manager) invalidateHolders(ctx context.Context, in *instance) (last time.Time, ok bool) {
	now := time.Now()
	var members []transport.Addr
	in.mu.Lock()
	seq := in.leaseSeq
	for addr, exp := range in.leaseHolders {
		if exp.After(now) {
			members = append(members, addr)
			if exp.After(last) {
				last = exp
			}
		}
	}
	clear(in.leaseHolders)
	in.mu.Unlock()
	if len(members) == 0 {
		return last, true
	}
	slices.Sort(members)
	payload, err := lease.EncodeInval(&lease.Inval{UID: in.id.String(), Seq: seq})
	if ok = err == nil; ok {
		res := group.NaiveMulticast(ctx, m.node.Client(), group.Group{ID: lease.Mailbox, Members: members},
			lease.KindInval, payload)
		ok = len(res.Failed) == 0 && !slices.ContainsFunc(res.Replies, func(r group.Reply) bool {
			return r.Err != "" && !strings.HasPrefix(r.Err, rpc.CodeNotFound+":")
		})
	}
	if ok {
		m.stats.Counter("lease.invalidations").Inc()
	} else {
		m.stats.Counter("lease.waitouts").Inc()
	}
	return last, ok
}
