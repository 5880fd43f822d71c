package lease

import (
	"context"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/uid"
)

// TestPutPrunesExpiredEntries pins the amortized sweep: an expired lease
// for an object that is never read again must still be evicted by a Put
// for a DIFFERENT object — Get only prunes the entry it was asked for,
// so without the sweep the shared L2 would retain such entries (their
// state bytes) for the node's lifetime.
func TestPutPrunesExpiredEntries(t *testing.T) {
	cluster := sim.NewCluster(transport.MemOptions{})
	n := cluster.Add("n1")
	c := NewCache(group.NewHost(n.Server(), n.Client()), &metrics.Registry{})

	gen := uid.NewGenerator("t", 1)
	doomed := gen.New()
	c.Put(Snapshot{UID: doomed, Seq: 1, Expiry: time.Now().Add(30 * time.Millisecond)})
	time.Sleep(60 * time.Millisecond)

	// The map is far below pruneSample entries, so this single Put's
	// sweep inspects everything, expired entry included.
	live := gen.New()
	c.Put(Snapshot{UID: live, Seq: 1, Expiry: time.Now().Add(time.Minute)})

	c.mu.Lock()
	_, retained := c.entries[doomed]
	total := len(c.entries)
	c.mu.Unlock()
	if retained {
		t.Fatal("expired entry survived an unrelated Put; the L2 would grow without bound")
	}
	if total != 1 {
		t.Fatalf("cache holds %d entries, want 1 (the live one)", total)
	}
}

// mailboxWorld is a holder node with a lease cache and a second node that
// sends it invalidations as a committing server's fence does.
type mailboxWorld struct {
	cache     *Cache
	committer *sim.Node
}

func newMailboxWorld(t *testing.T) *mailboxWorld {
	t.Helper()
	cluster := sim.NewCluster(transport.MemOptions{})
	holder := cluster.Add("holder")
	return &mailboxWorld{
		cache:     NewCache(group.NewHost(holder.Server(), holder.Client()), &metrics.Registry{}),
		committer: cluster.Add("committer"),
	}
}

// inval sends the holder's Mailbox one Inval for (id, seq) and fails the
// test unless the holder answered without error.
func (w *mailboxWorld) inval(t *testing.T, id uid.UID, seq uint64) {
	t.Helper()
	payload, err := EncodeInval(&Inval{UID: id.String(), Seq: seq})
	if err != nil {
		t.Fatal(err)
	}
	res := group.NaiveMulticast(context.Background(), w.committer.Client(),
		group.Group{ID: Mailbox, Members: []transport.Addr{"holder"}}, KindInval, payload)
	if len(res.Failed) != 0 || len(res.Replies) != 1 || res.Replies[0].Err != "" {
		t.Fatalf("invalidation of %v at %d: failed %v, replies %+v", id, seq, res.Failed, res.Replies)
	}
}

func leaseAt(id uid.UID, seq uint64) Snapshot {
	return Snapshot{UID: id, Seq: seq, Expiry: time.Now().Add(time.Minute)}
}

// TestMailboxKillsLeaseAtVersion: an Inval at version s kills the node's
// lease at s, in the shared L2 and through an L1 that already holds the
// entry's pointer.
func TestMailboxKillsLeaseAtVersion(t *testing.T) {
	w := newMailboxWorld(t)
	gen := uid.NewGenerator("t", 1)

	l2, viaL1 := gen.New(), gen.New()
	w.cache.Put(leaseAt(l2, 7))
	local := NewLocal(w.cache, 0)
	e := local.Put(leaseAt(viaL1, 7))
	if _, ok := local.Get(viaL1, time.Now()); !ok {
		t.Fatal("L1 does not serve the lease it was just granted")
	}

	w.inval(t, l2, 7)
	w.inval(t, viaL1, 7)
	if _, ok := w.cache.Get(l2, time.Now()); ok {
		t.Fatal("L2 still serves a lease at the version its invalidation named")
	}
	if _, ok := local.Get(viaL1, time.Now()); ok || e.Valid(time.Now()) {
		t.Fatal("L1 still serves a lease at the version its invalidation named")
	}
}

// TestMailboxSparesNewerLease: an Inval at s leaves a lease granted at s+1
// serving — a late invalidation of the version a newer grant replaced.
func TestMailboxSparesNewerLease(t *testing.T) {
	w := newMailboxWorld(t)
	id := uid.NewGenerator("t", 1).New()
	w.cache.Put(leaseAt(id, 8))
	w.inval(t, id, 7)
	if _, ok := w.cache.Get(id, time.Now()); !ok {
		t.Fatal("an invalidation of version 7 killed the lease at 8")
	}
}

// TestMailboxKillsRegrantAtSameVersion: a second grant at the same version
// replaces the first entry, and an Inval at that version kills the
// replacement too.
func TestMailboxKillsRegrantAtSameVersion(t *testing.T) {
	w := newMailboxWorld(t)
	id := uid.NewGenerator("t", 1).New()
	first := w.cache.Put(leaseAt(id, 7))
	second := w.cache.Put(leaseAt(id, 7))
	if first.Valid(time.Now()) {
		t.Fatal("a re-grant left the superseded entry serving")
	}
	w.inval(t, id, 7)
	if _, ok := w.cache.Get(id, time.Now()); ok || second.Valid(time.Now()) {
		t.Fatal("the re-granted lease survived the invalidation of its version")
	}
}

// TestMailboxAnswersWhenHoldingNothing: a node that holds no lease of the
// object answers the Inval without error — the committing server's fence
// reads that as a confirmation, not a failure to wait out.
func TestMailboxAnswersWhenHoldingNothing(t *testing.T) {
	w := newMailboxWorld(t)
	gen := uid.NewGenerator("t", 1)
	other := gen.New()
	w.cache.Put(leaseAt(other, 3))
	w.inval(t, gen.New(), 7)
	if _, ok := w.cache.Get(other, time.Now()); !ok {
		t.Fatal("an invalidation of one object killed another's lease")
	}
}
