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
	stats     *metrics.Registry
	committer *sim.Node
}

func newMailboxWorld(t *testing.T) *mailboxWorld {
	t.Helper()
	cluster := sim.NewCluster(transport.MemOptions{})
	holder := cluster.Add("holder")
	stats := &metrics.Registry{}
	return &mailboxWorld{
		cache:     NewCache(group.NewHost(holder.Server(), holder.Client()), stats),
		stats:     stats,
		committer: cluster.Add("committer"),
	}
}

// send delivers inv to the holder's Mailbox, fails the test unless the
// holder answered without error, and returns the answer.
func (w *mailboxWorld) send(t *testing.T, inv Inval) []byte {
	t.Helper()
	payload, err := EncodeInval(&inv)
	if err != nil {
		t.Fatal(err)
	}
	res := group.NaiveMulticast(context.Background(), w.committer.Client(),
		group.Group{ID: Mailbox, Members: []transport.Addr{"holder"}}, KindInval, payload)
	if len(res.Failed) != 0 || len(res.Replies) != 1 || res.Replies[0].Err != "" {
		t.Fatalf("%+v: failed %v, replies %+v", inv, res.Failed, res.Replies)
	}
	return res.Replies[0].Payload
}

// inval sends the holder's Mailbox one kill-only Inval for (id, seq).
func (w *mailboxWorld) inval(t *testing.T, id uid.UID, seq uint64) {
	t.Helper()
	if answer := w.send(t, Inval{UID: id.String(), Seq: seq}); answer != nil {
		t.Fatalf("a kill-only invalidation was answered %v", answer)
	}
}

// update sends the holder's Mailbox one updating Inval moving (id, seq) to
// newSeq with state, and reports whether the holder answered Kept.
func (w *mailboxWorld) update(t *testing.T, id uid.UID, seq, newSeq uint64, state string) bool {
	t.Helper()
	return Kept(w.send(t, Inval{UID: id.String(), Seq: seq, NewSeq: newSeq, State: []byte(state)}))
}

func (w *mailboxWorld) updated() int64 { return w.stats.Counter("lease.updated").Value() }

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

// TestMailboxUpdateKeepsExpiry: an updating Inval swaps the live lease at
// the replaced version for one at the new version, with the new state and
// the OLD expiry — an update never extends a lease — and answers Kept. An
// L1 holding the old entry's pointer finds it dead and reads the new one
// through the shared L2.
func TestMailboxUpdateKeepsExpiry(t *testing.T) {
	w := newMailboxWorld(t)
	id := uid.NewGenerator("t", 1).New()
	local := NewLocal(w.cache, 0)
	snap := leaseAt(id, 7)
	snap.Class, snap.State = "counter", []byte("7")
	old := local.Put(snap)

	if !w.update(t, id, 7, 8, "8") {
		t.Fatal("the holder of a live lease at the replaced version did not answer Kept")
	}
	if old.Valid(time.Now()) {
		t.Fatal("the entry at the replaced version still serves")
	}
	e, ok := local.Get(id, time.Now())
	if !ok {
		t.Fatal("no lease serves after the update")
	}
	if e.Snap.Seq != 8 || string(e.Snap.State) != "8" || e.Snap.Class != "counter" || !e.Snap.Expiry.Equal(snap.Expiry) {
		t.Fatalf("updated lease %+v, want seq 8, state 8, class counter, expiry %v", e.Snap, snap.Expiry)
	}
	if w.updated() != 1 {
		t.Fatalf("lease.updated = %d, want 1", w.updated())
	}
}

// TestMailboxUpdateNeverRevives: an update finds an expired lease, or one
// killed locally, and brings neither back: the holder answers not kept and
// serves nothing.
func TestMailboxUpdateNeverRevives(t *testing.T) {
	w := newMailboxWorld(t)
	gen := uid.NewGenerator("t", 1)

	expired := gen.New()
	w.cache.Put(Snapshot{UID: expired, Seq: 7, Expiry: time.Now().Add(30 * time.Millisecond)})
	killed := gen.New()
	w.cache.Put(leaseAt(killed, 7)).Kill()
	time.Sleep(60 * time.Millisecond)

	for name, id := range map[string]uid.UID{"expired": expired, "killed": killed} {
		if w.update(t, id, 7, 8, "8") {
			t.Errorf("%s lease: the holder answered Kept", name)
		}
		if _, ok := w.cache.Get(id, time.Now()); ok {
			t.Errorf("%s lease: an update revived it", name)
		}
	}
	if w.updated() != 0 {
		t.Fatalf("lease.updated = %d, want 0", w.updated())
	}
}

// TestMailboxUpdateSparesNewerLease: an update of version 7 leaves a lease
// granted at 9 as it was, and answers not kept: the lease left is not at
// the update's version.
func TestMailboxUpdateSparesNewerLease(t *testing.T) {
	w := newMailboxWorld(t)
	id := uid.NewGenerator("t", 1).New()
	snap := leaseAt(id, 9)
	snap.State = []byte("9")
	w.cache.Put(snap)
	if w.update(t, id, 7, 8, "8") {
		t.Fatal("an update of version 7 was answered Kept by a lease at 9")
	}
	if e, ok := w.cache.Get(id, time.Now()); !ok || e.Snap.Seq != 9 || string(e.Snap.State) != "9" {
		t.Fatal("an update of version 7 touched the lease at 9")
	}
}

// TestMailboxUpdateNotKeptWhenHoldingNothing: a node with no lease of the
// object answers an update without error and not kept, and the update
// grants it nothing.
func TestMailboxUpdateNotKeptWhenHoldingNothing(t *testing.T) {
	w := newMailboxWorld(t)
	id := uid.NewGenerator("t", 1).New()
	if w.update(t, id, 7, 8, "8") {
		t.Fatal("a node holding nothing answered Kept")
	}
	if _, ok := w.cache.Get(id, time.Now()); ok {
		t.Fatal("an update installed a lease at a node that held none")
	}
}

// TestMailboxUpdateDuplicated: a repeat of an update already applied finds
// the lease at the new version, changes nothing and answers Kept again, so
// whichever copy the committing server hears from, it reads the same.
func TestMailboxUpdateDuplicated(t *testing.T) {
	w := newMailboxWorld(t)
	id := uid.NewGenerator("t", 1).New()
	w.cache.Put(leaseAt(id, 7))
	if !w.update(t, id, 7, 8, "8") {
		t.Fatal("the first update was not answered Kept")
	}
	first, _ := w.cache.Get(id, time.Now())
	if !w.update(t, id, 7, 8, "8") {
		t.Fatal("the repeated update was not answered Kept")
	}
	if again, ok := w.cache.Get(id, time.Now()); !ok || again != first {
		t.Fatal("the repeated update replaced or killed the lease the first one made")
	}
	if w.updated() != 1 {
		t.Fatalf("lease.updated = %d, want 1", w.updated())
	}
}
