package arjuna

// In-package test: it reaches into the client's lease cache to
// re-install a superseded snapshot, standing in for an invalidation
// record still in flight toward the holder.

import (
	"context"
	"testing"
	"time"
)

// TestMixedTxnRejectsStaleLeasedRead pins the commit-time revalidation
// of leased reads in transactions that also do server-side work. The
// hazard is write skew: T1 lease-reads X and writes Y; a concurrent T2
// that read Y and advanced X can release T1's Y-lock wait (read-only
// voters release at phase one) while T2's invalidation of X is still in
// flight, so T1's snapshot of X looks locally valid all the way through
// its own commit. Revalidation upgrades the leased read to a locked
// server read, which must observe the new version and abort the attempt.
func TestMixedTxnRejectsStaleLeasedRead(t *testing.T) {
	sys, err := Open(
		WithServers(2), WithStores(2), WithObjects(2),
		WithReadLeases(500*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	cl, err := sys.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	objX, objY := sys.Objects()[0], sys.Objects()[1]

	if _, _, err := cl.Apply(ctx, objX, "add", []byte("7")); err != nil {
		t.Fatalf("seed X: %v", err)
	}
	// Warm the lease on X: the server read harvests a grant.
	if _, err := cl.Atomic(ctx, func(tx *Txn) error {
		_, rerr := tx.Object(objX).Read(ctx, "get", nil)
		return rerr
	}); err != nil {
		t.Fatalf("warm read: %v", err)
	}
	e, ok := cl.leases.Get(objX, time.Now())
	if !ok {
		t.Fatal("no lease cached after warm read")
	}
	stale := e.Snap

	// T2 advances X to 12; its commit invalidates the cached lease.
	if _, _, err := cl.Apply(ctx, objX, "add", []byte("5")); err != nil {
		t.Fatalf("advance X: %v", err)
	}
	// Reopen the race window: re-install the superseded snapshot, as if
	// T2's invalidation multicast had not reached this holder yet. Its
	// expiry is pushed far past the end of the test so ONLY revalidation
	// — never expiry — can explain the stale snapshot not committing.
	stale.Expiry = time.Now().Add(30 * time.Second)
	cl.leases.Put(stale)

	// T1 is the mixed transaction: lease-read X, write X's value into Y.
	// Without revalidation it would commit Y=7 against X=12 — the
	// non-serializable outcome.
	rep, err := cl.Atomic(ctx, func(tx *Txn) error {
		v, rerr := tx.Object(objX).Read(ctx, "get", nil)
		if rerr != nil {
			return rerr
		}
		_, rerr = tx.Object(objY).Invoke(ctx, "add", v)
		return rerr
	})
	if err != nil {
		t.Fatalf("mixed txn: %v", err)
	}
	if rep.Attempts < 2 {
		t.Fatalf("mixed txn committed on attempt %d; the stale leased read was never revalidated", rep.Attempts)
	}
	state, _, err := sys.CommittedState(objY)
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != "12" {
		t.Fatalf("Y = %q after mixed txn; want 12 (7 means the stale snapshot committed)", state)
	}
}

// TestPureLeaseReadSkipsRevalidation keeps the flip side honest: a
// transaction that ONLY lease-reads one object must not be dragged onto the
// server path by revalidation — each read was individually valid when served,
// which is the lease guarantee, and the zero-RPC property is the whole
// point of the cache. Objects are pre-seeded, so no commit (and no
// first-commit grace wait) is needed anywhere in the test.
func TestPureLeaseReadSkipsRevalidation(t *testing.T) {
	sys, err := Open(
		WithServers(2), WithStores(2),
		WithReadLeases(30*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	cl, err := sys.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	obj := sys.Objects()[0]
	read := func() *CommitReport {
		rep, err := cl.Atomic(ctx, func(tx *Txn) error {
			_, rerr := tx.Object(obj).Read(ctx, "get", nil)
			return rerr
		})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return rep
	}
	read() // harvest the grant
	// The harvest's action-end waits in the binder for a carrier; it is no
	// RPC of the read below.
	if err := sys.World().FlushEnds(ctx); err != nil {
		t.Fatal(err)
	}
	before := totalCalls(sys)
	if rep := read(); rep.LeaseReads != 1 || rep.Attempts != 1 {
		t.Fatalf("pure lease read: LeaseReads=%d Attempts=%d; want 1, 1", rep.LeaseReads, rep.Attempts)
	}
	if after := totalCalls(sys); after != before {
		t.Fatalf("pure lease-read txn issued %d RPCs; revalidation must not touch it", after-before)
	}
}

func totalCalls(sys *System) int64 {
	var n int64
	for _, s := range sys.Stats() {
		n += s.Calls
	}
	return n
}
