package arjuna_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/transport"
	"repro/pkg/arjuna"
)

func totalRPCs(sys *arjuna.System) int64 {
	var n int64
	for _, s := range sys.Stats() {
		n += s.Calls
	}
	return n
}

// TestReadLeaseZeroRPC drives the facade's whole lease loop and pins the
// headline property: a lease-valid read-only Atomic completes with ZERO
// RPCs (asserted against the deployment-wide rpc call counters), and a
// committed write invalidates the cache before the writer sees its
// commit acknowledged.
func TestReadLeaseZeroRPC(t *testing.T) {
	sys, err := arjuna.Open(
		arjuna.WithServers(2), arjuna.WithStores(3),
		arjuna.WithReadLeases(500*time.Millisecond),
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

	if _, _, err := cl.Apply(ctx, obj, "add", []byte("7")); err != nil {
		t.Fatalf("add: %v", err)
	}

	read := func() ([]byte, *arjuna.CommitReport) {
		var out []byte
		rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			var rerr error
			out, rerr = tx.Object(obj).Read(ctx, "get", nil)
			return rerr
		})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return out, rep
	}

	// First read misses the cache, goes to the server, harvests a grant.
	out, rep := read()
	if string(out) != "7" || rep.LeaseReads != 0 {
		t.Fatalf("first read = %q, LeaseReads=%d; want 7, 0", out, rep.LeaseReads)
	}

	// Second read must be a pure cache hit: zero RPCs anywhere in the
	// deployment.
	before := totalRPCs(sys)
	out, rep = read()
	if string(out) != "7" || rep.LeaseReads != 1 {
		t.Fatalf("second read = %q, LeaseReads=%d; want 7, 1", out, rep.LeaseReads)
	}
	if after := totalRPCs(sys); after != before {
		t.Fatalf("leased read issued %d RPCs, want 0", after-before)
	}
	ls := sys.LeaseStats()
	if ls.Grants == 0 || ls.L1Hits == 0 {
		t.Fatalf("lease stats %+v: want non-zero Grants and L1Hits", ls)
	}

	// A committed write invalidates the holder before it is acknowledged,
	// so the very next read sees the new value.
	if _, _, err := cl.Apply(ctx, obj, "add", []byte("3")); err != nil {
		t.Fatalf("second add: %v", err)
	}
	out, _ = read()
	if string(out) != "10" {
		t.Fatalf("read after write = %q, want 10", out)
	}
	if ls := sys.LeaseStats(); ls.Invalidations == 0 || ls.Invalidated == 0 {
		t.Fatalf("lease stats %+v: the commit's invalidation never reached the holder's cache", ls)
	}
}

// TestRebalanceFencesPreMoveLeases pins the move-time lease fence. The
// TTL is far longer than the test, so if the next read after a
// Rebalance is not lease-served, only the fence — never expiry — can
// explain it: without the fence, a commit on the target shard could
// never reach the source-granted holder (each server invalidates only
// the holders it granted), and the stale snapshot would keep serving
// for the rest of its 30s lease.
func TestRebalanceFencesPreMoveLeases(t *testing.T) {
	sys := openT(t,
		arjuna.WithShards(2), arjuna.WithServers(1), arjuna.WithStores(1),
		arjuna.WithReadLeases(30*time.Second))
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	read := func() (string, *arjuna.CommitReport) {
		var out []byte
		rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			var rerr error
			out, rerr = tx.Object(obj).Read(ctx, "get", nil)
			return rerr
		})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return string(out), rep
	}

	// Objects are pre-seeded at seq 1, so the first read grants a lease
	// without any commit (and hence without the first-commit grace).
	read()
	if out, rep := read(); out != "0" || rep.LeaseReads != 1 {
		t.Fatalf("pre-move read = %q, LeaseReads=%d; want lease-served 0", out, rep.LeaseReads)
	}

	invalBefore := sys.LeaseStats().Invalidated
	src := sys.ShardOf(obj)
	if err := sys.Rebalance(ctx, obj, src%2+1); err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	// The pre-move lease has ~30s of TTL left, yet it must never serve
	// another read: the move passivated the source instance, which
	// invalidated the holder over the multicast.
	out, rep := read()
	if rep.LeaseReads != 0 {
		t.Fatalf("stale pre-move lease served a read after rebalance (value %q)", out)
	}
	if out != "0" {
		t.Fatalf("post-move read = %q, want 0", out)
	}
	if sys.LeaseStats().Invalidated == invalBefore {
		t.Fatal("move did not invalidate the pre-move lease holder")
	}

	// Leasing itself survives the move: that server-path read harvested a
	// fresh grant from the target shard, so the next read is served from
	// cache again.
	if out, rep := read(); out != "0" || rep.LeaseReads != 1 {
		t.Fatalf("post-move leased read = %q, LeaseReads=%d; want lease-served 0", out, rep.LeaseReads)
	}
}

// TestRebalanceThenCommitOnNewShard is the end-to-end flow of the same
// hazard with a realistic TTL: lease, move, commit on the new shard,
// read — the read must observe the new-shard commit, never the cached
// pre-move snapshot.
func TestRebalanceThenCommitOnNewShard(t *testing.T) {
	sys := openT(t,
		arjuna.WithShards(2), arjuna.WithServers(1), arjuna.WithStores(1),
		arjuna.WithReadLeases(150*time.Millisecond))
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	read := func() (string, *arjuna.CommitReport) {
		var out []byte
		rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			var rerr error
			out, rerr = tx.Object(obj).Read(ctx, "get", nil)
			return rerr
		})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return string(out), rep
	}

	read() // grant a lease on the source shard
	src := sys.ShardOf(obj)
	if err := sys.Rebalance(ctx, obj, src%2+1); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if _, _, err := cl.Apply(ctx, obj, "add", []byte("7")); err != nil {
		t.Fatalf("add on new shard: %v", err)
	}
	out, rep := read()
	if out != "7" {
		t.Fatalf("read after new-shard commit = %q, want 7 (LeaseReads=%d)", out, rep.LeaseReads)
	}
}

// TestReadLeaseSecondClientSharesL2 checks the tier split: a second
// client on the same node misses its own L1 but hits the node's shared
// L2 for a lease the first client harvested.
func TestReadLeaseSecondClientSharesL2(t *testing.T) {
	sys, err := arjuna.Open(
		arjuna.WithServers(2), arjuna.WithStores(2),
		arjuna.WithReadLeases(500*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	obj := sys.Objects()[0]
	cl1, err := sys.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	cl2, err := sys.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	read := func(cl *arjuna.Client) *arjuna.CommitReport {
		rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, rerr := tx.Object(obj).Read(ctx, "get", nil)
			return rerr
		})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return rep
	}
	read(cl1) // miss + grant
	l2Before := sys.LeaseStats().L2Hits
	if rep := read(cl2); rep.LeaseReads != 1 {
		t.Fatalf("second client's read not lease-served (LeaseReads=%d)", rep.LeaseReads)
	}
	if sys.LeaseStats().L2Hits == l2Before {
		t.Fatal("second client's read did not hit the shared L2")
	}
}

// TestLeaseFenceSendsOneFrame: the fence of a commit to an object that one
// node holds a lease on is one DeliverBatch frame, straight to that node's
// lease mailbox — no Sequence call, no relay — and the lease is dead when
// the writer's commit returns.
func TestLeaseFenceSendsOneFrame(t *testing.T) {
	const ttl = 500 * time.Millisecond
	sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(2), arjuna.WithReadLeases(ttl))
	ctx := context.Background()
	obj := sys.Objects()[0]
	writer, holder := clientT(t, sys, "c1"), clientT(t, sys, "c2")
	read := func() (string, int) {
		var out []byte
		rep, err := holder.Atomic(ctx, func(tx *arjuna.Txn) error {
			var rerr error
			out, rerr = tx.Object(obj).Read(ctx, "get", nil)
			return rerr
		})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return string(out), rep.LeaseReads
	}
	// The first advance of the object's instance waits out the
	// first-commit grace; the fence under test is a later one.
	if _, _, err := writer.Apply(ctx, obj, "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	read() // harvests the grant
	if _, leased := read(); leased != 1 {
		t.Fatal("the holder's second read was not served from its lease")
	}

	var mu sync.Mutex
	frames := map[string][]transport.Addr{}
	sys.Faults().OnRequest(-1, func(r transport.Request) bool { return r.Service == group.ServiceName },
		func(r transport.Request) {
			mu.Lock()
			frames[r.Method] = append(frames[r.Method], r.To)
			mu.Unlock()
		})
	invalidated := sys.LeaseStats().Invalidated
	if _, _, err := writer.Apply(ctx, obj, "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	sent, sequenced := frames[group.MethodDeliverBatch], len(frames[group.MethodSequence])
	mu.Unlock()
	if len(sent) != 1 || sent[0] != "c2" || sequenced != 0 {
		t.Fatalf("the fence sent DeliverBatch to %v and %d Sequence calls; want one frame to c2 and none", sent, sequenced)
	}
	if sys.LeaseStats().Invalidated != invalidated+1 {
		t.Fatal("the fence's frame killed no lease at the holder")
	}
	if out, leased := read(); leased != 0 || out != "2" {
		t.Fatalf("read after the fenced commit = %q (leased %d), want 2 through the server", out, leased)
	}
}
