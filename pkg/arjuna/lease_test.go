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
	// deployment. The first read's action-end, which waits in the binder
	// for a carrier and is no RPC of this read's, goes first.
	if err := sys.World().FlushEnds(ctx); err != nil {
		t.Fatal(err)
	}
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
// lease mailbox — no Sequence call, no relay — and when the writer's commit
// returns, the lease at the old version is dead and the holder's lease is
// at the new one: its next read is served from the cache and sees the write.
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
	if out, leased := read(); leased != 1 || out != "2" {
		t.Fatalf("read after the fenced commit = %q (leased %d), want 2 from the lease", out, leased)
	}
}

// TestLeaseFenceUpdatesEveryHolder: a commit's fence moves every live
// holder's lease forward, so each holder reads the write from its cache
// with no RPC at all. A holder whose answer to the fence is lost may have
// kept its lease or not: the commit waits the lease clock out instead, and
// once the TTL has run that holder's next read goes through the server.
func TestLeaseFenceUpdatesEveryHolder(t *testing.T) {
	const ttl = 500 * time.Millisecond
	sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(3), arjuna.WithReadLeases(ttl))
	ctx := context.Background()
	obj := sys.Objects()[0]
	writer := clientT(t, sys, "c1")
	holders := []*arjuna.Client{clientT(t, sys, "c2"), clientT(t, sys, "c3")}
	read := func(cl *arjuna.Client) (string, int) {
		var out []byte
		rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			var rerr error
			out, rerr = tx.Object(obj).Read(ctx, "get", nil)
			return rerr
		})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return string(out), rep.LeaseReads
	}
	write := func() {
		t.Helper()
		if _, _, err := writer.Apply(ctx, obj, "add", []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	// The first advance of the object's instance waits out the
	// first-commit grace; the fences under test are later ones.
	write()
	for _, h := range holders {
		if out, leased := read(h); out != "1" || leased != 0 {
			t.Fatalf("harvest read = %q (leased %d), want 1 through the server", out, leased)
		}
	}

	updated := sys.LeaseStats().Updated
	write()
	if got := sys.LeaseStats().Updated - updated; got != 2 {
		t.Fatalf("the fence moved %d leases forward, want 2", got)
	}
	// The ends of the write and of the harvest reads wait in their binders
	// for a carrier; they are no RPCs of the reads below.
	if err := sys.World().FlushEnds(ctx); err != nil {
		t.Fatal(err)
	}
	before := totalRPCs(sys)
	for i, h := range holders {
		if out, leased := read(h); out != "2" || leased != 1 {
			t.Fatalf("holder c%d read %q (leased %d) after the commit, want 2 from its lease", i+2, out, leased)
		}
	}
	if after := totalRPCs(sys); after != before {
		t.Fatalf("the holders' reads issued %d RPCs, want 0", after-before)
	}

	// c3's answer to the next fence is lost: it may have kept its lease or
	// not, so the commit waits the lease clock out.
	sys.Faults().DropReplies(1, transport.ToMethod("c3", group.ServiceName, group.MethodDeliverBatch))
	waitouts := sys.LeaseStats().Waitouts
	start := time.Now()
	write()
	if got := sys.LeaseStats().Waitouts - waitouts; got != 1 {
		t.Fatalf("the commit whose fence lost c3's answer waited out %d times, want 1", got)
	}
	if took := time.Since(start); took < ttl {
		t.Fatalf("the commit returned after %v, before the lease clock ran out", took)
	}
	time.Sleep(ttl)
	if out, leased := read(holders[1]); out != "3" || leased != 0 {
		t.Fatalf("c3 read %q (leased %d) after the TTL, want 3 through the server", out, leased)
	}
}

// TestLeaseReadsOfTwoObjectsAreOneSnapshot: an all-read action over two
// leased objects, served between the two fence frames of one commit that
// wrote both, must not pair one object's new state with the other's old
// one. The first frame has moved the holder's lease on one object to the
// new version while the other's frame is held back; the reader, run right
// then, finds both leases live, and only the commit-time check through the
// servers can tell that they straddle the commit.
func TestLeaseReadsOfTwoObjectsAreOneSnapshot(t *testing.T) {
	const ttl = 500 * time.Millisecond
	sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(2), arjuna.WithObjects(2), arjuna.WithReadLeases(ttl))
	ctx := context.Background()
	a, b := sys.Objects()[0], sys.Objects()[1]
	writer, holder := clientT(t, sys, "c1"), clientT(t, sys, "c2")
	both := func() (string, string, int, error) {
		var x, y []byte
		rep, err := holder.Atomic(ctx, func(tx *arjuna.Txn) error {
			var err error
			if x, err = tx.Object(a).Read(ctx, "get", nil); err != nil {
				return err
			}
			y, err = tx.Object(b).Read(ctx, "get", nil)
			return err
		})
		return string(x), string(y), rep.LeaseReads, err
	}
	addBoth := func() {
		t.Helper()
		if _, err := writer.Atomic(ctx, func(tx *arjuna.Txn) error {
			if _, err := tx.Object(a).Invoke(ctx, "add", []byte("1")); err != nil {
				return err
			}
			_, err := tx.Object(b).Invoke(ctx, "add", []byte("1"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	addBoth() // waits out the first-commit grace
	if _, _, _, err := both(); err != nil {
		t.Fatal(err) // harvests both grants
	}
	if _, _, leased, err := both(); err != nil || leased != 2 {
		t.Fatalf("the holder's second read of both objects served %d from its leases (err %v), want 2", leased, err)
	}

	// The holder's first fence frame is answered before the second is let
	// through, and the second waits until the reader has either returned or
	// gone to a server.
	fence := func(req transport.Request) bool {
		return req.To == "c2" && req.Service == group.ServiceName && req.Method == group.MethodDeliverBatch
	}
	answered, sent := make(chan struct{}), make(chan struct{})
	var once, sentOnce sync.Once
	sys.Faults().OnReply(1, fence, func(transport.Request) { once.Do(func() { close(answered) }) })
	sys.Faults().OnRequest(-1, func(req transport.Request) bool { return req.From == "c2" }, func(transport.Request) {
		sentOnce.Do(func() { close(sent) })
	})
	type view struct {
		x, y string
		err  error
	}
	got := make(chan view, 1)
	var frames int
	var mu sync.Mutex
	sys.Faults().OnRequest(-1, fence, func(transport.Request) {
		mu.Lock()
		frames++
		second := frames == 2
		mu.Unlock()
		if !second {
			return
		}
		<-answered
		done := make(chan struct{})
		go func() {
			defer close(done)
			x, y, _, err := both()
			got <- view{x, y, err}
		}()
		select {
		case <-done:
		case <-sent:
		}
	})
	addBoth()
	select {
	case v := <-got:
		if v.err != nil || v.x != v.y {
			t.Fatalf("a read of both objects during the fence saw a=%q b=%q (err %v), want one commit's state", v.x, v.y, v.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the read of both objects during the fence never returned")
	}
	mu.Lock()
	defer mu.Unlock()
	if frames != 2 {
		t.Fatalf("the commit sent the holder %d fence frames, want 2", frames)
	}
}
