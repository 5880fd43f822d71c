package arjuna_test

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// crossShardPair returns two pre-created objects the placement ring put
// on different shards. Object UIDs are minted deterministically, so
// the pair is stable across runs.
func crossShardPair(t *testing.T, sys *arjuna.System) (a, b uid.UID) {
	t.Helper()
	objs := sys.Objects()
	for _, x := range objs[1:] {
		if sys.ShardOf(x) != sys.ShardOf(objs[0]) {
			return objs[0], x
		}
	}
	t.Fatalf("all %d objects landed on shard %d; raise WithObjects", len(objs), sys.ShardOf(objs[0]))
	return
}

func TestShardedPlacementTable(t *testing.T) {
	sys := openT(t,
		arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1),
		arjuna.WithObjects(8))
	if sys.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d, want 3", sys.ShardCount())
	}
	shards := sys.Shards()
	seen := map[transport.Addr]bool{}
	for i, sh := range shards {
		if sh.ID != i+1 {
			t.Fatalf("shard %d has ID %d", i, sh.ID)
		}
		if len(sh.Servers) != 1 || len(sh.Stores) != 1 {
			t.Fatalf("shard %d topology = %d servers / %d stores, want 1/1", sh.ID, len(sh.Servers), len(sh.Stores))
		}
		// Every shard's nodes are its own: groups share nothing.
		for _, n := range append([]transport.Addr{sh.DB}, append(sh.Servers, sh.Stores...)...) {
			if seen[n] {
				t.Fatalf("node %s appears in two shards", n)
			}
			seen[n] = true
		}
	}
	counts := map[int]int{}
	for _, id := range sys.Objects() {
		s := sys.ShardOf(id)
		if s < 1 || s > 3 {
			t.Fatalf("object %v placed on shard %d outside [1,3]", id, s)
		}
		counts[s]++
	}
	if len(counts) < 2 {
		t.Fatalf("8 objects all hashed to one shard: %v", counts)
	}

	// Every object is usable through the placement-aware client.
	cl := clientT(t, sys, "c1")
	ctx := context.Background()
	for _, id := range sys.Objects() {
		if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(id).Invoke(ctx, "add", []byte("1"))
			return err
		}); err != nil {
			t.Fatalf("add on shard-%d object: %v", sys.ShardOf(id), err)
		}
		if got := counterValue(t, sys, id); got != "1" {
			t.Fatalf("object on shard %d = %q, want 1", sys.ShardOf(id), got)
		}
	}
}

func TestShardedSingleShardKeepsFastPaths(t *testing.T) {
	// Sharding must not tax actions that stay on one shard: a write
	// through a single-server single-store group still collapses to the
	// combined one-phase round, and a read-only action still skips phase
	// two and the outcome log.
	sys := openT(t, arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1))
	obj := sys.Objects()[0]
	ctx := context.Background()

	rep, err := clientT(t, sys, "c1").Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("5"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OnePhase || rep.OutcomeLogged || rep.CommitVoters != 1 {
		t.Fatalf("single-shard write report = %+v, want one-phase, unlogged", rep)
	}

	rep, err = clientT(t, sys, "c1", arjuna.ClientReadOnly()).Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Read(ctx, "get", nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReadOnlyVoters != 1 || rep.CommitVoters != 0 || rep.OutcomeLogged {
		t.Fatalf("single-shard read report = %+v, want all-read-only, unlogged", rep)
	}
}

func TestCrossShardCommitAndAbort(t *testing.T) {
	sys := openT(t,
		arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1),
		arjuna.WithObjects(8))
	cl := clientT(t, sys, "c1")
	a, b := crossShardPair(t, sys)
	ctx := context.Background()

	// Commit: one coordinator, participants on two groups, ordinary
	// logged 2PC (the one-phase path must refuse across shards).
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		if _, err := tx.Object(a).Invoke(ctx, "add", []byte("3")); err != nil {
			return err
		}
		_, err := tx.Object(b).Invoke(ctx, "add", []byte("5"))
		return err
	})
	if err != nil {
		t.Fatalf("cross-shard atomic: %v", err)
	}
	if rep.OnePhase || !rep.OutcomeLogged || rep.CommitVoters != 2 {
		t.Fatalf("cross-shard report = %+v, want 2 commit voters through logged 2PC", rep)
	}
	if va, vb := counterValue(t, sys, a), counterValue(t, sys, b); va != "3" || vb != "5" {
		t.Fatalf("committed states = %q,%q, want 3,5", va, vb)
	}

	// Abort: failing after both updates must undo both shards.
	errBoom := errors.New("boom")
	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		if _, err := tx.Object(a).Invoke(ctx, "add", []byte("10")); err != nil {
			return err
		}
		if _, err := tx.Object(b).Invoke(ctx, "add", []byte("10")); err != nil {
			return err
		}
		return errBoom
	}); !errors.Is(err, arjuna.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if va, vb := counterValue(t, sys, a), counterValue(t, sys, b); va != "3" || vb != "5" {
		t.Fatalf("states after cross-shard abort = %q,%q, want 3,5 (unchanged)", va, vb)
	}
}

func TestCrossShardCommitSurvivesParticipantCrash(t *testing.T) {
	// One store of shard B dies the instant its commit vote is on the
	// wire — it will only learn the outcome from the coordinator's log at
	// restart. The cross-shard action must still commit through the
	// surviving replica, and recovery must apply the in-doubt intention
	// exactly once.
	sys := openT(t,
		arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(2),
		arjuna.WithObjects(8))
	cl := clientT(t, sys, "c1")
	a, b := crossShardPair(t, sys)
	ctx := context.Background()

	target := sys.Shards()[sys.ShardOf(b)-1].Stores[0]
	rule := transport.ToMethod(target, store.ServiceName, store.MethodPrepare)
	sys.Faults().OnReply(1, rule, func(transport.Request) { _ = sys.Crash(string(target)) })

	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		if _, err := tx.Object(a).Invoke(ctx, "add", []byte("3")); err != nil {
			return err
		}
		_, err := tx.Object(b).Invoke(ctx, "add", []byte("5"))
		return err
	})
	if err != nil {
		t.Fatalf("cross-shard atomic with crashed participant: %v", err)
	}
	if !rep.Committed {
		t.Fatal("not committed")
	}
	if !slices.Contains(rep.ExcludedStores, target) {
		t.Fatalf("excluded stores = %v, want %s (crashed after voting)", rep.ExcludedStores, target)
	}
	if va, vb := counterValue(t, sys, a), counterValue(t, sys, b); va != "3" || vb != "5" {
		t.Fatalf("committed states = %q,%q, want 3,5", va, vb)
	}

	// Recovery resolves the prepared intention against the outcome log
	// and rejoins the St view with the committed version.
	if err := sys.Recover(ctx, string(target)); err != nil {
		t.Fatal(err)
	}
	data, seq, err := sys.StoreState(string(target), b)
	if err != nil || string(data) != "5" || seq != 2 {
		t.Fatalf("recovered store state = %q@%d (%v), want 5@2", data, seq, err)
	}
	st, err := sys.StoreView(ctx, b)
	if err != nil || len(st) != 2 {
		t.Fatalf("St after recovery = %v (%v), want both stores", st, err)
	}
}

func TestCrossShardAbortCleansCrashedParticipant(t *testing.T) {
	// The abort-side in-doubt shape across shards: shard B's only store
	// dies AND its prepare acknowledgement is lost, so the coordinator
	// aborts while the dead store holds a prepared intention. Shard A's
	// already-prepared half must roll back, and presumed abort must
	// discard the orphaned intention at recovery. (With a second store in
	// the view this same fault commits instead — the §4.2 exclusion rule —
	// which TestCrossShardCommitSurvivesParticipantCrash covers.)
	sys := openT(t,
		arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1),
		arjuna.WithObjects(8))
	cl := clientT(t, sys, "c1")
	a, b := crossShardPair(t, sys)
	ctx := context.Background()

	target := sys.Shards()[sys.ShardOf(b)-1].Stores[0]
	rule := transport.ToMethod(target, store.ServiceName, store.MethodPrepare)
	sys.Faults().DropReplies(1, rule)
	sys.Faults().OnReply(1, rule, func(transport.Request) { _ = sys.Crash(string(target)) })

	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		if _, err := tx.Object(a).Invoke(ctx, "add", []byte("7")); err != nil {
			return err
		}
		_, err := tx.Object(b).Invoke(ctx, "add", []byte("7"))
		return err
	}); !errors.Is(err, arjuna.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted (prepare ack lost with the node)", err)
	}
	// Shard A's participant rolled back; shard B's store is down, its
	// committed state inspected after recovery below.
	if va := counterValue(t, sys, a); va != "0" {
		t.Fatalf("shard A state after aborted cross-shard action = %q, want 0", va)
	}

	if err := sys.Recover(ctx, string(target)); err != nil {
		t.Fatal(err)
	}
	data, seq, err := sys.StoreState(string(target), b)
	if err != nil || string(data) != "0" || seq != 1 {
		t.Fatalf("recovered store state = %q@%d (%v), want initial 0@1 (intention discarded)", data, seq, err)
	}
	// The cleaned shard keeps working.
	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(b).Invoke(ctx, "add", []byte("2"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, sys, b); got != "2" {
		t.Fatalf("post-recovery value = %q, want 2", got)
	}
}

func TestRebalanceMovesObjectAndStaleClientRebinds(t *testing.T) {
	sys := openT(t, arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1))
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	// The client binds once pre-move, caching the object's placement.
	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("5"))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	src := sys.ShardOf(obj)
	target := src%3 + 1
	if err := sys.Rebalance(ctx, obj, target); err != nil {
		t.Fatalf("rebalance %d → %d: %v", src, target, err)
	}
	if got := sys.ShardOf(obj); got != target {
		t.Fatalf("ShardOf after rebalance = %d, want %d", got, target)
	}
	// Value continuity: the committed state moved with the object.
	if got := counterValue(t, sys, obj); got != "5" {
		t.Fatalf("state after rebalance = %q, want 5", got)
	}
	st, err := sys.StoreView(ctx, obj)
	if err != nil {
		t.Fatal(err)
	}
	want := sys.Shards()[target-1].Stores
	if !slices.Equal(st, want) {
		t.Fatalf("St after rebalance = %v, want target shard's stores %v", st, want)
	}

	// The same client still holds the stale placement. Its next bind hits
	// the old shard, whose answer names the database the object moved to,
	// and binds on the new shard — invisibly to the caller, and still on
	// the single-shard fast path.
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("7"))
		return err
	})
	if err != nil {
		t.Fatalf("stale client after rebalance: %v", err)
	}
	if !rep.OnePhase {
		t.Fatalf("post-rebalance report = %+v, want one-phase on the new shard", rep)
	}
	if got := counterValue(t, sys, obj); got != "12" {
		t.Fatalf("state = %q, want 12 (both adds applied once)", got)
	}
}

func TestRebalanceBatchMovesAllUnderOneEpochBump(t *testing.T) {
	sys := openT(t, arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithObjects(6))
	cl := clientT(t, sys, "c1")
	ctx := context.Background()

	// Seed distinct values so continuity is checked per object.
	objs := sys.Objects()
	for i, obj := range objs {
		delta := strconv.Itoa(i + 1)
		if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(obj).Invoke(ctx, "add", []byte(delta))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Move the whole namespace to shard 2 — including objects already
	// there, which the batch move must skip, and objects from several
	// distinct source shards committed under the one migration action.
	const target = 2
	if err := sys.RebalanceBatch(ctx, objs, target); err != nil {
		t.Fatalf("batch rebalance: %v", err)
	}
	for i, obj := range objs {
		if got := sys.ShardOf(obj); got != target {
			t.Fatalf("object %d on shard %d after batch move, want %d", i, got, target)
		}
		if got, want := counterValue(t, sys, obj), strconv.Itoa(i+1); got != want {
			t.Fatalf("object %d state = %q after batch move, want %q", i, got, want)
		}
	}

	// The batch is usable at the target — the stale client re-binds
	// through the forwards its sources keep.
	for _, obj := range objs {
		if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(obj).Invoke(ctx, "add", []byte("10"))
			return err
		}); err != nil {
			t.Fatalf("post-move write to %v: %v", obj, err)
		}
	}
}

func TestRebalanceRefusesWhileActionInFlight(t *testing.T) {
	// Rebalance rides the §4.2 quiescence rule: while an action holds the
	// object in a use list, Deregister refuses, so a migration can never
	// yank an object out from under an in-flight binding.
	sys := openT(t, arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1))
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	bound := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			if _, err := tx.Object(obj).Invoke(ctx, "add", []byte("2")); err != nil {
				return err
			}
			close(bound)
			<-release
			return nil
		})
		done <- err
	}()
	<-bound

	src := sys.ShardOf(obj)
	target := src%3 + 1
	rctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	err := sys.Rebalance(rctx, obj, target)
	cancel()
	if err == nil {
		t.Fatal("rebalance succeeded while an action held the object in use")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight action: %v", err)
	}
	if got := counterValue(t, sys, obj); got != "2" {
		t.Fatalf("state = %q, want 2 (the racing action won)", got)
	}

	// Quiescent now: the same migration goes through, state intact.
	if err := sys.Rebalance(ctx, obj, target); err != nil {
		t.Fatalf("rebalance after quiescence: %v", err)
	}
	if got, s := counterValue(t, sys, obj), sys.ShardOf(obj); got != "2" || s != target {
		t.Fatalf("after rebalance: state=%q shard=%d, want 2 on shard %d", got, s, target)
	}
}

// TestRebalanceUnsharded: one group is a one-row placement table, so a move
// to shard 1 is a no-op that sends nothing, and any other target is an
// unknown shard that leaves the object where it is.
func TestRebalanceUnsharded(t *testing.T) {
	sys := openT(t)
	obj, ctx := sys.Objects()[0], context.Background()
	var calls atomic.Int64
	sys.Faults().OnRequest(-1, func(transport.Request) bool { return true }, func(transport.Request) { calls.Add(1) })
	if err := sys.Rebalance(ctx, obj, 1); err != nil {
		t.Fatalf("Rebalance to shard 1 = %v, want nil", err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("Rebalance to shard 1 sent %d messages, want none", n)
	}
	if err := sys.Rebalance(ctx, obj, 2); err == nil {
		t.Fatal("Rebalance to shard 2 of one succeeded")
	}
	if s := sys.ShardOf(obj); s != 1 {
		t.Fatalf("ShardOf = %d after a refused move, want 1", s)
	}
}

// TestMovedObjectFollowsForwards: an object moved A → B → C is found by a
// fresh client through the forwards A's and B's databases keep, at one
// database message per hop — its first action costs exactly two more than
// its second, which finds C in the client's cache. Moved back to its ring
// shard A, the object is found by that client, which cached C, through C's
// forward.
func TestMovedObjectFollowsForwards(t *testing.T) {
	net := &countingNet{Network: transport.NewMem(transport.MemOptions{}, nil), from: "c2"}
	sys := openT(t, arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1),
		arjuna.WithClients(2), arjuna.WithNetwork(net))
	obj, ctx := sys.Objects()[0], context.Background()
	add := func(cl *arjuna.Client) func() {
		return func() {
			if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
				_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	move := func(target int) {
		t.Helper()
		if err := sys.Rebalance(ctx, obj, target); err != nil {
			t.Fatalf("rebalance to shard %d: %v", target, err)
		}
		if got := sys.ShardOf(obj); got != target {
			t.Fatalf("ShardOf after rebalance = %d, want %d", got, target)
		}
	}
	home := sys.ShardOf(obj)
	move(home%3 + 1)
	move((home+1)%3 + 1)

	cl := clientT(t, sys, "c2")
	// dbMsgs counts one action's database messages, the earlier actions'
	// ends flushed first: a bound that passed between two actions would
	// otherwise send one inside the count.
	dbMsgs := func() int64 {
		if err := sys.World().FlushEnds(ctx); err != nil {
			t.Fatal(err)
		}
		_, db, _ := net.during(add(cl))
		return db
	}
	first := dbMsgs()
	second := dbMsgs()
	if first != second+2 {
		t.Fatalf("a fresh client's first action sent %d database messages, its second %d; want two more (one per hop)", first, second)
	}
	third := dbMsgs()
	if third != second {
		t.Fatalf("a warm client's action sent %d database messages, then %d", second, third)
	}

	move(home)
	back := dbMsgs()
	if back != second+1 {
		t.Fatalf("the action after the move home sent %d database messages, want %d (one hop from the cached shard)", back, second+1)
	}
	if got := counterValue(t, sys, obj); got != "4" {
		t.Fatalf("counter = %q, want 4", got)
	}
}

// TestRebalanceMovesCommitPinnedAsIntention: a committed action's phase-two
// message never reaches any store of the object's shard — the server's
// relay and the client's direct retry are both lost at each — so every
// source store holds the acknowledged version only as a prepared intention,
// and a plain read there returns the version before it. A move must have
// the source stores apply what the coordinator decided before it copies a
// state to the target: copying beneath the intention loses the commit.
func TestRebalanceMovesCommitPinnedAsIntention(t *testing.T) {
	sys := openT(t, arjuna.WithShards(2), arjuna.WithServers(1), arjuna.WithStores(2))
	cl := clientT(t, sys, "c1", arjuna.ClientRetry(1, 0))
	obj := sys.Objects()[0]
	ctx := context.Background()
	src := sys.ShardOf(obj)
	for _, st := range sys.Shards()[src-1].Stores {
		sys.Faults().DropRequests(2, transport.ToMethod(st, store.ServiceName, store.MethodCommit))
	}
	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, st := range sys.Shards()[src-1].Stores {
		if data, _, err := sys.StoreState(string(st), obj); err != nil || string(data) != "0" {
			t.Fatalf("%s = %q, %v: the test needs the commit still pinned there", st, data, err)
		}
	}

	target := src%2 + 1
	if err := sys.Rebalance(ctx, obj, target); err != nil {
		t.Fatalf("rebalance %d → %d: %v", src, target, err)
	}
	for _, st := range sys.Shards()[target-1].Stores {
		if data, _, err := sys.StoreState(string(st), obj); err != nil || string(data) != "1" {
			t.Fatalf("target store %s = %q, %v after the move, want the acknowledged 1", st, data, err)
		}
	}
	var got []byte
	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) (err error) {
		got, err = tx.Object(obj).Read(ctx, "get", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "1" {
		t.Fatalf("read after the move = %q, want the acknowledged 1", got)
	}
}
