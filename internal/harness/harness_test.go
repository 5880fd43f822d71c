// The protocol tests below stage one fault each on an assembled World and
// drive it the way every caller does — through pkg/arjuna.Client — so they
// live outside package harness, which the facade imports.
package harness_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// open assembles a one-client deployment and returns it with its World and
// a client on the standard scheme whose retry loop is armed (5 attempts,
// 2ms backoff): none of the staged shapes below may be retried, so every
// test also pins Attempts == 1.
func open(t *testing.T, opts ...arjuna.Option) (*arjuna.System, *harness.World, *arjuna.Client) {
	t.Helper()
	sys, err := arjuna.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	cl, err := sys.Client("c1", arjuna.ClientScheme(arjuna.SchemeStandard), arjuna.ClientRetry(5, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return sys, sys.World(), cl
}

// add runs one atomic increment of the object and returns the counter
// value the action observed.
func add(cl *arjuna.Client, id uid.UID, delta string) (string, *arjuna.CommitReport, error) {
	ctx := context.Background()
	var out []byte
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		var ierr error
		out, ierr = tx.Object(id).Invoke(ctx, "add", []byte(delta))
		return ierr
	})
	return string(out), rep, err
}

func TestNewValidation(t *testing.T) {
	if _, err := harness.New(harness.Options{}); err == nil {
		t.Fatal("empty options should fail")
	}
	if _, err := harness.New(harness.Options{Servers: 1, Stores: 0, Clients: 1}); err == nil {
		t.Fatal("zero stores should fail")
	}
}

func TestWorldShape(t *testing.T) {
	sys, w, _ := open(t, arjuna.WithServers(2), arjuna.WithStores(3), arjuna.WithClients(2), arjuna.WithObjects(2))
	if len(w.Svs) != 2 || len(w.Sts) != 3 || len(w.Clients) != 2 || len(w.Objects) != 2 {
		t.Fatalf("world shape: %d/%d/%d/%d", len(w.Svs), len(w.Sts), len(w.Clients), len(w.Objects))
	}
	// Objects are installed at every store with seq 1.
	for i := range w.Objects {
		seqs := w.StoreSeqs(i)
		if len(seqs) != 3 {
			t.Fatalf("object %d on %d stores", i, len(seqs))
		}
		for st, seq := range seqs {
			if seq != 1 {
				t.Fatalf("object %d at %s seq=%d", i, st, seq)
			}
		}
	}
	sv, err := sys.ServerView(context.Background(), w.Objects[0])
	if err != nil || len(sv) != 2 {
		t.Fatalf("sv view = %v (%v)", sv, err)
	}
	st, err := sys.StoreView(context.Background(), w.Objects[0])
	if err != nil || len(st) != 3 {
		t.Fatalf("st view = %v (%v)", st, err)
	}
}

// TestBinderOnShardedWorldReachesFirstGroup: a sharded world names its
// databases db1..dbN — there is no "db" node — so World.Binder must resolve
// an object of the first group to that group's database, where it binds and
// commits.
func TestBinderOnShardedWorldReachesFirstGroup(t *testing.T) {
	w, err := harness.New(harness.Options{Servers: 1, Stores: 1, Clients: 1, Objects: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	id := uid.Nil
	for _, o := range w.Objects {
		if w.GroupOf(o).ID == 1 {
			id = o
			break
		}
	}
	if id == uid.Nil {
		t.Fatalf("none of %d objects landed on shard 1; raise Objects", len(w.Objects))
	}
	bd := w.Binder("c1", core.SchemeIndependent, replica.SingleCopyPassive, 1)
	ctx := context.Background()
	act := bd.Actions.BeginTop()
	if _, err := bd.Bind(ctx, act, id); err != nil {
		t.Fatalf("bind through %s: %v", w.Groups[0].DB.Addr(), err)
	}
	if _, err := act.Commit(ctx); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func TestCounterClassBadInputs(t *testing.T) {
	c := harness.CounterClass()
	add := c.Methods["add"]
	if _, _, err := add([]byte("7"), []byte("oops")); err == nil {
		t.Fatal("bad delta should error")
	}
	if _, _, err := add([]byte("junk"), []byte("1")); err == nil {
		t.Fatal("corrupt state should error")
	}
	newState, out, err := add([]byte("7"), []byte("3"))
	if err != nil || string(newState) != "10" || string(out) != "10" {
		t.Fatalf("add: %s %s %v", newState, out, err)
	}
}

// TestInDoubtStoreResolvesToCommitOnRestart drives the paper's hardest
// recovery shape end to end: a store node crashes after acknowledging a
// prepare (it voted commit) and before phase two reaches it. The action
// commits; the store restarts with a prepared-but-undecided intention and
// must learn the outcome from the coordinator's log — the full
// OriginLog -> outcome-log-service wiring — and apply it.
func TestInDoubtStoreResolvesToCommitOnRestart(t *testing.T) {
	_, w, cl := open(t, arjuna.WithServers(1), arjuna.WithStores(2))
	st2 := w.Cluster.Node("st2")
	// The moment st2's prepare acknowledgement is on the wire, the node
	// dies: it has voted commit but will never hear the outcome online.
	w.Cluster.Faults().OnReply(1,
		transport.ToMethod("st2", store.ServiceName, store.MethodPrepare),
		func(transport.Request) { st2.Crash() })

	_, rep, err := add(cl, w.Objects[0], "1")
	if err != nil || rep.Attempts != 1 {
		t.Fatalf("action should commit first time (st1 carries it): attempts=%d err=%v", rep.Attempts, err)
	}
	if pend := st2.Store().PendingTxs(); len(pend) != 1 {
		t.Fatalf("st2 pending intentions = %v, want exactly the in-doubt tx", pend)
	}
	if seq, _ := st2.Store().SeqOf(w.Objects[0]); seq != 1 {
		t.Fatalf("st2 committed seq = %d before restart, want 1", seq)
	}

	// Restart with no explicit log: the cluster's resolver routes the
	// outcome query to coordinator c1 by the transaction's origin.
	st2.Recover(nil)
	if pend := st2.Store().PendingTxs(); len(pend) != 0 {
		t.Fatalf("in-doubt intention survived restart: %v", pend)
	}
	v, err := st2.Store().Read(w.Objects[0])
	if err != nil || string(v.Data) != "1" || v.Seq != 2 {
		t.Fatalf("st2 after restart = %q/%d (%v), want logged commit applied (1/2)", v.Data, v.Seq, err)
	}
}

// TestInDoubtStoreResolvesToAbortOnRestart is the presumed-abort twin: st1
// records the intention but its acknowledgement is lost and the node dies;
// st2 never receives its prepare at all. No store acknowledged, so the
// action aborts. At restart the coordinator's log says aborted and st1's
// in-doubt intention must be rolled back. (Two stores keep the commit on
// the ordinary 2PC path — a single store would take the one-phase round,
// which records no intention to be in doubt about.)
func TestInDoubtStoreResolvesToAbortOnRestart(t *testing.T) {
	_, w, cl := open(t, arjuna.WithServers(1), arjuna.WithStores(2))
	st1 := w.Cluster.Node("st1")
	rule := transport.ToMethod("st1", store.ServiceName, store.MethodPrepare)
	w.Cluster.Faults().OnReply(1, rule, func(transport.Request) { st1.Crash() })
	w.Cluster.Faults().DropReplies(1, rule)
	w.Cluster.Faults().DropRequests(1, transport.ToMethod("st2", store.ServiceName, store.MethodPrepare))

	// A definite abort: the coordinator logged nothing, so this is not the
	// client's in-doubt class — and a failed prepare is not retried.
	_, rep, err := add(cl, w.Objects[0], "1")
	if !errors.Is(err, arjuna.ErrAborted) || errors.Is(err, arjuna.ErrOutcomeUnknown) || rep.Attempts != 1 {
		t.Fatalf("action must abort once (no store acknowledged the prepare): attempts=%d err=%v", rep.Attempts, err)
	}
	if pend := st1.Store().PendingTxs(); len(pend) != 1 {
		t.Fatalf("st1 pending intentions = %v, want the in-doubt tx", pend)
	}

	st1.Recover(nil)
	if pend := st1.Store().PendingTxs(); len(pend) != 0 {
		t.Fatalf("in-doubt intention survived restart: %v", pend)
	}
	v, err := st1.Store().Read(w.Objects[0])
	if err != nil || string(v.Data) != "0" || v.Seq != 1 {
		t.Fatalf("st1 after restart = %q/%d (%v), want rolled back (0/1)", v.Data, v.Seq, err)
	}
}

// TestServerCrashAfterPrepareDoesNotStrandCommit exercises the phase-two
// fallback: the object server dies after relaying a successful prepare, so
// the commit decision can no longer flow through it. The committed state
// must still land at the stores (directly), not sit stranded as
// intentions until every store restarts.
func TestServerCrashAfterPrepareDoesNotStrandCommit(t *testing.T) {
	_, w, cl := open(t, arjuna.WithServers(1), arjuna.WithStores(2))
	sv1 := w.Cluster.Node("sv1")
	w.Cluster.Faults().OnReply(1,
		transport.ToMethod("sv1", object.ServiceName, object.MethodPrepare),
		func(transport.Request) { sv1.Crash() })

	if _, rep, err := add(cl, w.Objects[0], "1"); err != nil || rep.Attempts != 1 {
		t.Fatalf("action voted commit everywhere; it must commit first time: attempts=%d err=%v", rep.Attempts, err)
	}
	for _, st := range w.Sts {
		n := w.Cluster.Node(st)
		if pend := n.Store().PendingTxs(); len(pend) != 0 {
			t.Fatalf("%s still holds intentions after direct commit: %v", st, pend)
		}
		v, err := n.Store().Read(w.Objects[0])
		if err != nil || string(v.Data) != "1" || v.Seq != 2 {
			t.Fatalf("%s = %q/%d (%v), want committed 1/2", st, v.Data, v.Seq, err)
		}
	}
}

// TestInDoubtIntentionSurvivesUnreachableCoordinator: a participant that
// voted commit must NOT presume abort just because its coordinator is
// unreachable at restart — the commit record may exist unread. The
// intention stays pending through the partitioned restart and resolves to
// the logged outcome once the coordinator answers.
func TestInDoubtIntentionSurvivesUnreachableCoordinator(t *testing.T) {
	_, w, cl := open(t, arjuna.WithServers(1), arjuna.WithStores(2))
	st2 := w.Cluster.Node("st2")
	w.Cluster.Faults().OnReply(1,
		transport.ToMethod("st2", store.ServiceName, store.MethodPrepare),
		func(transport.Request) { st2.Crash() })

	if _, _, err := add(cl, w.Objects[0], "1"); err != nil {
		t.Fatalf("action should commit: %v", err)
	}

	// Restart while the coordinator is unreachable: the in-doubt
	// intention must survive, and the committed state must NOT appear
	// (the store cannot know the outcome yet).
	w.Cluster.Faults().Partition("st2", "c1")
	st2.Recover(nil)
	if pend := st2.Store().PendingTxs(); len(pend) != 1 {
		t.Fatalf("pending after partitioned restart = %v, want the in-doubt tx kept", pend)
	}
	if seq, _ := st2.Store().SeqOf(w.Objects[0]); seq != 1 {
		t.Fatalf("st2 seq = %d after partitioned restart, want still 1", seq)
	}

	// Heal and retry the resolution (a restart-equivalent sweep): now the
	// logged commit applies.
	w.Cluster.Faults().Heal("st2", "c1")
	st2.Store().Recover(action.OriginLog{Client: st2.Client()})
	if pend := st2.Store().PendingTxs(); len(pend) != 0 {
		t.Fatalf("pending after heal = %v, want resolved", pend)
	}
	if v, err := st2.Store().Read(w.Objects[0]); err != nil || string(v.Data) != "1" || v.Seq != 2 {
		t.Fatalf("st2 = %q/%d (%v), want logged commit applied", v.Data, v.Seq, err)
	}
}

// TestPartitionedRelayCommitsStoreDirectly pins the chaos-found chain
// fork (counter seed 7): st2 acks its prepare, then a partition cuts the
// server's path to it, so the phase-two relay through sv1 fails while
// the client's own path to st2 is fine. The commit must reach st2
// directly — leaving the acknowledged update only as a pending intention
// invites a later action to find st2 busy, exclude the sole holder of
// the latest state, and rebuild the same version on a stale base,
// dropping this committed update.
func TestPartitionedRelayCommitsStoreDirectly(t *testing.T) {
	_, w, cl := open(t, arjuna.WithServers(1), arjuna.WithStores(2))
	// The instant st2's prepare ack is on the wire, partition sv1<->st2:
	// the vote stands, but the server can no longer relay the outcome.
	w.Cluster.Faults().OnReply(1,
		transport.ToMethod("st2", store.ServiceName, store.MethodPrepare),
		func(transport.Request) { w.Cluster.Faults().Partition("sv1", "st2") })

	_, rep, err := add(cl, w.Objects[0], "1")
	if err != nil {
		t.Fatalf("action must commit: %v", err)
	}
	st2 := w.Cluster.Node("st2")
	if pend := st2.Store().PendingTxs(); len(pend) != 0 {
		t.Fatalf("st2 left with pending intentions %v — the direct commit fallback did not run", pend)
	}
	v, err := st2.Store().Read(w.Objects[0])
	if err != nil || string(v.Data) != "1" || v.Seq != 2 {
		t.Fatalf("st2 = %q/%d (%v), want committed 1/2 via the client's direct path", v.Data, v.Seq, err)
	}
	if len(rep.ExcludedStores) != 0 {
		t.Fatalf("st2 excluded (%v) despite the healed commit — it still holds the latest state", rep.ExcludedStores)
	}
}

// TestBusyPinResolvesToCommitInsteadOfExclusion pins the second
// chaos-found chain-fork shape (counter seed 8): action X commits but
// BOTH its phase-two commit relay and the client's direct retry to st1
// are lost, leaving st1 pinned by X's prepared-but-committed intention.
// The next action must not give up on st1 (excluding the holder of the
// latest state and rebuilding X's version on a stale base): the
// write-back's busy retry asks st1 to resolve affirmatively-decided
// pins first, which applies X's commit and lets the new prepare extend
// the healed chain.
func TestBusyPinResolvesToCommitInsteadOfExclusion(t *testing.T) {
	_, w, cl := open(t, arjuna.WithServers(1), arjuna.WithStores(2))
	// Eat st1's store-level commit twice: the server's relay and the
	// client's direct fallback.
	w.Cluster.Faults().DropRequests(2, transport.ToMethod("st1", store.ServiceName, store.MethodCommit))

	if _, _, err := add(cl, w.Objects[0], "1"); err != nil {
		t.Fatalf("action X must commit (st2 carries it): %v", err)
	}
	st1 := w.Cluster.Node("st1")
	if pend := st1.Store().PendingTxs(); len(pend) != 1 {
		t.Fatalf("st1 pending = %v, want X's stuck committed intention", pend)
	}

	_, repY, err := add(cl, w.Objects[0], "1")
	if err != nil {
		t.Fatalf("action Y must commit: %v", err)
	}
	if len(repY.ExcludedStores) != 0 {
		t.Fatalf("Y excluded %v — the busy pin should have resolved to X's commit instead", repY.ExcludedStores)
	}
	if pend := st1.Store().PendingTxs(); len(pend) != 0 {
		t.Fatalf("st1 still pinned after resolution: %v", pend)
	}
	v, err := st1.Store().Read(w.Objects[0])
	if err != nil || string(v.Data) != "2" || v.Seq != 3 {
		t.Fatalf("st1 = %q/%d (%v), want the healed chain at 2/3", v.Data, v.Seq, err)
	}
}

// TestCatchUpAdoptsACommitStillPinnedAtItsSources pins the way a stale
// store got back into a view (chaos disk bank seed 401): X commits, but
// phase two is lost at every St member, so the acknowledged version exists
// only as pinned intentions. A store recovering now reads its sources'
// committed state — the version BEFORE X — unless they first apply what
// the coordinator has decided. Re-entering the view one version behind is
// how a later write-back found "a store that accepts" to fork the chain on.
func TestCatchUpAdoptsACommitStillPinnedAtItsSources(t *testing.T) {
	sys, w, cl := open(t, arjuna.WithServers(1), arjuna.WithStores(3))
	ctx := context.Background()
	obj := w.Objects[0]

	// st3 misses a commit and is excluded: view {st1, st2}, state 1/2.
	if err := sys.Crash("st3"); err != nil {
		t.Fatal(err)
	}
	if _, rep, err := add(cl, obj, "1"); err != nil || len(rep.ExcludedStores) != 1 {
		t.Fatalf("first add: excluded=%v err=%v, want st3 excluded", rep.ExcludedStores, err)
	}
	// X: every store-level commit — the server's relay and the client's
	// direct retry, at both members — is lost.
	for _, st := range []transport.Addr{"st1", "st2"} {
		sys.Faults().DropRequests(2, transport.ToMethod(st, store.ServiceName, store.MethodCommit))
	}
	if _, _, err := add(cl, obj, "1"); err != nil {
		t.Fatalf("X must commit (the coordinator logged it): %v", err)
	}
	for _, st := range []transport.Addr{"st1", "st2"} {
		if pend := w.Cluster.Node(st).Store().PendingTxs(); len(pend) != 1 {
			t.Fatalf("%s pending = %v, want X's committed intention", st, pend)
		}
	}

	if err := sys.Recover(ctx, "st3"); err != nil {
		t.Fatalf("recover st3: %v", err)
	}
	v, err := w.Cluster.Node("st3").Store().Read(obj)
	if err != nil || string(v.Data) != "2" || v.Seq != 3 {
		t.Fatalf("st3 caught up to %q/%d (%v), want X's version 2/3", v.Data, v.Seq, err)
	}
	if view, err := sys.StoreView(ctx, obj); err != nil || len(view) != 3 {
		t.Fatalf("St view after recovery = %v (%v), want all three stores", view, err)
	}
}

// TestRecoveryEndsItsDatabaseActionPastTheCallersDeadline: the recovering
// store's caller gives up (deadline, cancel) after the catch-up read and
// before the database action is ended. The Include's write lock on the St
// entry must not outlive that: a recovery that left its action open wedged
// every later bind and view read of the object (chaos bank seeds 401 and
// 108, about one run in thirty).
func TestRecoveryEndsItsDatabaseActionPastTheCallersDeadline(t *testing.T) {
	// Some latency, so that a dead context stops a call at its request leg
	// (the zero-latency carrier delivers regardless).
	sys, w, cl := open(t, arjuna.WithServers(1), arjuna.WithStores(2),
		arjuna.WithMemNetwork(transport.MemOptions{BaseLatency: 50 * time.Microsecond}))
	obj := w.Objects[0]
	if err := sys.Crash("st2"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := add(cl, obj, "1"); err != nil {
		t.Fatal(err)
	}
	st2 := w.Cluster.Node("st2")
	st2.Recover(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The caller's context dies the moment the catch-up read is answered.
	sys.Faults().OnReply(1, transport.ToMethod("st1", store.ServiceName, store.MethodRead),
		func(transport.Request) { cancel() })
	_ = core.RecoverStoreNode(ctx, st2, "db", w.Objects) // the outcome under test is the lock, not the error

	viewCtx, done := context.WithTimeout(context.Background(), time.Second)
	defer done()
	if _, err := sys.StoreView(viewCtx, obj); err != nil {
		t.Fatalf("St entry still locked by the recovery's database action: %v", err)
	}
	if _, _, err := add(cl, obj, "1"); err != nil {
		t.Fatalf("add after the interrupted recovery: %v", err)
	}
}
