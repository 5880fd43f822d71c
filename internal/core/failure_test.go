package core

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/action"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// TestLostPrepareReplyAbortsCleanly: the store executes the prepare but
// the reply is lost — the client cannot tell, must abort, and the store's
// intention is rolled back so the object is not wedged.
func TestLostPrepareReplyAbortsCleanly(t *testing.T) {
	w := newWorld(t, 1, 2, 1)
	ctx := context.Background()
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	// The reply to the server's store-prepare at st1 is lost. The server
	// reports st1 as failed; st2 succeeds; commit proceeds with st1
	// excluded — OR the whole action aborts. Either way no inconsistency.
	w.cluster.Faults().DropReplies(1, func(req transport.Request) bool {
		return req.To == "st1" && req.Service == store.ServiceName && req.Method == store.MethodPrepare
	})
	_, commitErr := act.Commit(ctx)
	if commitErr == nil {
		// Committed with st1 excluded: st1 must not be in the view.
		view, _, err := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}.GetView(ctx, "peek", w.id)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range view {
			if n == "st1" {
				t.Fatalf("st1 still in view after lost prepare reply: %v", view)
			}
		}
		_ = Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}.EndAction(ctx, "peek", true)
	}
	// st1 must not keep a dangling intention pinning the object: either it
	// was aborted (by the handle's abort fan-out) or it will be cleared at
	// recovery. Run recovery to be sure, then a fresh action must work.
	w.cluster.Node("st1").Store().Recover(w.mgrs["c1"].Log())
	r := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	if _, err := w.runAction(r, 1); err != nil {
		t.Fatalf("object wedged after lost prepare reply: %v", err)
	}
}

// TestLostInvokeRequestIsSafe: a lost request means the operation did not
// execute; the client aborts and nothing changed.
func TestLostInvokeRequestIsSafe(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx := context.Background()
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	w.cluster.Faults().DropRequests(1, transport.ToService("sv1", "objsrv"))
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err == nil {
		t.Fatal("expected invoke failure")
	}
	if err := act.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	val, seq := w.storeValue("st1")
	if val != "0" || seq != 1 {
		t.Fatalf("state leaked: %q/%d", val, seq)
	}
}

// TestDBPartitionDuringBind: the client cannot reach the naming service;
// the bind fails and the client action aborts without touching anything.
func TestDBPartitionDuringBind(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	w.cluster.Faults().Partition("c1", "db")
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	act := b.Actions.BeginTop()
	_, err := b.Bind(ctx, act, w.id)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want unreachable", err)
	}
	_ = act.Abort(context.Background())
	// Heal and verify normal operation resumes.
	w.cluster.Faults().Heal("c1", "db")
	if _, err := w.runAction(b, 1); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// TestJanitorAbortsInFlightActionOfDeadClient: a client crashes while
// holding DB locks mid-action; the janitor rolls its database action back
// and releases the locks so other work can proceed.
func TestJanitorAbortsInFlightActionOfDeadClient(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	ctx := context.Background()
	// c1 starts an enhanced bind but "crashes" between GetServer (write
	// lock taken) and the rest: simulate by calling GetServer directly
	// with a never-ending action.
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	if _, _, err := cli.GetServer(ctx, "doomed-action", w.id, true, true); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("c1").Crash()

	// c2 cannot bind (write lock held by the dead client's action).
	b2 := w.binder("c2", SchemeIndependent, replica.SingleCopyPassive, 1)
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	act := b2.Actions.BeginTop()
	_, err := b2.Bind(shortCtx, act, w.id)
	cancel()
	if err == nil {
		t.Fatal("bind should block on the dead client's lock")
	}
	_ = act.Abort(ctx)

	rep := NewJanitor(w.db).Sweep(ctx)
	if rep.AbortedActions != 1 {
		t.Fatalf("aborted actions = %d, want 1", rep.AbortedActions)
	}
	// Now c2 binds normally.
	if _, err := w.runAction(b2, 1); err != nil {
		t.Fatalf("after sweep: %v", err)
	}
}

// TestDBRecoveryPersistsAcrossMultipleObjects: several objects, mixed
// committed mutations, DB crash, full image reload.
func TestDBRecoveryPersistsAcrossMultipleObjects(t *testing.T) {
	w := newWorld(t, 2, 2, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	// Register a second object.
	id2 := uid.UID{Origin: "obj", Epoch: 1, Seq: 77}
	if err := CreateObject(ctx, cli, id2, "counter", []byte("0"), w.svs[:1], w.sts); err != nil {
		t.Fatal(err)
	}
	// Commit a Remove on object 1 and an Exclude on object 2.
	if _, err := cli.Do(ctx, RemoveOp("m1", w.id, "sv2")); err != nil {
		t.Fatal(err)
	}
	if err := cli.EndAction(ctx, "m1", true); err != nil {
		t.Fatal(err)
	}
	if err := cli.Exclude(ctx, "m2", []ExcludePair{{UID: id2, Hosts: []transport.Addr{"st2"}}}, false); err != nil {
		t.Fatal(err)
	}
	if err := cli.EndAction(ctx, "m2", true); err != nil {
		t.Fatal(err)
	}

	w.cluster.Node("db").Crash()
	w.cluster.Node("db").Recover(nil)

	sv, _, err := cli.GetServer(ctx, "p1", w.id, false, false)
	if err != nil || len(sv) != 1 || sv[0] != "sv1" {
		t.Fatalf("sv = %v (%v)", sv, err)
	}
	_ = cli.EndAction(ctx, "p1", true)
	st, _, err := cli.GetView(ctx, "p2", id2)
	if err != nil || len(st) != 1 || st[0] != "st1" {
		t.Fatalf("st = %v (%v)", st, err)
	}
	_ = cli.EndAction(ctx, "p2", true)
	// Use lists survived too (empty but structured).
	if !w.quiescent(w.id) || !w.quiescent(id2) {
		t.Fatal("objects should be quiescent after recovery")
	}
	if got := len(w.db.Objects()); got != 2 {
		t.Fatalf("objects = %d", got)
	}
}

// TestPropertyUseCountsNeverNegative: random Increment/Decrement sequences
// never drive a use counter negative, and an abort restores the pre-image
// exactly.
func TestPropertyUseCountsNeverNegative(t *testing.T) {
	f := func(ops []uint8) bool {
		w := newWorld(t, 2, 1, 1)
		ctx := context.Background()
		cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
		hosts := [][]transport.Addr{{"sv1"}, {"sv2"}, {"sv1", "sv2"}}
		act := "prop-act"
		for _, op := range ops {
			hs := hosts[int(op)%len(hosts)]
			var err error
			if op%2 == 0 {
				_, err = cli.Do(ctx, IncrementOp(act, w.id, "c1", hs))
			} else {
				_, err = cli.Do(ctx, DecrementOp(act, w.id, "c1", hs))
			}
			if err != nil {
				return false
			}
		}
		// Counters must be non-negative: read them back.
		_, use, err := cli.GetServer(ctx, act, w.id, true, false)
		if err != nil {
			return false
		}
		for _, clients := range use {
			for _, n := range clients {
				if n < 0 {
					return false
				}
			}
		}
		// Abort: everything restored to empty.
		if err := cli.EndAction(ctx, act, false); err != nil {
			return false
		}
		return w.quiescent(w.id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleActivatedCopyCannotLoseUpdates is the regression test for the
// lost-update hole the randomized soak test uncovered: a server instance
// that stays activated while commits flow through a different server must
// not write its stale state back over newer versions. The store's
// version-chain check refuses the write, the stale instance destroys
// itself, the action aborts, and a retry re-activates from the latest
// committed state.
func TestStaleActivatedCopyCannotLoseUpdates(t *testing.T) {
	w := newWorld(t, 2, 2, 1)
	ctx := context.Background()

	// An early (read-only-style) activation leaves an instance at sv2.
	ref2 := objectRef(w, "sv2")
	ref2.Class, ref2.StNodes = "counter", []transport.Addr{"st1", "st2"}
	if _, err := ref2.Invoke(ctx, object.InvokeReq{}); err != nil {
		t.Fatal(err)
	}

	// Two committed actions flow through sv1 (first in Sv): value 2, seq 3.
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 1)
	for i := 0; i < 2; i++ {
		if _, err := w.runAction(b, 1); err != nil {
			t.Fatal(err)
		}
	}

	// sv1 dies; the next action lands on sv2's STALE instance.
	w.cluster.Node("sv1").Crash()
	_, err := w.runAction(b, 1)
	if err == nil {
		// The action may only commit if it saw the latest state.
		val, _ := w.storeValue("st1")
		if val != "3" {
			t.Fatalf("committed from stale state: store=%q", val)
		}
	} else {
		// Expected path: the stale copy was detected and the action
		// aborted; the retry re-activates fresh and succeeds.
		if _, err := w.runAction(b, 1); err != nil {
			t.Fatalf("retry after stale abort: %v", err)
		}
		val, seq := w.storeValue("st1")
		if val != "3" {
			t.Fatalf("value after retry = %q, want 3", val)
		}
		val2, seq2 := w.storeValue("st2")
		if val2 != val || seq2 != seq {
			t.Fatalf("stores diverged: %q/%d vs %q/%d", val, seq, val2, seq2)
		}
	}
}

func objectRef(w *world, node transport.Addr) object.ServerRef {
	return object.ServerRef{Client: w.cluster.Node("c1").Client(), Node: node, UID: w.id}
}

// TestMultiObjectActionTwoPhaseCommit: one action binds two objects; a
// prepare failure on the second aborts BOTH (failure atomicity across
// objects).
func TestMultiObjectActionTwoPhaseCommit(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	id2 := uid.UID{Origin: "obj", Epoch: 1, Seq: 88}
	// The second object's only store is st-solo, which will die.
	w.cluster.Add("st-solo")
	if err := CreateObject(ctx, cli, id2, "counter", []byte("0"), w.svs, []transport.Addr{"st-solo"}); err != nil {
		t.Fatal(err)
	}
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	act := b.Actions.BeginTop()
	bd1, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	bd2, err := b.Bind(ctx, act, id2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd1.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := bd2.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("st-solo").Crash()
	if _, err := act.Commit(ctx); !errors.Is(err, action.ErrPrepareFailed) {
		t.Fatalf("commit err = %v, want prepare failure", err)
	}
	// Object 1's store must NOT have the write (atomicity across objects).
	val, seq := w.storeValue("st1")
	if val != "0" || seq != 1 {
		t.Fatalf("partial commit leaked: %q/%d", val, seq)
	}
}
