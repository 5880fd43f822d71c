package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// lockHolders counts who holds the object's Sv and St entry locks, once the
// binders' pending action-ends are flushed.
func (w *world) lockHolders() (n int) {
	w.flushEnds()
	return len(w.db.locks.HolderModes(svKey(w.id))) + len(w.db.locks.HolderModes(stKey(w.id)))
}

// TestBatchStopsAtFirstRefusedOp: a batch whose second operation is
// refused returns that operation's code, leaves the first operation's
// lock held under its own owner — what two single calls failing at the
// second would leave — and ending the owners releases everything.
func TestBatchStopsAtFirstRefusedOp(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	unknown := uid.UID{Origin: "nobody", Epoch: 1, Seq: 1}

	for _, c := range []struct {
		name   string
		second Op
		code   string
	}{
		// "reader" holds sv's read lock, so the Remove waits for the
		// write lock until the message's deadline, and is refused there.
		{"lock-refused", RemoveOp("top", w.id, "sv1"), CodeLockRefused},
		{"unknown-object", GetViewOp("top", unknown), CodeUnknownObject},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := cli.GetServer(ctx, "reader", w.id, false, false); err != nil {
				t.Fatal(err)
			}
			msgCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
			res, err := cli.Do(msgCtx, GetServerOp("owner", w.id, true, false), c.second, EndActionOp("owner", true))
			cancel()
			if rpc.CodeOf(err) != c.code || res != nil {
				t.Fatalf("batch = %v, %v; want no results and code %s", res, err, c.code)
			}
			if !w.db.locks.Holds("owner", svKey(w.id), lockmgr.Read) {
				t.Fatal("the first op's read lock is not held under its owner")
			}
			for _, act := range []string{"owner", "top", "reader"} {
				if err := cli.EndAction(ctx, act, false); err != nil {
					t.Fatal(err)
				}
			}
			if n := w.lockHolders(); n != 0 {
				t.Fatalf("%d lock holders left after every owner ended", n)
			}
		})
	}
}

// TestOwnActionEndsWithItsMessage: the ops of a message's own action are
// undone and their locks released when a later op of the message fails,
// whoever's that op is, and committed when none does; a named action's ops
// in the same message stand either way.
func TestOwnActionEndsWithItsMessage(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	unknown := uid.UID{Origin: "nobody", Epoch: 1, Seq: 1}
	for _, last := range []Op{GetViewOp("", unknown), GetViewOp("named", unknown)} {
		_, err := cli.Do(ctx, BindOp("", w.id, "c1", 1, false), GetViewOp("named", w.id), last)
		if rpc.CodeOf(err) != CodeUnknownObject {
			t.Fatalf("batch = %v, want code %s", err, CodeUnknownObject)
		}
		if !w.quiescent(w.id) || len(w.db.locks.HolderModes(svKey(w.id))) != 0 {
			t.Fatal("the failed message's own action left its count or its Sv lock")
		}
		if !w.db.locks.Holds("named", stKey(w.id), lockmgr.Read) {
			t.Fatal("the named action's St read lock did not stand")
		}
		if err := cli.EndAction(ctx, "named", false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.Do(ctx, BindOp("", w.id, "c1", 1, false), GetViewOp("", w.id)); err != nil {
		t.Fatal(err)
	}
	if w.quiescent(w.id) || w.lockHolders() != 0 {
		t.Fatal("the own action did not commit its count and release its locks with the message")
	}
	if _, err := cli.Do(ctx, DecrementOp("", w.id, "c1", []transport.Addr{"sv1"})); err != nil || !w.quiescent(w.id) {
		t.Fatalf("own Decrement = %v, quiescent %v", err, w.quiescent(w.id))
	}
}

// TestBindAbortReleasesBatchLocks: the bind message's GetView is refused
// (a recovering store holds the St entry's write lock past the caller's
// deadline) after its Bind took the bind action's Sv lock and counted the
// binding; the bind action is the message's own, so the database aborts it
// there — the lock goes and the count is undone — and aborting the client
// action releases whatever the client action itself held.
func TestBindAbortReleasesBatchLocks(t *testing.T) {
	for _, readOnly := range []bool{false, true} {
		w := newWorld(t, 1, 2, 1)
		ctx := context.Background()
		cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
		if _, err := cli.Include(ctx, "recovery", w.id, "st2"); err != nil {
			t.Fatal(err)
		}
		b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
		b.FastBind, b.ReadOnly = !readOnly, readOnly
		act := b.Actions.BeginTop()
		bindCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		_, err := b.Bind(bindCtx, act, w.id)
		cancel()
		if err == nil {
			t.Fatal("Bind succeeded against a write-locked St entry")
		}
		if err := act.Abort(ctx); err != nil {
			t.Fatal(err)
		}
		if holders := w.db.locks.HolderModes(svKey(w.id)); len(holders) != 0 {
			t.Fatalf("readOnly=%v: Sv entry still locked after the failed bind: %v", readOnly, holders)
		}
		if !w.quiescent(w.id) {
			t.Fatalf("readOnly=%v: the failed bind left its use count behind", readOnly)
		}
		if err := cli.EndAction(ctx, "recovery", true); err != nil {
			t.Fatal(err)
		}
		if n := w.lockHolders(); n != 0 {
			t.Fatalf("readOnly=%v: %d lock holders left", readOnly, n)
		}
	}
}

// TestDuplicatedBatchLeavesNoLock: every database message of an action is
// delivered twice. Each conversation is self-contained per owner — the bind
// and the Decrement run as their message's own action, which ends with the
// message, and each delivery mints its own — so the second delivery cannot
// strand a lock under an owner that has already finished; and the bind
// message counts what the action-end message drops, so twice each still
// drains.
func TestDuplicatedBatchLeavesNoLock(t *testing.T) {
	for _, readOnly := range []bool{false, true} {
		w := newWorld(t, 1, 1, 1)
		w.cluster.Faults().DuplicateRequests(1, -1, transport.ToMethod("db", ServiceName, MethodBatch))
		b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
		b.FastBind, b.ReadOnly = !readOnly, readOnly
		ctx := context.Background()
		for i := 0; i < 3; i++ {
			act := b.Actions.BeginTop()
			bd, err := b.Bind(ctx, act, w.id)
			if err != nil {
				t.Fatalf("readOnly=%v: bind: %v", readOnly, err)
			}
			if _, err := bd.Invoke(ctx, replica.Call{Method: "get"}); err != nil {
				t.Fatalf("readOnly=%v: invoke: %v", readOnly, err)
			}
			if _, err := act.Commit(ctx); err != nil {
				t.Fatalf("readOnly=%v: commit: %v", readOnly, err)
			}
		}
		if n := w.lockHolders(); n != 0 {
			t.Fatalf("readOnly=%v: %d lock holders left under finished owners", readOnly, n)
		}
		if !w.quiescent(w.id) {
			t.Fatalf("readOnly=%v: use counts did not drain", readOnly)
		}
	}
}

// TestActionEndDecrementsStandAlone: an action of several objects ends at
// the database in one message, [EndAction, Decrement(own) × k]. An object
// deregistered since its binding was counted — its Sv entry gone, and its
// use lists with it — leaves its Decrement nothing to drop: the message goes
// through, and the other objects' counts drop, whichever comes first.
func TestActionEndDecrementsStandAlone(t *testing.T) {
	w := newWorld(t, 2, 1, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	gone := w.secondObject()
	sv1 := []transport.Addr{"sv1"}
	if _, err := cli.Do(ctx, IncrementOp("", gone, "c1", sv1)); err != nil {
		t.Fatal(err)
	}
	// The object moves away: its server is removed, which drops the count,
	// and it is deregistered.
	if _, err := cli.Do(ctx, RemoveOp("move", gone, "sv1"), DeregisterOp("move", gone, "db2"), EndActionOp("move", true)); err != nil {
		t.Fatal(err)
	}
	for _, goneFirst := range []bool{true, false} {
		if _, err := cli.Do(ctx, IncrementOp("", w.id, "c1", sv1), GetViewOp("act", w.id)); err != nil {
			t.Fatal(err)
		}
		decs := []Op{DecrementOp("", gone, "c1", sv1), DecrementOp("", w.id, "c1", sv1)}
		if !goneFirst {
			decs[0], decs[1] = decs[1], decs[0]
		}
		if _, err := cli.Do(ctx, append([]Op{EndActionOp("act", true)}, decs...)...); err != nil {
			t.Fatalf("gone first %v: action-end = %v", goneFirst, err)
		}
		if !w.quiescent(w.id) {
			t.Fatalf("gone first %v: the registered object's count did not drop", goneFirst)
		}
		if n := w.lockHolders(); n != 0 {
			t.Fatalf("gone first %v: %d lock holders left", goneFirst, n)
		}
	}
}

// TestOwnActionDiesWithItsIncarnation: a message's handler still runs when
// the database's node crashes and recovers — its GetView waits in the
// earlier incarnation's lock table — and its own action then fails. The
// Increment it made before the crash died with that incarnation: the
// recovered entry, rebuilt from the records, must keep its committed count,
// neither undone by the failed action's rollback nor moved by a commit.
func TestOwnActionDiesWithItsIncarnation(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	sv1 := []transport.Addr{"sv1"}
	if _, err := cli.Do(ctx, IncrementOp("", w.id, "c1", sv1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Include(ctx, "recovery", w.id, "st1"); err != nil {
		t.Fatal(err)
	}
	before := w.db.locks
	msgCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := w.db.batch(msgCtx, "c1", BatchReq{Ops: []Op{IncrementOp("", w.id, "c1", sv1), GetViewOp("", w.id)}})
		done <- err
	}()
	for before.QueueDepth(stKey(w.id)) == 0 {
		runtime.Gosched() // until the GetView waits behind the Include
	}
	node := w.db.Node()
	node.Crash()
	node.Recover(nil)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the message whose GetView waited out the crash succeeded")
	}
	durable := &DB{node: node}
	durable.resetVolatileLocked()
	durable.loadRecordsLocked()
	w.db.mu.Lock()
	live := w.db.servers[w.id].Use["sv1"]["c1"]
	w.db.mu.Unlock()
	if stable := durable.servers[w.id].Use["sv1"]["c1"]; live != 1 || stable != 1 {
		t.Fatalf("count after the crash: %d live, %d durable; want the committed 1 in both", live, stable)
	}
}

// TestRestartUnderMessageFailsIt: a message commits a named action's
// Increment, and its next op waits in the earlier incarnation's lock table
// while the database's node crashes and recovers. The commit had no write
// yet, so the restart lost it; when the op then goes on, the message must
// not be acknowledged.
func TestRestartUnderMessageFailsIt(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	if _, err := cli.Include(ctx, "recovery", w.id, "st1"); err != nil {
		t.Fatal(err)
	}
	before := w.db.locks
	done := make(chan error, 1)
	go func() {
		_, err := w.db.batch(ctx, "c1", BatchReq{Ops: []Op{
			IncrementOp("A", w.id, "c1", []transport.Addr{"sv1"}), EndActionOp("A", true), GetViewOp("", w.id),
		}})
		done <- err
	}()
	for before.QueueDepth(stKey(w.id)) == 0 {
		runtime.Gosched() // until the GetView waits behind the Include
	}
	node := w.db.Node()
	node.Crash()
	node.Recover(nil)
	before.ReleaseAll("recovery")
	if err := <-done; err == nil {
		t.Fatal("a message whose commit the restart lost was acknowledged")
	}
	if !w.db.Quiescent(w.id) {
		t.Fatal("the lost Increment is in the recovered database")
	}
}
