package core

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// awaitQueued returns once key's queue in the database's lock table holds n
// requests.
func (w *world) awaitQueued(key string, n int) {
	w.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.db.locks.QueueDepth(key) != n {
		if time.Now().After(deadline) {
			w.t.Fatalf("queue of %s: %d waiting, want %d", key, w.db.locks.QueueDepth(key), n)
		}
		runtime.Gosched()
	}
}

// TestBindWaitsForAWriteLock: a bind message meets a named action's write
// lock — a recovering server's Insert on the Sv entry, or a recovering
// store's Include on the St entry — and waits in the lock table's queue,
// with the database free for other messages meanwhile; once the write lock's
// action ends, the bind answers. Writers (whose Bind counts) and read-only
// binders (whose Select counts nothing) alike.
func TestBindWaitsForAWriteLock(t *testing.T) {
	for _, c := range []struct {
		name string
		lock func(cli Client, id uid.UID) error
		key  func(uid.UID) string
	}{
		{"Insert", func(cli Client, id uid.UID) error {
			_, err := cli.Do(context.Background(), InsertOp("recovery", id, "sv1"))
			return err
		}, svKey},
		{"Include", func(cli Client, id uid.UID) error {
			_, err := cli.Include(context.Background(), "recovery", id, "st1")
			return err
		}, stKey},
	} {
		for _, readOnly := range []bool{false, true} {
			w := newWorld(t, 1, 1, 1)
			ctx := context.Background()
			cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
			other := w.secondObject()
			if err := c.lock(cli, w.id); err != nil {
				t.Fatal(err)
			}
			b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
			b.FastBind, b.ReadOnly = !readOnly, readOnly
			act := b.Actions.BeginTop()
			done := make(chan error, 1)
			go func() {
				_, err := b.Bind(ctx, act, w.id)
				done <- err
			}()
			w.awaitQueued(c.key(w.id), 1)
			// The waiting message holds no database mutex: another runs.
			if _, err := cli.Do(ctx, BindOp("", other, "c1", 1, false), GetViewOp("", other), DecrementOp("", other, "c1", []transport.Addr{"sv1"})); err != nil {
				t.Fatalf("%s, readOnly=%v: a message beside the waiting bind: %v", c.name, readOnly, err)
			}
			select {
			case err := <-done:
				t.Fatalf("%s, readOnly=%v: the bind answered (%v) while the write lock was held", c.name, readOnly, err)
			default:
			}
			if err := cli.EndAction(ctx, "recovery", true); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("%s, readOnly=%v: bind after the write lock went: %v", c.name, readOnly, err)
			}
			if err := act.Abort(ctx); err != nil {
				t.Fatal(err)
			}
			if n := w.lockHolders(); n != 0 || !w.quiescent(w.id) {
				t.Fatalf("%s, readOnly=%v: %d lock holders left, quiescent %v", c.name, readOnly, n, w.quiescent(w.id))
			}
		}
	}
}

// TestCancelledWaitLeavesNothing: a message whose op waits for a lock and
// whose context ends there fails with CodeLockRefused and leaves nothing in
// the lock table — no waiter, and no lock of its own action, whose locks the
// wait had recorded — nor a named op's lock; its own action's count is
// undone.
func TestCancelledWaitLeavesNothing(t *testing.T) {
	for _, viewAct := range []string{"", "named"} {
		w := newWorld(t, 1, 1, 1)
		ctx := context.Background()
		cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
		if _, err := cli.Include(ctx, "recovery", w.id, "st1"); err != nil {
			t.Fatal(err)
		}
		msgCtx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, err := w.db.batch(msgCtx, "c1", BatchReq{Ops: []Op{BindOp("", w.id, "c1", 1, false), GetViewOp(viewAct, w.id)}})
			done <- err
		}()
		w.awaitQueued(stKey(w.id), 1)
		cancel()
		if err := <-done; rpc.CodeOf(err) != CodeLockRefused {
			t.Fatalf("view action %q: cancelled wait = %v, want code %s", viewAct, err, CodeLockRefused)
		}
		if d := w.db.locks.QueueDepth(stKey(w.id)); d != 0 {
			t.Fatalf("view action %q: %d waiters left", viewAct, d)
		}
		if h := w.db.locks.HolderModes(svKey(w.id)); len(h) != 0 {
			t.Fatalf("view action %q: Sv holders %v left by the cancelled message", viewAct, h)
		}
		if h := w.db.locks.HolderModes(stKey(w.id)); len(h) != 1 || h[0].Owner != "recovery" {
			t.Fatalf("view action %q: St holders %v, want the recovery's alone", viewAct, h)
		}
		if !w.db.Quiescent(w.id) {
			t.Fatalf("view action %q: the cancelled message's count stayed", viewAct)
		}
		if err := cli.EndAction(ctx, "named", false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOwnOpsBeforeAWaitStayOneAction: a message's own Decrement runs, then
// its Bind waits behind a recovering server's Insert. The Decrement's lock
// was kept outside the table, and the wait records it, so while the
// message waits no other message sees the Decrement as done: a second
// server's Insert on that object, which needs it quiescent, cannot have the
// write lock. The Decrement and the bind then commit together, or abort
// together when the message's context ends in the wait.
func TestOwnOpsBeforeAWaitStayOneAction(t *testing.T) {
	for _, commit := range []bool{true, false} {
		w := newWorld(t, 1, 1, 1)
		ctx := context.Background()
		cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
		other := w.secondObject()
		sv1 := []transport.Addr{"sv1"}
		if _, err := cli.Do(ctx, IncrementOp("", other, "c1", sv1)); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Do(ctx, InsertOp("recovery", w.id, "sv1")); err != nil {
			t.Fatal(err)
		}
		msgCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := w.db.batch(msgCtx, "c1", BatchReq{Ops: []Op{DecrementOp("", other, "c1", sv1), BindOp("", w.id, "c1", 1, false)}})
			done <- err
		}()
		w.awaitQueued(svKey(w.id), 1)
		if h := w.db.locks.HolderModes(svKey(other)); len(h) != 1 || h[0].Mode != lockmgr.Adjust {
			t.Fatalf("commit=%v: holders of the decremented entry during the wait = %v, want the message's Adjust", commit, h)
		}
		insCtx, insCancel := context.WithTimeout(ctx, 20*time.Millisecond)
		_, err := cli.Do(insCtx, InsertOp("", other, "sv2"))
		insCancel()
		if rpc.CodeOf(err) != CodeLockRefused {
			t.Fatalf("commit=%v: Insert beside the half-done message = %v, want code %s", commit, err, CodeLockRefused)
		}
		if commit {
			if err := cli.EndAction(ctx, "recovery", true); err != nil {
				t.Fatal(err)
			}
		} else {
			cancel()
		}
		if err := <-done; (err == nil) != commit {
			t.Fatalf("commit=%v: message = %v", commit, err)
		}
		if err := cli.EndAction(ctx, "recovery", true); err != nil {
			t.Fatal(err)
		}
		if got := w.db.Quiescent(other); got != commit {
			t.Fatalf("commit=%v: the Decrement's object quiescent = %v", commit, got)
		}
		if got := w.db.Quiescent(w.id); got == commit {
			t.Fatalf("commit=%v: the bind's object quiescent = %v", commit, got)
		}
		if n := w.lockHolders() + len(w.db.locks.HolderModes(svKey(other))); n != 0 {
			t.Fatalf("commit=%v: %d lock holders left", commit, n)
		}
	}
}

// TestBindLockTableGrants pins what a bind writes to the database's lock
// table, where each message runs in one critical section: the locks of a
// message's own action never reach it. An unpinned read-only bind (Select
// and GetView, both its own) makes no grant; a fast bind of a writer (the
// carried end of its previous action, then Bind) makes one, the client
// action's St read lock, which outlives the message.
func TestBindLockTableGrants(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx := context.Background()
	writer := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	writer.FastBind = true
	reader := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	reader.ReadOnly = true
	for _, c := range []struct {
		name string
		b    *Binder
		want uint64
	}{
		{"fast bind", writer, 1},
		{"read-only bind", reader, 0},
	} {
		for i := range 3 {
			act := c.b.Actions.BeginTop()
			before := w.db.locks.Grants()
			if _, err := c.b.Bind(ctx, act, w.id); err != nil {
				t.Fatal(err)
			}
			if got := w.db.locks.Grants() - before; got != c.want {
				t.Errorf("%s %d: %d lock-table grants, want %d", c.name, i, got, c.want)
			}
			if err := act.Abort(ctx); err != nil {
				t.Fatal(err)
			}
		}
		w.flushEnds()
	}
	if n := w.lockHolders(); n != 0 || !w.quiescent(w.id) {
		t.Fatalf("%d lock holders left, quiescent %v", n, w.quiescent(w.id))
	}
}

// TestRepairWaitsForAReadLock: a repair message — the binding's Decrement,
// then Repair — meets a standard-scheme client's Sv read lock, which Figure
// 6 holds until the client's action ends, and waits in the lock table's
// queue for the write lock. One whose deadline comes first is refused and
// leaves nothing behind: no waiter, no lock of its own, its Decrement undone
// and Sv as it was. One that outwaits the reader repairs once the reader's
// action ends.
func TestRepairWaitsForAReadLock(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	ctx := context.Background()
	reader := w.binder("c2", SchemeStandard, replica.SingleCopyPassive, 1)
	act := reader.Actions.BeginTop()
	if _, err := reader.Bind(ctx, act, w.id); err != nil {
		t.Fatal(err)
	}
	sv1, sv2 := []transport.Addr{"sv1"}, []transport.Addr{"sv2"}
	if _, err := w.db.batch(ctx, "c1", BatchReq{Ops: []Op{IncrementOp("", w.id, "c1", sv1)}}); err != nil {
		t.Fatal(err)
	}
	repair := func(ctx context.Context) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := w.db.batch(ctx, "c1", BatchReq{Ops: []Op{DecrementOp("", w.id, "c1", sv1), RepairOp("", w.id, "c1", sv2, sv1)}})
			done <- err
		}()
		w.awaitQueued(svKey(w.id), 1)
		return done
	}
	sv := func() []transport.Addr {
		w.db.mu.Lock()
		defer w.db.mu.Unlock()
		return slices.Clone(w.db.servers[w.id].Nodes)
	}

	msgCtx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	if err := <-repair(msgCtx); rpc.CodeOf(err) != CodeLockRefused {
		t.Fatalf("repair past its deadline = %v, want code %s", err, CodeLockRefused)
	}
	if d := w.db.locks.QueueDepth(svKey(w.id)); d != 0 {
		t.Fatalf("%d waiters left", d)
	}
	if h := w.db.locks.HolderModes(svKey(w.id)); len(h) != 1 || h[0].Owner != lockmgr.Owner(act.ID()) || h[0].Mode != lockmgr.Read {
		t.Fatalf("Sv holders %v, want the reader's Read alone", h)
	}
	if n := w.count(w.id, "sv1", "c1"); n != 1 || !slices.Equal(sv(), w.svs) {
		t.Fatalf("after the refused repair c1 is counted %d at sv1 and Sv is %v; want 1 and %v", n, sv(), w.svs)
	}

	done := repair(ctx)
	if err := act.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("repair once the reader ended: %v", err)
	}
	if got := sv(); !slices.Equal(got, sv2) || w.count(w.id, "sv2", "c1") != 1 {
		t.Fatalf("after the repair Sv is %v and c1 is counted %d at sv2; want [sv2] and 1", got, w.count(w.id, "sv2", "c1"))
	}
	if _, err := w.db.batch(ctx, "c1", BatchReq{Ops: []Op{DecrementOp("", w.id, "c1", sv2)}}); err != nil {
		t.Fatal(err)
	}
	if n := w.lockHolders(); n != 0 || !w.quiescent(w.id) {
		t.Fatalf("%d lock holders left, quiescent %v", n, w.quiescent(w.id))
	}
}
