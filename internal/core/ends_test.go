package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// ended reports, without flushing any binder, whether act holds no lock on
// id's entries at the database and whether id is quiescent there.
func (w *world) ended(act string, id uid.UID) (unlocked, quiescent bool) {
	owner := lockmgr.Owner(act)
	unlocked = !w.db.locks.Holds(owner, stKey(id), lockmgr.Read) && !w.db.locks.Holds(owner, svKey(id), lockmgr.Read)
	return unlocked, w.db.Quiescent(id)
}

// count returns client's use count for id at sv, as the database holds it.
func (w *world) count(id uid.UID, sv, client transport.Addr) int {
	w.db.mu.Lock()
	defer w.db.mu.Unlock()
	return w.db.servers[id].Use[sv][client]
}

// apply runs one committed action that applies "add 1" to id as a solo call
// (the shape of Client.Apply) and returns the action's name.
func (w *world) apply(b *Binder, id uid.UID) string {
	w.t.Helper()
	act, err := applyOnce(b, id)
	if err != nil {
		w.t.Fatal(err)
	}
	return act
}

// applyOnce is apply returning its error, for goroutines other than the
// test's.
func applyOnce(b *Binder, id uid.UID) (string, error) {
	ctx := context.Background()
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, id)
	if err != nil {
		_ = act.Abort(ctx)
		return "", err
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1"), Solo: true}); err != nil {
		_ = act.Abort(ctx)
		return "", err
	}
	_, err = act.Commit(ctx)
	return act.ID(), err
}

// idleEnd runs one committed Apply and then, when set, then — which may
// send, but must not carry the Apply's end — and nothing more: the
// action's end must still hold its St read lock and use count when the
// action returns — it waits for a carrier — and must be gone once the
// bound and some slack have passed (sleep passes them).
func idleEnd(t *testing.T, sleep func(time.Duration) bool, then func(w *world, b *Binder)) {
	w := newWorld(t, 1, 1, 1)
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	b.FastBind = true
	// On the wall clock the bound may pass before the first check; the end
	// is held until then. (In a bubble it cannot pass.)
	checked := make(chan struct{})
	w.cluster.Faults().OnRequest(-1, carriesEnd, func(transport.Request) { <-checked })
	act := w.apply(b, w.id)
	if unlocked, quiescent := w.ended(act, w.id); unlocked || quiescent {
		t.Errorf("right after the commit: unlocked %v, quiescent %v; want the end still waiting for a carrier", unlocked, quiescent)
	}
	close(checked)
	if then != nil {
		then(w, b)
	}
	for {
		done := sleep(endBound / 4)
		if unlocked, quiescent := w.ended(act, w.id); unlocked && quiescent {
			return
		} else if done {
			t.Errorf("the bound passed with no carrier: unlocked %v, quiescent %v; want the end sent alone", unlocked, quiescent)
			return
		}
	}
}

// TestActionEndIdleGoesAlone: the end of an action whose client goes idle
// is sent alone once the bound has passed (pendingEnds' timer). On the wall clock
// the check only waits for that, for up to five seconds; in a bubble
// (TestActionEndIdleGoesAloneInBubble) it must happen by the bound plus a
// half.
func TestActionEndIdleGoesAlone(t *testing.T) {
	idleEnd(t, wallClock(5*time.Second), nil)
}

// wallClock is idleEnd's sleep on the wall clock, done after limit.
func wallClock(limit time.Duration) func(time.Duration) bool {
	deadline := time.Now().Add(limit)
	return func(d time.Duration) bool {
		time.Sleep(d)
		return time.Now().After(deadline)
	}
}

// TestActionEndDeadCarrierTakesNothing: a message sent under a context
// that is already done — cancelled, or past its deadline — may not leave
// at all (a socket transport sends nothing then), so it carries no pending
// end: the end of the Apply before it still goes alone after the bound,
// Decrement and all, and the object is unlocked and quiescent with no
// flush. The dead bind's request is held on its way, as a transport that
// checks the context before it sends would hold it.
func TestActionEndDeadCarrierTakesNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"cancelled", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}},
		{"past its deadline", func() (context.Context, context.CancelFunc) {
			return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			idleEnd(t, wallClock(5*time.Second), func(w *world, b *Binder) {
				other := w.secondObject()
				w.cluster.Faults().DelayRequests(1, -1, time.Hour, func(req transport.Request) bool {
					return req.Service == ServiceName && names(req, other)
				})
				ctx, cancel := c.ctx()
				defer cancel()
				act := b.Actions.BeginTop()
				if _, err := b.Bind(ctx, act, other); err == nil {
					t.Error("a bind under a dead context succeeded")
				}
				_ = act.Abort(context.Background())
			})
		})
	}
}

// names reports whether a database request names id in any op.
func names(req transport.Request, id uid.UID) bool {
	var q BatchReq
	return rpc.Decode(req.Payload, &q) == nil && slices.ContainsFunc(q.Ops, func(op Op) bool { return op.UID == id })
}

// TestActionEndExcludingCommitEndsAtOnce: a commit whose store refused its
// write excludes the store in the action, and the action-end decides the
// Exclude, so it is sent before the commit returns: no lock or use count of
// the action is left, and St no longer names the store.
func TestActionEndExcludingCommitEndsAtOnce(t *testing.T) {
	w := newWorld(t, 1, 2, 1)
	for _, st := range w.sts[:1] { // st2 missed a commit: its write is refused
		w.cluster.Node(st).Store().Put(w.id, []byte("5"), 2)
	}
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	act := w.apply(b, w.id)
	if unlocked, quiescent := w.ended(act, w.id); !unlocked || !quiescent {
		t.Fatalf("after an excluding commit: unlocked %v, quiescent %v; want its end applied", unlocked, quiescent)
	}
	view, _, err := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}.GetView(context.Background(), "", w.id)
	if err != nil || !slices.Equal(view, []transport.Addr{"st1"}) {
		t.Fatalf("St = %v, %v; want [st1]", view, err)
	}
	// A commit that excluded nothing still waits for a carrier.
	if unlocked, _ := w.ended(w.apply(b, w.id), w.id); unlocked {
		t.Fatal("a commit that excluded nothing sent its end at once")
	}
}

// TestActionEndCarrierRefusedStillDecrements: a carrier whose own ops fail
// — its Bind names an object the database does not know, or waits for a
// lock past its deadline — still commits the ends it carried: they are
// their own action, ended by the own EndAction between them and the
// carrier's ops (DB.batch), which the carrier's failure cannot abort.
func TestActionEndCarrierRefusedStillDecrements(t *testing.T) {
	for _, c := range []struct {
		name string
		code string
		// carrier binds a second action through b and fails.
		carrier func(w *world, b *Binder) error
	}{
		{"unknown object", CodeUnknownObject, func(w *world, b *Binder) error {
			_, err := b.Bind(context.Background(), b.Actions.BeginTop(), uid.UID{Origin: "nobody", Epoch: 1, Seq: 1})
			return err
		}},
		{"lock refused", CodeLockRefused, func(w *world, b *Binder) error {
			// Another action write-locks a second object's Sv entry, and a
			// classic bind waits for it past the carrier's deadline.
			other := w.secondObject()
			cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
			if _, _, err := cli.GetServer(context.Background(), "blocker", other, false, true); err != nil {
				return err
			}
			defer func() { _ = cli.EndAction(context.Background(), "blocker", false) }()
			b.FastBind = false
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, err := b.Bind(ctx, b.Actions.BeginTop(), other)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 1, 1, 1)
			b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
			b.FastBind = true
			act := w.apply(b, w.id)
			err := c.carrier(w, b)
			if err == nil {
				t.Fatal("the carrier's bind succeeded")
			}
			if got := rpc.CodeOf(err); got != c.code && got != "" {
				t.Fatalf("the carrier failed with %v (code %q), want code %s", err, got, c.code)
			}
			if unlocked, quiescent := w.ended(act, w.id); !unlocked || !quiescent {
				t.Fatalf("after the carrier failed: unlocked %v, quiescent %v; want the carried end committed", unlocked, quiescent)
			}
		})
	}
}

// TestActionEndCarrierLost: the carrier of a pending end is lost in
// transport. If its request was dropped on the way, it ran nothing, and
// everything it carried goes again, after the bound: the EndAction releases
// the action's lock and the Decrement drops the count. If only its reply
// was lost, everything it carried ran, once: the resent EndAction finds
// nothing to end, and the use count is not dropped twice — a second binding
// of the client's, still open, keeps its own count. Either way the
// client's count at sv1 ends as the open action's one.
func TestActionEndCarrierLost(t *testing.T) {
	for _, c := range []struct {
		name string
		drop func(f *transport.Faults)
	}{
		{"request", func(f *transport.Faults) { f.DropRequests(1, transport.ToService("db", ServiceName)) }},
		{"reply", func(f *transport.Faults) { f.DropReplies(1, transport.ToService("db", ServiceName)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 1, 1, 1)
			ctx := context.Background()
			other := w.secondObject()
			b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
			b.FastBind = true
			// An open action of the same client holds a count at sv1 too.
			open := b.Actions.BeginTop()
			if _, err := b.Bind(ctx, open, w.id); err != nil {
				t.Fatal(err)
			}
			act := w.apply(b, w.id)
			c.drop(w.cluster.Faults())
			if _, err := b.Bind(ctx, b.Actions.BeginTop(), other); err == nil || rpc.CodeOf(err) != "" {
				t.Fatalf("the carrier's bind = %v, want it lost in transport", err)
			}
			// Nothing else is sent: the resend goes alone, after the bound.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
				if unlocked, _ := w.ended(act, w.id); unlocked {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the lost carrier's EndAction was never sent again")
				}
			}
			_ = b.FlushEnds(ctx) // the message that released the lock has come back
			if count := w.count(w.id, "sv1", "c1"); count != 1 {
				t.Fatalf("c1's count at sv1 = %d, want 1", count)
			}
			_ = open.Abort(ctx)
		})
	}
}

// TestActionEndFlushWaitsForCarrierInFlight: FlushEnds returns only once
// every message carrying ends has come back, also one another goroutine
// sent — here the bound's own, held on its way — so a wait for quiescence
// that flushes first finds the ends applied.
func TestActionEndFlushWaitsForCarrierInFlight(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	b.FastBind = true
	act := w.apply(b, w.id)
	entered, release := make(chan struct{}), make(chan struct{})
	w.cluster.Faults().OnRequest(1, func(req transport.Request) bool { return req.From == "c1" && req.Service == ServiceName },
		func(transport.Request) {
			close(entered)
			<-release
		})
	<-entered // the bound passed: its message is on its way
	flushed := make(chan error, 1)
	go func() { flushed <- b.FlushEnds(context.Background()) }()
	select {
	case err := <-flushed:
		close(release)
		t.Fatalf("FlushEnds returned (%v) while the bound's message was on its way", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if unlocked, quiescent := w.ended(act, w.id); !unlocked || !quiescent {
		t.Fatalf("after FlushEnds: unlocked %v, quiescent %v; want the end applied", unlocked, quiescent)
	}
}

// TestActionEndFlushIgnoresLaterCarriers: FlushEnds waits for the messages
// that took ends before it began, and for no other. A carrier of one end
// is held on its way when the flush begins; the flush's own message goes;
// a second carrier, of an end queued after that, is held too. Once the
// first is let go the flush returns, though the second is still on its
// way — with traffic through the binder that never pauses, a flush that
// waited for every carrier could wait for as long as the traffic lasts.
func TestActionEndFlushIgnoresLaterCarriers(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	ctx := context.Background()
	other := w.secondObject()
	// pend queues an end with the bound stopped: only a message the test
	// sends takes it.
	pend := func(act string) {
		b.ends.add(b, act, true, nil)
		b.ends.mu.Lock()
		b.ends.timer.Stop()
		b.ends.armed = false
		b.ends.mu.Unlock()
	}
	carry := func() { go func() { _, _ = b.do(ctx, GetServerOp("", other, false, false)) }() }
	held := make(chan chan struct{})
	w.cluster.Faults().OnRequest(3, carriesEnd, func(transport.Request) {
		release := make(chan struct{})
		held <- release
		<-release
	})
	pend("a1")
	carry()
	releaseFirst := <-held
	pend("a2")
	flushed := make(chan error, 1)
	go func() { flushed <- b.FlushEnds(ctx) }()
	close(<-held) // the flush's own message, sent once the flush began
	pend("a3")
	carry()
	releaseSecond := <-held
	defer close(releaseSecond)
	close(releaseFirst)
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("FlushEnds waited for a message that took ends after it began")
	}
}

// carriesEnd reports whether a database request carries a client
// action's EndAction.
func carriesEnd(req transport.Request) bool {
	var q BatchReq
	return req.Service == ServiceName && rpc.Decode(req.Payload, &q) == nil &&
		slices.ContainsFunc(q.Ops, func(op Op) bool { return op.Kind == OpEndAction && op.Action != "" })
}

// TestActionEndFlushUnderTraffic: flushes return while two goroutines keep
// applying through one binder, and the object each wrote is quiescent
// once the traffic stops and one more flush returns.
func TestActionEndFlushUnderTraffic(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	b.FastBind = true
	ids := []uid.UID{w.id, w.secondObject()}
	stop := make(chan struct{})
	errs := make(chan error, len(ids))
	for _, id := range ids {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if _, err := applyOnce(b, id); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for range 20 {
		flushed := make(chan error, 1)
		go func() { flushed <- b.FlushEnds(context.Background()) }()
		select {
		case err := <-flushed:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(2 * time.Second):
			t.Error("FlushEnds did not return while the traffic went on")
		}
		if t.Failed() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	for range ids {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if !w.quiescent(id) {
			t.Fatalf("%v not quiescent after the traffic and a flush", id)
		}
	}
}

// TestActionEndCrashRightAfterCommit: a server crashes right after a
// writer's commit, while the writer's end still waits in its binder — a
// hook holds it until the crash — and its count still names the dead
// server. Another client binds under every
// policy — a writer, or a single-copy-passive reader — and the use lists
// put it on the dead server only (§4.1.3(i)). Its probe finds it dead, and
// it binds again once the count has gone (Binder.rebind): the action
// commits, and a writer's repair drops the dead server from Sv.
func TestActionEndCrashRightAfterCommit(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy replica.Policy
		reader bool
	}{
		{"passive writer", replica.SingleCopyPassive, false},
		{"active writer", replica.Active, false},
		{"coordinator-cohort writer", replica.CoordinatorCohort, false},
		{"passive reader", replica.SingleCopyPassive, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			w := newWorld(t, 2, 1, 2)
			// The writer's end leaves no sooner than the crash, however
			// slow the test runs.
			crashed := make(chan struct{})
			w.cluster.Faults().OnRequest(-1, func(req transport.Request) bool { return req.From == "c1" && carriesEnd(req) },
				func(transport.Request) { <-crashed })
			if _, err := w.runAction(w.binder("c1", SchemeIndependent, c.policy, 1), 1); err != nil {
				t.Fatal(err)
			}
			if n := w.count(w.id, "sv1", "c1"); n != 1 {
				t.Fatalf("c1's count at sv1 = %d right after its commit, want 1: its end still waiting", n)
			}
			w.cluster.Node("sv1").Crash()
			close(crashed)
			b := w.binder("c2", SchemeIndependent, c.policy, 1)
			b.ReadOnly = c.reader
			method, args, want := "add", []byte("1"), "2"
			if c.reader {
				method, args, want = "get", nil, "1"
			}
			act := b.Actions.BeginTop()
			bd, err := b.Bind(ctx, act, w.id)
			if err != nil {
				t.Fatalf("bind right after the crash: %v", err)
			}
			resp, err := bd.Invoke(ctx, replica.Call{Method: method, Args: args})
			if err != nil {
				t.Fatalf("%s right after the crash: %v", method, err)
			}
			if string(resp.Result) != want {
				t.Fatalf("%s = %q, want %q", method, resp.Result, want)
			}
			if _, err := act.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if c.reader {
				return
			}
			sv, _, err := Client{RPC: w.cluster.Node("c2").Client(), DB: "db"}.GetServer(ctx, "", w.id, false, false)
			if err != nil || !slices.Equal(sv, []transport.Addr{"sv2"}) {
				t.Fatalf("Sv = %v, %v; want [sv2]", sv, err)
			}
		})
	}
}

// TestActionEndFailedStableWrite: the stable write under a carried end
// fails. The database answers CodeStopped — nothing of the message is
// durable — and the binder keeps what the message carried: once the
// database's node has restarted, a flush sends the end again, and the use
// count drops exactly once. A second binding of the client's, still open,
// keeps its own count, and the object is quiescent once that one ends too.
func TestActionEndFailedStableWrite(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx := context.Background()
	other := w.secondObject()
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	b.FastBind = true
	open := b.Actions.BeginTop()
	if _, err := b.Bind(ctx, open, w.id); err != nil {
		t.Fatal(err)
	}
	// The end reaches the database no sooner than its store fails, however
	// slow the test runs.
	failed := make(chan struct{})
	w.cluster.Faults().OnRequest(-1, carriesEnd, func(transport.Request) { <-failed })
	w.apply(b, w.id)
	stable := w.db.Node().Store()
	if err := stable.Shutdown(); err != nil {
		t.Fatal(err)
	}
	close(failed)
	if _, err := b.Bind(ctx, b.Actions.BeginTop(), other); rpc.CodeOf(err) != CodeStopped {
		t.Fatalf("a bind beside the failed store = %v, want code %s", err, CodeStopped)
	}
	if err := stable.Reopen(); err != nil {
		t.Fatal(err)
	}
	w.db.Node().Crash()
	w.db.Node().Recover(nil)
	if err := b.FlushEnds(ctx); err != nil {
		t.Fatal(err)
	}
	if n := w.count(w.id, "sv1", "c1"); n != 1 {
		t.Fatalf("c1's count at sv1 = %d after the restart and a flush, want 1: the open binding's", n)
	}
	if err := open.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if !w.quiescent(w.id) {
		t.Fatal("the object is not quiescent once both bindings have ended")
	}
}

// carriesDecrement reports whether a database request carries a Decrement.
func carriesDecrement(req transport.Request) bool {
	var q BatchReq
	return req.Service == ServiceName && rpc.Decode(req.Payload, &q) == nil &&
		slices.ContainsFunc(q.Ops, func(op Op) bool { return op.Kind == OpDecrement })
}

// TestActionEndOfAFailedActivation: a coordinator-cohort binding is counted
// at both servers, and its activation finds both dead. The binding never
// joins its action's group, so its Decrement is no part of the action-end:
// it waits in the binder for a message to ride, as an end's does. The first
// request that carries it is lost on its way, so it goes back and rides the
// next: after the abort and a flush, the object is quiescent.
func TestActionEndOfAFailedActivation(t *testing.T) {
	w := newWorld(t, 2, 1, 1)
	ctx := context.Background()
	w.cluster.Node("sv1").Crash()
	w.cluster.Node("sv2").Crash()
	b := w.binder("c1", SchemeIndependent, replica.CoordinatorCohort, 2)
	b.FastBind = true
	w.cluster.Faults().DropRequests(1, carriesDecrement)
	act := b.Actions.BeginTop()
	if _, err := b.Bind(ctx, act, w.id); !errors.Is(err, replica.ErrNoServers) {
		t.Fatalf("bind with both servers dead = %v, want ErrNoServers", err)
	}
	if err := act.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.FlushEnds(ctx); err != nil {
		t.Fatal(err)
	}
	if !w.db.Quiescent(w.id) {
		t.Fatalf("after the abort and a flush c1 is counted %d at sv1 and %d at sv2, want 0",
			w.count(w.id, "sv1", "c1"), w.count(w.id, "sv2", "c1"))
	}
	if n := w.lockHolders(); n != 0 {
		t.Fatalf("%d lock holders left", n)
	}
}

// TestBindReplyLostLeavesItsCount pins a leak's bound. A fast bind's reply is
// lost in transport: the bind message ran, and its count stands at the
// database, but the binder never learnt where, so nothing it sends drops
// it — not the abort, and not a flush. The leak is one count, at the server
// the bind selected, and only the janitor clears it, once the client is
// dead.
func TestBindReplyLostLeavesItsCount(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx := context.Background()
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	b.FastBind = true
	w.cluster.Faults().DropReplies(1, transport.ToService("db", ServiceName))
	act := b.Actions.BeginTop()
	if _, err := b.Bind(ctx, act, w.id); err == nil || rpc.CodeOf(err) != "" {
		t.Fatalf("bind = %v, want it lost in transport", err)
	}
	if err := act.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.FlushEnds(ctx); err != nil {
		t.Fatal(err)
	}
	if n := w.count(w.id, "sv1", "c1"); n != 1 {
		t.Fatalf("c1's count at sv1 after the abort and a flush = %d, want the lost bind's 1", n)
	}
	if n := w.lockHolders(); n != 0 {
		t.Fatalf("%d lock holders left", n)
	}
	if rep := NewJanitor(w.db).Sweep(ctx); rep.ClearedCounters != 0 || w.db.Quiescent(w.id) {
		t.Fatalf("a sweep with c1 alive cleared %d counters, quiescent %v; want the count left", rep.ClearedCounters, w.db.Quiescent(w.id))
	}
	w.cluster.Node("c1").Crash()
	if rep := NewJanitor(w.db).Sweep(ctx); rep.ClearedCounters != 1 || !w.db.Quiescent(w.id) {
		t.Fatalf("a sweep with c1 dead cleared %d counters, quiescent %v; want the one count cleared", rep.ClearedCounters, w.db.Quiescent(w.id))
	}
}
