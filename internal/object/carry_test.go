package object

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/transport"
)

// soloRef is the ref a binding's one solo request goes through: it names the
// class and the St view the carried phase one writes back to.
func (w *world) soloRef(node transport.Addr, stNodes ...transport.Addr) ServerRef {
	return ServerRef{Client: w.cluster.Node("client").Client(), Node: node, UID: w.id, Class: "counter", StNodes: stNodes}
}

func (w *world) stored(t *testing.T, st transport.Addr) (string, uint64) {
	t.Helper()
	v, err := w.cluster.Node(st).Store().Read(w.id)
	if err != nil {
		t.Fatal(err)
	}
	return string(v.Data), v.Seq
}

// TestSoloInvokeCarriesOnePhasePrepare: over one store the request that runs
// the method commits the action — the reply has the result and a one-phase
// Prepare's answer, the store has the new version, and the server has
// forgotten the action, so nothing is left for a second message to do.
func TestSoloInvokeCarriesOnePhasePrepare(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	resp, err := w.soloRef("sv1", "st1").Invoke(ctx, InvokeReq{Action: "a1", Method: "add", Args: []byte("3"), Solo: true, Carry: CarryCommit})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Result) != "3" || resp.Carried != CarryCommit || resp.Vote.Err() != nil ||
		!resp.Vote.Dirty || resp.Vote.NewSeq != 2 || resp.Vote.BatchSize != 1 {
		t.Fatalf("reply = %+v", resp)
	}
	if data, seq := w.stored(t, "st1"); data != "3" || seq != 2 {
		t.Fatalf("st1 holds %q/%d, want 3/2", data, seq)
	}
	if st, err := w.ref("sv1").Status(ctx); err != nil || st.Users != 0 || st.Prepared != 0 || st.Seq != 2 {
		t.Fatalf("status after the carried commit = %+v, %v", st, err)
	}
	// The write lock went with the commit: the next action is not kept waiting.
	if _, err := call(ctx, w.ref("sv1"), "a2", "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
}

// TestSoloInvokeCarriesPrepare: over several stores the request carries
// phase one only — the stores hold intentions, the reply says where, and the
// Commit message finishes the action as it finishes a Prepare's.
func TestSoloInvokeCarriesPrepare(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	resp, err := w.soloRef("sv1", "st1", "st2").Invoke(ctx, InvokeReq{Action: "a1", Method: "add", Args: []byte("3"), Solo: true, Carry: CarryPrepare})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Result) != "3" || resp.Carried != CarryPrepare || resp.Vote.Err() != nil ||
		!resp.Vote.Dirty || len(resp.Vote.PreparedNodes) != 2 || len(resp.Vote.FailedNodes) != 0 {
		t.Fatalf("reply = %+v", resp)
	}
	if data, seq := w.stored(t, "st1"); data != "0" || seq != 1 {
		t.Fatalf("st1 holds %q/%d before phase two, want 0/1", data, seq)
	}
	if st, err := w.ref("sv1").Status(ctx); err != nil || st.Users != 1 || st.Prepared != 1 {
		t.Fatalf("status after the carried prepare = %+v, %v", st, err)
	}
	if _, err := w.ref("sv1").Commit(ctx, "a1"); err != nil {
		t.Fatal(err)
	}
	for _, st := range []transport.Addr{"st1", "st2"} {
		if data, seq := w.stored(t, st); data != "3" || seq != 2 {
			t.Fatalf("%s holds %q/%d, want 3/2", st, data, seq)
		}
	}
}

// TestSoloInvokeRefusedVoteKeepsTheResult: the method ran and the vote was
// refused — no store took the new state. That is the action's commit
// failing, not its invocation: the reply still succeeds, the refusal rides in
// it under the code Prepare would have returned, and the action is left for
// the caller's Abort.
func TestSoloInvokeRefusedVoteKeepsTheResult(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	if _, err := call(ctx, w.firstRef("sv1", w.id), "a0", "get", nil); err != nil { // activate while the stores are up
		t.Fatal(err)
	}
	if _, err := w.ref("sv1").Prepare(ctx, "a0", nil, false); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("st1").Crash()
	w.cluster.Node("st2").Crash()
	resp, err := w.soloRef("sv1", "st1", "st2").Invoke(ctx, InvokeReq{Action: "a1", Method: "add", Args: []byte("3"), Solo: true, Carry: CarryPrepare})
	if err != nil {
		t.Fatalf("the invocation failed with the vote's error: %v", err)
	}
	if string(resp.Result) != "3" || resp.Carried != CarryPrepare || rpc.CodeOf(resp.Vote.Err()) != CodeUnavailable {
		t.Fatalf("reply = %+v, vote error %v; want the result and a %s vote", resp, resp.Vote.Err(), CodeUnavailable)
	}
	if _, err := w.ref("sv1").Abort(ctx, "a1"); err != nil {
		t.Fatal(err)
	}
	if out, err := call(ctx, w.ref("sv1"), "a2", "get", nil); err != nil || string(out) != "0" {
		t.Fatalf("state after the abort = %q, %v; want 0", out, err)
	}
}

// TestSoloInvokeFailedMethodCarriesNothing: a method that fails stops the
// request where it always did — nothing is prepared anywhere, the lock stays
// with the action, and the Abort that follows restores the snapshot.
func TestSoloInvokeFailedMethodCarriesNothing(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	if _, err := w.soloRef("sv1", "st1").Invoke(ctx, InvokeReq{Action: "a1", Method: "fail", Solo: true, Carry: CarryCommit}); rpc.CodeOf(err) != rpc.CodeInternal {
		t.Fatalf("err = %v, want the method's failure", err)
	}
	if pend := w.cluster.Node("st1").Store().PendingTxs(); len(pend) != 0 {
		t.Fatalf("st1 holds intentions %v after a failed method", pend)
	}
	if st, err := w.ref("sv1").Status(ctx); err != nil || st.Users != 1 || st.Seq != 1 {
		t.Fatalf("status = %+v, %v: the action should still hold the object", st, err)
	}
	if _, err := w.ref("sv1").Abort(ctx, "a1"); err != nil {
		t.Fatal(err)
	}
	if data, seq := w.stored(t, "st1"); data != "0" || seq != 1 {
		t.Fatalf("st1 holds %q/%d, want 0/1", data, seq)
	}
}

// TestSoloReadIsRunAndRelease: a solo read's carried phase one — the commit
// over one store, the prepare over several — finds the action clean and
// releases it on the spot: one request, no store traffic, no user left
// behind, and a read-only vote that names the committed version it read.
func TestSoloReadIsRunAndRelease(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	if _, err := w.soloRef("sv1", "st1").Invoke(ctx, InvokeReq{Action: "w", Method: "add", Args: []byte("3"), Solo: true, Carry: CarryCommit}); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		carry Carry
		ref   ServerRef
	}{{CarryCommit, w.soloRef("sv1", "st1")}, {CarryPrepare, w.soloRef("sv1", "st1", "st2")}} {
		resp, err := c.ref.Invoke(ctx, InvokeReq{Action: fmt.Sprintf("r%d", i), Method: "get", Solo: true, Carry: c.carry})
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Result) != "3" || resp.Carried != c.carry || resp.Vote.Dirty || resp.Vote.NewSeq != 2 || resp.Vote.Err() != nil {
			t.Fatalf("carry %d: reply = %+v; want a read-only vote at version 2", c.carry, resp)
		}
		if st, err := w.ref("sv1").Status(ctx); err != nil || st.Users != 0 {
			t.Fatalf("carry %d: status = %+v, %v: the read was not released", c.carry, st, err)
		}
	}
}

// TestCarryingReadIsNeverGranted: a read that carries its action's phase one
// releases the read lock in the request that ran it, so it is granted no
// lease even when it names a holder — the grant would still be on its way to
// a holder that has joined no invalidation group when a writer takes the
// lock and fences. The same read sent plain, holding its lock, is granted.
func TestCarryingReadIsNeverGranted(t *testing.T) {
	w := newWorld(t)
	NewManager(w.cluster.Add("sv3"), w.reg).EnableLeases(time.Minute)
	ctx := context.Background()
	plain, err := w.soloRef("sv3", "st1", "st2").Invoke(ctx, InvokeReq{Action: "plain", Method: "get", LeaseHolder: "client"})
	if err != nil || plain.Lease == nil || plain.Lease.Seq != 1 {
		t.Fatalf("plain read = %+v, %v; want a lease at version 1", plain, err)
	}
	for i, c := range []struct {
		carry Carry
		ref   ServerRef
	}{{CarryCommit, w.soloRef("sv3", "st1")}, {CarryPrepare, w.soloRef("sv3", "st1", "st2")}} {
		resp, err := c.ref.Invoke(ctx, InvokeReq{Action: fmt.Sprintf("r%d", i), Method: "get", Solo: true, Carry: c.carry, LeaseHolder: "client"})
		if err != nil || resp.Carried != c.carry || resp.Vote.Dirty || resp.Vote.Err() != nil {
			t.Fatalf("carry %d: reply = %+v, %v; want a carried read-only vote", c.carry, resp, err)
		}
		if resp.Lease != nil {
			t.Fatalf("carry %d: a read that released its lock was granted %+v", c.carry, resp.Lease)
		}
	}
}

// TestSoloLeaderDrainsCombinerInSameRequest: a commutative op that arrives
// while a carrying leader holds the write lock is folded into the leader's
// write-back — which now happens in the leader's own request, right after
// its method — and is answered Batched with the batch size the leader's
// vote reports.
func TestSoloLeaderDrainsCombinerInSameRequest(t *testing.T) {
	w := newWorld(t)
	// The first "add" blocks inside the method, lock held, until released.
	entered, release := make(chan struct{}), make(chan struct{})
	first := true
	class := counterClass()
	add := class.Methods["add"]
	class.Methods["add"] = func(state, args []byte) ([]byte, []byte, error) {
		if first {
			first = false
			close(entered)
			<-release
		}
		return add(state, args)
	}
	class.Commutative = map[string]bool{"add": true}
	w.reg.Register(class)
	mgr := NewManager(w.cluster.Add("sv3"), w.reg)
	ctx := context.Background()

	type reply struct {
		resp InvokeResp
		err  error
	}
	leader, follower := make(chan reply, 1), make(chan reply, 1)
	go func() {
		resp, err := w.soloRef("sv3", "st1").Invoke(ctx, InvokeReq{Action: "lead", Method: "add", Args: []byte("1"), Solo: true, Carry: CarryCommit})
		leader <- reply{resp, err}
	}()
	<-entered
	go func() {
		resp, err := w.soloRef("sv3", "st1").Invoke(ctx, InvokeReq{Action: "follow", Method: "add", Args: []byte("10"), Solo: true, Carry: CarryCommit})
		follower <- reply{resp, err}
	}()
	in, _ := mgr.lookup(w.id)
	for deadline := time.Now().Add(5 * time.Second); in.comb.depth() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower never queued behind the leader")
		}
	}
	close(release)

	l, f := <-leader, <-follower
	if l.err != nil || f.err != nil {
		t.Fatalf("leader: %v, follower: %v", l.err, f.err)
	}
	// Both ops ran on version 1; the commit that carried them made 2.
	if l.resp.Batched || l.resp.Carried != CarryCommit || l.resp.Vote.BatchSize != 2 || string(l.resp.Result) != "1" || l.resp.Seq != 1 {
		t.Fatalf("leader reply = %+v; want a carried commit of a batch of 2, run on version 1", l.resp)
	}
	if !f.resp.Batched || f.resp.BatchSize != 2 || f.resp.Carried != CarryNone || string(f.resp.Result) != "11" || f.resp.Seq != 1 {
		t.Fatalf("follower reply = %+v; want Batched, the leader's batch size, nothing carried, run on version 1", f.resp)
	}
	if data, seq := w.stored(t, "st1"); data != "11" || seq != 2 {
		t.Fatalf("st1 holds %q/%d, want 11/2: one commit for both ops", data, seq)
	}
	if st, err := w.ref("sv3").Status(ctx); err != nil || st.Users != 0 {
		t.Fatalf("status = %+v, %v", st, err)
	}
}

// TestFoldedFollowerOfUndecidedLeaderIsUncertain: a follower folded into a
// leader's prepared write-back waits for the leader's outcome. When that
// never comes — the leader's client gave the action up without an Abort
// reaching this server — the follower's caller is released by its own
// deadline, and told the truth: the op may yet commit, so the answer is
// CodeCommitUncertain, not a refusal.
func TestFoldedFollowerOfUndecidedLeaderIsUncertain(t *testing.T) {
	w := newWorld(t)
	class := counterClass()
	class.Commutative = map[string]bool{"add": true}
	w.reg.Register(class)
	mgr := NewManager(w.cluster.Add("sv3"), w.reg)
	ctx := context.Background()
	// The leader holds the write lock, unprepared: the follower queues.
	if _, err := w.soloRef("sv3", "st1", "st2").Invoke(ctx, InvokeReq{Action: "lead", Method: "add", Args: []byte("1"), Solo: true}); err != nil {
		t.Fatal(err)
	}
	fctx, cancel := context.WithCancel(ctx)
	follower := make(chan error, 1)
	go func() {
		_, err := w.soloRef("sv3", "st1", "st2").Invoke(fctx, InvokeReq{Action: "follow", Method: "add", Args: []byte("10"), Solo: true, Carry: CarryPrepare})
		follower <- err
	}()
	in, _ := mgr.lookup(w.id)
	for deadline := time.Now().Add(5 * time.Second); in.comb.depth() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower never queued behind the leader")
		}
	}
	// The leader prepares — folding the follower — and is never heard of again.
	presp, err := w.ref("sv3").Prepare(ctx, "lead", []transport.Addr{"st1", "st2"}, false)
	if err != nil || presp.BatchSize != 2 {
		t.Fatalf("leader's prepare = %+v, %v; want a batch of 2", presp, err)
	}
	cancel()
	select {
	case err := <-follower:
		if rpc.CodeOf(err) != CodeCommitUncertain {
			t.Fatalf("follower's answer = %v, want %s", err, CodeCommitUncertain)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the follower is still waiting for a verdict that cannot come")
	}
}

// TestAbortOvertakingPrepareLeavesNothing: the client cancels a prepare (a
// sibling participant refused) and aborts at once, and over sockets the Abort
// is served while the Prepare is still at the stores. The Abort finds nothing
// prepared; the Prepare must not then record intentions nobody will ever
// resolve (a read-checking chaos schedule over mux found the entry: "instance
// not quiescent (users=0 prepared=1)" with the intention pending at the
// store, about one one-store run in seventy).
func TestAbortOvertakingPrepareLeavesNothing(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	if _, err := call(ctx, w.soloRef("sv1", "st1", "st2"), "a1", "add", []byte("3")); err != nil {
		t.Fatal(err)
	}
	w.cluster.Faults().OnReply(1, transport.ToMethod("st2", store.ServiceName, store.MethodPrepare), func(transport.Request) {
		if _, err := w.ref("sv1").Abort(ctx, "a1"); err != nil {
			t.Errorf("abort: %v", err)
		}
	})
	if _, err := w.ref("sv1").Prepare(ctx, "a1", []transport.Addr{"st1", "st2"}, false); rpc.CodeOf(err) != rpc.CodeRefused {
		t.Fatalf("prepare overtaken by its abort: err = %v, want a refusal", err)
	}
	if st, err := w.ref("sv1").Status(ctx); err != nil || st.Users != 0 || st.Prepared != 0 {
		t.Fatalf("status = %+v, %v", st, err)
	}
	for _, st := range []transport.Addr{"st1", "st2"} {
		if pend := w.cluster.Node(st).Store().PendingTxs(); len(pend) != 0 {
			t.Fatalf("%s still holds intentions %v", st, pend)
		}
	}
	if out, err := call(ctx, w.ref("sv1"), "a2", "get", nil); err != nil || string(out) != "0" {
		t.Fatalf("read after the abort = %q, %v; want the restored 0", out, err)
	}
}

// onePhaseStoreRound matches the one-phase round at store st: the store
// Prepare that commits in the same round.
func onePhaseStoreRound(st transport.Addr) transport.FaultRule {
	prepare := transport.ToMethod(st, store.ServiceName, store.MethodPrepare)
	return func(req transport.Request) bool {
		var q store.PrepareReq
		return prepare(req) && rpc.Decode(req.Payload, &q) == nil && q.OnePhase
	}
}

// TestAbortOvertakingOnePhaseRoundKeepsItsCommit: the same race with a
// one-phase round. The Abort is served while the one store is committing the
// copy, and rolls the instance back to version 1 while the store moves to 2.
// The store's commit stands, so the round's answer is no refusal, and the
// rolled-back instance goes: the next request reloads version 2, and the
// next write commits version 3 on top of it instead of over it.
func TestAbortOvertakingOnePhaseRoundKeepsItsCommit(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.soloRef("sv1", "st1")
	if _, err := call(ctx, ref, "a1", "add", []byte("3")); err != nil {
		t.Fatal(err)
	}
	w.cluster.Faults().OnReply(1, onePhaseStoreRound("st1"), func(transport.Request) {
		if _, err := w.ref("sv1").Abort(ctx, "a1"); err != nil {
			t.Errorf("abort: %v", err)
		}
	})
	if _, err := w.ref("sv1").Prepare(ctx, "a1", []transport.Addr{"st1"}, true); rpc.CodeOf(err) != CodeCommitUncertain {
		t.Fatalf("one-phase round overtaken by its abort: err = %v, want %s", err, CodeCommitUncertain)
	}
	if resp, err := ref.Invoke(ctx, InvokeReq{Action: "a2", Method: "get", Solo: true, Carry: CarryCommit}); err != nil || string(resp.Result) != "3" {
		t.Fatalf("read after the overtaken round = %q, %v; want the committed 3", resp.Result, err)
	}
	if resp, err := ref.Invoke(ctx, InvokeReq{Action: "a3", Method: "add", Args: []byte("1"), Solo: true, Carry: CarryCommit}); err != nil || resp.Vote.Err() != nil {
		t.Fatalf("write after the overtaken round: %v, vote %v", err, resp.Vote.Err())
	}
	if data, seq := w.stored(t, "st1"); data != "4" || seq != 3 {
		t.Fatalf("st1 holds %q/%d, want 4/3", data, seq)
	}
}

// TestFoldedFollowerOfAnInDoubtOnePhaseRoundIsNotRetried: an op folded into
// a one-phase round goes to the store with it, and here the store commits
// both. The leader's server then loses track of the round — its Abort
// overtakes the round, or the round's reply is lost and the two-phase
// re-prepare that follows finds the copy stale and destroys it — and must not
// tell the follower to retry: its effect may be, and is, committed.
func TestFoldedFollowerOfAnInDoubtOnePhaseRoundIsNotRetried(t *testing.T) {
	onePhaseRound := onePhaseStoreRound("st1")
	st1 := []transport.Addr{"st1"}
	for _, overtaken := range []bool{true, false} {
		w := newWorld(t)
		class := counterClass()
		class.Commutative = map[string]bool{"add": true}
		w.reg.Register(class)
		mgr := NewManager(w.cluster.Add("sv3"), w.reg)
		ctx := context.Background()
		if _, err := call(ctx, w.soloRef("sv3", "st1"), "lead", "add", []byte("1")); err != nil {
			t.Fatal(err)
		}
		follower := make(chan error, 1)
		go func() {
			_, err := w.soloRef("sv3", "st1").Invoke(ctx, InvokeReq{Action: "follow", Method: "add", Args: []byte("10"), Solo: true, Carry: CarryCommit})
			follower <- err
		}()
		in, _ := mgr.lookup(w.id)
		for deadline := time.Now().Add(5 * time.Second); in.comb.depth() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the follower never queued behind the leader")
			}
		}
		if overtaken {
			w.cluster.Faults().OnReply(1, onePhaseRound, func(transport.Request) {
				if _, err := w.ref("sv3").Abort(ctx, "lead"); err != nil {
					t.Errorf("abort: %v", err)
				}
			})
		} else {
			w.cluster.Faults().DropReplies(1, onePhaseRound)
		}
		if _, err := w.ref("sv3").Prepare(ctx, "lead", st1, true); rpc.CodeOf(err) != CodeCommitUncertain {
			t.Fatalf("overtaken %v: leader's round: err = %v, want %s", overtaken, err, CodeCommitUncertain)
		}
		if !overtaken {
			if _, err := w.ref("sv3").Prepare(ctx, "lead", st1, false); rpc.CodeOf(err) != CodeStaleServer {
				t.Fatalf("leader's re-prepare: err = %v, want %s", err, CodeStaleServer)
			}
		}
		if err := <-follower; rpc.CodeOf(err) != CodeCommitUncertain {
			t.Fatalf("overtaken %v: folded follower's answer = %v, want %s", overtaken, err, CodeCommitUncertain)
		}
		if data, seq := w.stored(t, "st1"); data != "11" || seq != 2 {
			t.Fatalf("overtaken %v: st1 holds %q/%d, want 11/2: both ops committed", overtaken, data, seq)
		}
	}
}
