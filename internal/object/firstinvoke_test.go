package object

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// firstRef is the ref a binding uses for its first request: it names the
// class and the St view, so the server activates on a miss.
func (w *world) firstRef(node transport.Addr, id uid.UID) ServerRef {
	return ServerRef{Client: w.cluster.Node("client").Client(), Node: node, UID: id,
		Class: "counter", StNodes: []transport.Addr{"st1", "st2"}}
}

// TestConcurrentFirstInvokesAtFreshServer: n cold objects get their first
// invoke at one fresh server at once, and every one of them must answer
// its own Prepare afterwards. The requests race to create the node's
// instance table; if two of them each installed one, an object activated
// into the table that lost would be not-active to its next request. Then
// the same again on the incarnation after a crash.
func TestConcurrentFirstInvokesAtFreshServer(t *testing.T) {
	const n = 16
	for round := 0; round < 10; round++ {
		w := newWorld(t)
		gen := uid.NewGenerator("cold", 1)
		ids := make([]uid.UID, n)
		for i := range ids {
			ids[i] = gen.New()
			w.cluster.Node("st1").Store().Put(ids[i], []byte("0"), 1)
			w.cluster.Node("st2").Store().Put(ids[i], []byte("0"), 1)
		}
		for _, incarnation := range []string{"fresh", "recovered"} {
			ctx := context.Background()
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i, id := range ids {
				wg.Add(1)
				go func(i int, id uid.UID) {
					defer wg.Done()
					act := fmt.Sprintf("%s-%d", incarnation, i)
					if _, err := call(ctx, w.firstRef("sv1", id), act, "add", []byte("1")); err != nil {
						errs[i] = fmt.Errorf("first invoke: %w", err)
						return
					}
					ref := ServerRef{Client: w.cluster.Node("client").Client(), Node: "sv1", UID: id}
					if _, err := ref.Prepare(ctx, act, []transport.Addr{"st1", "st2"}, false); err != nil {
						errs[i] = fmt.Errorf("prepare: %w", err)
						return
					}
					_, errs[i] = ref.Commit(ctx, act)
				}(i, id)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("round %d, %s server, object %d: %v", round, incarnation, i, err)
				}
			}
			w.cluster.Node("sv1").Crash()
			w.cluster.Node("sv1").Recover(nil)
		}
	}
}

// TestFirstRequestActivatesLaterRequestDoesNot: only a request that names
// the class activates; a binding's later requests meeting a vanished
// instance are refused as before.
func TestFirstRequestActivatesLaterRequestDoesNot(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	if _, err := call(ctx, w.ref("sv1"), "a1", "get", nil); !IsNotActive(err) {
		t.Fatalf("plain invoke of a passive object: err = %v, want not-active", err)
	}
	if _, err := w.ref("sv1").Invoke(ctx, InvokeReq{Action: "a1"}); !IsNotActive(err) {
		t.Fatalf("plain method-less invoke of a passive object: err = %v, want not-active", err)
	}
	out, err := call(ctx, w.firstRef("sv1", w.id), "a1", "add", []byte("3"))
	if err != nil || string(out) != "3" {
		t.Fatalf("first invoke = %q, %v", out, err)
	}
	if st, err := w.ref("sv1").Status(ctx); err != nil || !st.Active || st.Users != 1 {
		t.Fatalf("status after first invoke = %+v, %v", st, err)
	}
	// The first request may be a method-less check just as well.
	check, err := w.firstRef("sv2", w.id).Invoke(ctx, InvokeReq{Action: "a2"})
	if err != nil || check.Seq != 1 {
		t.Fatalf("first method-less invoke = %+v, %v; want seq 1", check, err)
	}
	// Activation's own refusals come back under activation's codes.
	bad := w.firstRef("sv2", uid.NewGenerator("nowhere", 1).New())
	if _, err := call(ctx, bad, "a3", "get", nil); rpc.CodeOf(err) != CodeUnavailable {
		t.Fatalf("first invoke with no state anywhere: err = %v, want %s", err, CodeUnavailable)
	}
	bad = w.firstRef("sv2", uid.NewGenerator("nowhere", 1).New())
	bad.Class = "nonesuch"
	if _, err := call(ctx, bad, "a3", "get", nil); rpc.CodeOf(err) != rpc.CodeNotFound {
		t.Fatalf("first invoke of an unknown class: err = %v, want %s", err, rpc.CodeNotFound)
	}
}

// TestFirstInvokeAfterPassivationReactivates: the sweep destroys a
// quiescent instance between two actions; the next binding's first invoke
// brings it back from the stores instead of aborting.
func TestFirstInvokeAfterPassivationReactivates(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	mgr := NewManager(w.cluster.Add("sv3"), w.reg)
	if _, err := call(ctx, w.firstRef("sv3", w.id), "a1", "add", []byte("5")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ref("sv3").Prepare(ctx, "a1", []transport.Addr{"st1", "st2"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ref("sv3").Commit(ctx, "a1"); err != nil {
		t.Fatal(err)
	}
	if rep := mgr.PassivateQuiescent(); len(rep.Passivated) != 1 {
		t.Fatalf("sweep passivated %v, want the one quiescent instance", rep.Passivated)
	}
	out, err := call(ctx, w.firstRef("sv3", w.id), "a2", "get", nil)
	if err != nil || string(out) != "5" {
		t.Fatalf("first invoke after the sweep = %q, %v; want the committed 5", out, err)
	}
}

// TestFailoverRequestRevalidatesLeftBehindCopy: sv2 stood in for sv1 once
// and its copy is still activated; commits have gone through sv1 since. A
// binding whose first request reaches sv2 because sv1 did not answer says so,
// and sv2 checks its copy against the stores before it serves: a stale copy
// nobody uses is reloaded, one still in use is refused (the binding moves on),
// one an action is writing through stands — that writer's prepare is the
// check — and a request that did not come by failover asks for nothing.
func TestFailoverRequestRevalidatesLeftBehindCopy(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	stores := []transport.Addr{"st1", "st2"}
	commitAt := func(node transport.Addr, act, delta string) {
		t.Helper()
		if _, err := call(ctx, w.firstRef(node, w.id), act, "add", []byte(delta)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.ref(node).Prepare(ctx, act, stores, false); err != nil {
			t.Fatal(err)
		}
		if _, err := w.ref(node).Commit(ctx, act); err != nil {
			t.Fatal(err)
		}
	}
	failover := w.firstRef("sv2", w.id)
	failover.Failover = true

	// The copy at sv2 is current: a failover request is served from it.
	commitAt("sv2", "w1", "1")
	if out, err := call(ctx, failover, "r1", "get", nil); err != nil || string(out) != "1" {
		t.Fatalf("failover read of a current copy = %q, %v; want 1", out, err)
	}
	if _, err := w.ref("sv2").Abort(ctx, "r1"); err != nil {
		t.Fatal(err)
	}

	// Writers return to sv1; sv2's copy is left behind at 1.
	commitAt("sv1", "w2", "4")
	if out, err := call(ctx, w.firstRef("sv2", w.id), "r2", "get", nil); err != nil || string(out) != "1" {
		t.Fatalf("plain first read at sv2 = %q, %v; want the copy as it stands (1)", out, err)
	}
	// r2 still holds its read lock: the stale copy is in use and cannot be
	// replaced under it, so the failover request is turned away.
	if _, err := call(ctx, failover, "r3", "get", nil); rpc.CodeOf(err) != CodeUnavailable {
		t.Fatalf("failover read of a stale copy in use: err = %v, want %s", err, CodeUnavailable)
	}
	if _, err := w.ref("sv2").Abort(ctx, "r2"); err != nil {
		t.Fatal(err)
	}
	// Quiescent now: destroyed and reloaded inside the request.
	if out, err := call(ctx, failover, "r4", "get", nil); err != nil || string(out) != "5" {
		t.Fatalf("failover read of a stale quiescent copy = %q, %v; want the committed 5", out, err)
	}
	if _, err := w.ref("sv2").Abort(ctx, "r4"); err != nil {
		t.Fatal(err)
	}
	// The method-less check is a first request too.
	commitAt("sv1", "w3", "1")
	if check, err := failover.Invoke(ctx, InvokeReq{Action: "r5"}); err != nil || check.Seq != 4 {
		t.Fatalf("failover method-less invoke = %+v, %v; want the stores' seq 4", check, err)
	}
	if _, err := w.ref("sv2").Abort(ctx, "r5"); err != nil {
		t.Fatal(err)
	}

	// A copy behind the stores with a writer on it is left to that writer's
	// prepare: sv1's commit below lands while w4 holds sv2's write lock.
	if _, err := call(ctx, w.ref("sv2"), "w4", "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	commitAt("sv1", "w5", "1")
	readCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := call(readCtx, failover, "r6", "get", nil); rpc.CodeOf(err) != rpc.CodeRefused {
		t.Fatalf("failover read behind a writer: err = %v, want the read lock's wait to run out (%s)", err, rpc.CodeRefused)
	}
	if _, err := w.ref("sv2").Prepare(ctx, "w4", stores, false); rpc.CodeOf(err) != CodeStaleServer {
		t.Fatalf("prepare of the writer on the stale copy: err = %v, want %s", err, CodeStaleServer)
	}
}
