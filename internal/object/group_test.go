package object

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// secondObject registers another counter at both stores and returns it,
// with a ref to its server at node.
func (w *world) secondObject(node transport.Addr) (uid.UID, ServerRef) {
	id := uid.NewGenerator("test", 2).New()
	w.cluster.Node("st1").Store().Put(id, []byte("0"), 1)
	w.cluster.Node("st2").Store().Put(id, []byte("0"), 1)
	return id, ServerRef{Client: w.cluster.Node("client").Client(), Node: node, UID: id}
}

// storeCalls counts, by method, the object-store requests sent to st.
func (w *world) storeCalls(st transport.Addr) func() map[string]int {
	var mu sync.Mutex
	calls := map[string]int{}
	w.cluster.Faults().OnRequest(-1,
		func(req transport.Request) bool { return req.To == st && req.Service == store.ServiceName },
		func(req transport.Request) {
			mu.Lock()
			calls[req.Method]++
			mu.Unlock()
		})
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := calls
		calls = map[string]int{}
		return out
	}
}

// writeBoth activates each object at its ref's node over both stores and adds
// to it under action.
func writeBoth(t *testing.T, ctx context.Context, refs []ServerRef, action string) {
	t.Helper()
	for _, ref := range refs {
		if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
			t.Fatal(err)
		}
		if _, err := call(ctx, ref, action, "add", []byte("5")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupedPrepareMergesStoreWrites: one Prepare naming two objects sends
// each store one Prepare carrying both writes, and one Commit naming both
// sends each store one Commit; each object gets its own vote and result.
func TestGroupedPrepareMergesStoreWrites(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	id2, ref2 := w.secondObject("sv1")
	refs := []ServerRef{w.ref("sv1"), ref2}
	writeBoth(t, ctx, refs, "a1")
	at1, at2 := w.storeCalls("st1"), w.storeCalls("st2")
	srv := Server{Client: w.cluster.Node("client").Client(), Node: "sv1"}
	both := []transport.Addr{"st1", "st2"}
	resp, err := srv.Prepare(ctx, PrepareReq{Action: "a1", Items: []PrepareItem{{UID: w.id.String(), StNodes: both}, {UID: id2.String(), StNodes: both}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range resp.Votes {
		if v.Err() != nil || !v.Dirty || v.NewSeq != 2 || !slices.Equal(v.PreparedNodes, both) || len(v.FailedNodes) != 0 {
			t.Fatalf("vote %d = %+v, want both stores prepared at seq 2", i, v)
		}
	}
	for st, calls := range map[string]map[string]int{"st1": at1(), "st2": at2()} {
		if calls[store.MethodPrepare] != 1 || len(calls) != 1 {
			t.Fatalf("%s was sent %v for the grouped prepare, want one Prepare", st, calls)
		}
	}
	end, err := srv.Commit(ctx, EndReq{Action: "a1", Items: []EndItem{{UID: w.id.String()}, {UID: id2.String()}}})
	if err != nil || end.Results[0].Err() != nil || end.Results[1].Err() != nil {
		t.Fatalf("grouped commit = %+v, %v", end, err)
	}
	for st, calls := range map[string]map[string]int{"st1": at1(), "st2": at2()} {
		if calls[store.MethodCommit] != 1 || len(calls) != 1 {
			t.Fatalf("%s was sent %v for the grouped commit, want one Commit", st, calls)
		}
	}
	for _, id := range []uid.UID{w.id, id2} {
		for _, st := range []transport.Addr{"st1", "st2"} {
			if v, err := w.cluster.Node(st).Store().Read(id); err != nil || string(v.Data) != "5" || v.Seq != 2 {
				t.Fatalf("%s holds %v at %q seq %d (%v), want 5 at seq 2", st, id, v.Data, v.Seq, err)
			}
		}
	}
}

// TestGroupedPrepareRefusalIsPerObject: a store that refuses one object's
// write refuses the Prepare carrying both objects' writes whole. The refusal
// must land on the object it is about: st2, which is behind on the second
// object, is a failed store of that object alone, and the first object's
// intention is recorded there as if it had travelled alone. Merged and left
// there, the refusal would exclude st2 for both.
func TestGroupedPrepareRefusalIsPerObject(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	id2, ref2 := w.secondObject("sv1")
	// st2 missed a commit of the second object: st1 holds seq 2, st2 seq 1.
	w.cluster.Node("st1").Store().Put(id2, []byte("1"), 2)
	refs := []ServerRef{w.ref("sv1"), ref2}
	writeBoth(t, ctx, refs, "a1")
	srv := Server{Client: w.cluster.Node("client").Client(), Node: "sv1"}
	both := []transport.Addr{"st1", "st2"}
	resp, err := srv.Prepare(ctx, PrepareReq{Action: "a1", Items: []PrepareItem{{UID: w.id.String(), StNodes: both}, {UID: id2.String(), StNodes: both}}})
	if err != nil {
		t.Fatal(err)
	}
	if v := resp.Votes[0]; v.Err() != nil || !slices.Equal(v.PreparedNodes, both) || len(v.FailedNodes) != 0 {
		t.Fatalf("first object's vote = %+v, want both stores prepared", v)
	}
	if v := resp.Votes[1]; v.Err() != nil || !slices.Equal(v.PreparedNodes, []transport.Addr{"st1"}) || !slices.Equal(v.FailedNodes, []transport.Addr{"st2"}) {
		t.Fatalf("second object's vote = %+v, want st1 prepared and st2 failed", v)
	}
	if _, err := srv.Commit(ctx, EndReq{Action: "a1", Items: []EndItem{{UID: w.id.String()}, {UID: id2.String()}}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.cluster.Node("st2").Store().Read(w.id); string(v.Data) != "5" || v.Seq != 2 {
		t.Fatalf("st2 holds the first object at %q seq %d, want 5 at seq 2", v.Data, v.Seq)
	}
	if v, _ := w.cluster.Node("st1").Store().Read(id2); string(v.Data) != "6" || v.Seq != 3 {
		t.Fatalf("st1 holds the second object at %q seq %d, want 6 at seq 3", v.Data, v.Seq)
	}
}

// TestGroupedRequestAnswersEachObject: an object that is not active here is
// refused in its own item; the others' answers are as they would be alone.
func TestGroupedRequestAnswersEachObject(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	id2, _ := w.secondObject("sv1")
	writeBoth(t, ctx, []ServerRef{w.ref("sv1")}, "a1")
	srv := Server{Client: w.cluster.Node("client").Client(), Node: "sv1"}
	resp, err := srv.Prepare(ctx, PrepareReq{Action: "a1", Items: []PrepareItem{{UID: id2.String(), StNodes: []transport.Addr{"st1"}}, {UID: w.id.String(), StNodes: []transport.Addr{"st1"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !IsNotActive(resp.Votes[0].Err()) {
		t.Fatalf("inactive object's vote = %+v, want not-active", resp.Votes[0])
	}
	if v := resp.Votes[1]; v.Err() != nil || !v.Dirty {
		t.Fatalf("active object's vote = %+v, want a dirty vote", v)
	}
	end, err := srv.Abort(ctx, EndReq{Action: "a1", Items: []EndItem{{UID: id2.String()}, {UID: w.id.String()}}})
	if err != nil || !IsNotActive(end.Results[0].Err()) || end.Results[1].Err() != nil {
		t.Fatalf("grouped abort = %+v, %v; want not-active for the first object alone", end, err)
	}
}

// TestGroupedCommitFencesSideBySide: two objects whose servers were just
// activated both wait out their first-commit lease grace in the commit. In
// one Commit naming both, they wait one window between them, not one each.
func TestGroupedCommitFencesSideBySide(t *testing.T) {
	const ttl = 60 * time.Millisecond
	w := newWorld(t)
	NewManager(w.cluster.Add("sv3"), w.reg).EnableLeases(ttl)
	ctx := context.Background()
	id2, ref2 := w.secondObject("sv3")
	writeBoth(t, ctx, []ServerRef{w.ref("sv3"), ref2}, "a1")
	srv := Server{Client: w.cluster.Node("client").Client(), Node: "sv3"}
	both := []transport.Addr{"st1", "st2"}
	if _, err := srv.Prepare(ctx, PrepareReq{Action: "a1", Items: []PrepareItem{{UID: w.id.String(), StNodes: both}, {UID: id2.String(), StNodes: both}}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	end, err := srv.Commit(ctx, EndReq{Action: "a1", Items: []EndItem{{UID: w.id.String()}, {UID: id2.String()}}})
	took := time.Since(start)
	if err != nil || end.Results[0].Err() != nil || end.Results[1].Err() != nil {
		t.Fatalf("grouped commit = %+v, %v", end, err)
	}
	if window := 2 * ttl; took < window || took >= 2*window {
		t.Fatalf("the grouped commit took %v, want one lease window of %v (two would be %v)", took, window, 2*window)
	}
}
