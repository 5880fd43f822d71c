package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestDynamicReplicationDegree exercises §4.1.2's administrative use of
// Insert/Remove — "The Insert and Remove operations can be used by
// specific application programs for explicitly changing the membership of
// Sv (for varying the degree of server replication)" — together with St
// growth via state copy + Include. The degree changes must not disturb
// running applications (§2.3(1)).
func TestDynamicReplicationDegree(t *testing.T) {
	w := newWorld(t, 2, 1, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}

	// Grow Sv: an admin adds a third server node (it must exist and serve
	// the class; reuse sv-new as a registered node).
	n := w.cluster.Add("sv3")
	// Object managers are wired in newWorld for sv1/sv2 only; wire sv3.
	wireObjectManager(w, n)
	if _, err := cli.Do(ctx, InsertOp("admin1", w.id, "sv3")); err != nil {
		t.Fatal(err)
	}
	if err := cli.EndAction(ctx, "admin1", true); err != nil {
		t.Fatal(err)
	}

	// Grow St: copy the current committed state to a new store node, then
	// Include it — the §4.2 path, used here administratively.
	stNew := w.cluster.Add("st-new")
	v, err := w.cluster.Node("st1").Store().Read(w.id)
	if err != nil {
		t.Fatal(err)
	}
	stNew.Store().Put(w.id, v.Data, v.Seq)
	if _, err := cli.Include(ctx, "admin2", w.id, "st-new"); err != nil {
		t.Fatal(err)
	}
	if err := cli.EndAction(ctx, "admin2", true); err != nil {
		t.Fatal(err)
	}

	// An action now binds with the widened views and commits to both
	// stores via all three candidate servers.
	b := w.binder("c1", SchemeStandard, replica.Active, 0)
	if _, err := w.runAction(b, 1); err != nil {
		t.Fatal(err)
	}
	for _, st := range []transport.Addr{"st1", "st-new"} {
		v, err := w.cluster.Node(st).Store().Read(w.id)
		if err != nil || string(v.Data) != "1" || v.Seq != 2 {
			t.Fatalf("%s = %+v (%v)", st, v, err)
		}
	}

	// Shrink Sv back while the object is quiescent.
	if _, err := cli.Do(ctx, RemoveOp("admin3", w.id, "sv3")); err != nil {
		t.Fatal(err)
	}
	if err := cli.EndAction(ctx, "admin3", true); err != nil {
		t.Fatal(err)
	}
	sv, _, err := cli.GetServer(ctx, "peek", w.id, false, false)
	if err != nil || len(sv) != 2 {
		t.Fatalf("sv = %v (%v)", sv, err)
	}
	_ = cli.EndAction(ctx, "peek", true)
}

// TestDegreeChangeBlockedByActiveUsers: §2.3(1) requires degree changes to
// be "reflected in the naming and binding service without causing
// inconsistencies to current users" — realised by the write lock: the
// admin's Insert waits for the standard-scheme client's read lock.
func TestDegreeChangeBlockedByActiveUsers(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx := context.Background()
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	act := b.Actions.BeginTop()
	if _, err := b.Bind(ctx, act, w.id); err != nil {
		t.Fatal(err)
	}
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	shortCtx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	_, err := cli.Do(shortCtx, InsertOp("admin", w.id, "svX"))
	cancel()
	if err == nil {
		t.Fatal("Insert should wait for the active user")
	}
	_ = cli.EndAction(ctx, "admin", false)
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestActiveReplicationSequencerCrashMidAction: the first bound server is
// the multicast sequencer; it crashes between two invocations. The
// multicast fails over, the remaining replicas stay consistent, and the
// action commits (masking, §3.2(3)).
func TestActiveReplicationSequencerCrashMidAction(t *testing.T) {
	w := newWorld(t, 3, 2, 1)
	ctx := context.Background()
	b := w.binder("c1", SchemeStandard, replica.Active, 0)
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("sv1").Crash() // the sequencer
	resp, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")})
	if err != nil {
		t.Fatalf("invoke after sequencer crash: %v", err)
	}
	if string(resp.Result) != "2" {
		t.Fatalf("result = %q", resp.Result)
	}
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	v1, _ := w.storeValue("st1")
	v2, _ := w.storeValue("st2")
	if v1 != "2" || v2 != "2" {
		t.Fatalf("stores = %q/%q", v1, v2)
	}
}

// TestPartitionIsCrashEquivalent: a network partition between the client
// and a replica is indistinguishable from a crash — the binding breaks,
// the replica is masked, and after healing the stores are consistent.
func TestPartitionIsCrashEquivalent(t *testing.T) {
	w := newWorld(t, 2, 1, 1)
	// Partition c1 from sv1 (and sv1 from its peers' group relays).
	for _, peer := range []transport.Addr{"c1", "sv2", "st1", "db"} {
		w.cluster.Faults().Partition("sv1", peer)
	}
	b := w.binder("c1", SchemeStandard, replica.Active, 0)
	bd, err := w.runAction(b, 1)
	if err != nil {
		t.Fatalf("partitioned action: %v", err)
	}
	if got := bd.BrokenServers(); len(got) != 1 || got[0] != "sv1" {
		t.Fatalf("broken = %v", got)
	}
	val, _ := w.storeValue("st1")
	if val != "1" {
		t.Fatalf("store = %q", val)
	}
	// Heal; sv1's instance is now stale and the version-chain guard
	// prevents it from regressing the stores on a later action.
	for _, peer := range []transport.Addr{"c1", "sv2", "st1", "db"} {
		w.cluster.Faults().Heal("sv1", peer)
	}
	if _, err := w.runAction(b, 1); err != nil {
		// A stale-server abort is acceptable; the retry must succeed.
		if _, err := w.runAction(b, 1); err != nil {
			t.Fatalf("post-heal retry: %v", err)
		}
	}
	checkStInvariant(t, w, -2)
}

// wireObjectManager attaches an object manager (with group invocation) to
// a late-added node, mirroring newWorld's setup.
func wireObjectManager(_ *world, n *sim.Node) {
	reg := object.NewRegistry()
	reg.Register(counterClass())
	m := object.NewManager(n, reg)
	m.EnableGroupInvocation(group.NewHost(n.Server(), n.Client()))
}
