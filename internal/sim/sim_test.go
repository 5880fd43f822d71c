package sim

import (
	"context"
	"errors"
	"sync"
	"testing"

	"path/filepath"

	"repro/internal/action"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

func TestAddAndLookup(t *testing.T) {
	c := NewCluster(transport.MemOptions{})
	a := c.Add("alpha")
	b := c.Add("beta")
	if c.Node("alpha") != a || c.Node("beta") != b {
		t.Fatal("lookup mismatch")
	}
	if c.Node("ghost") != nil {
		t.Fatal("unknown node should be nil")
	}
	nodes := c.Nodes()
	if len(nodes) != 2 || nodes[0].Name() != "alpha" {
		t.Fatalf("nodes = %v", nodes)
	}
	if !nodes[0].Up() || !nodes[1].Up() {
		t.Fatal("a node added is down")
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	c := NewCluster(transport.MemOptions{})
	c.Add("alpha")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Add("alpha")
}

func TestCrashMakesUnreachableAndWipesVolatile(t *testing.T) {
	c := NewCluster(transport.MemOptions{})
	n := c.Add("alpha")
	c.Add("beta")
	n.VolatileOrStore("activated", func() any { return 42 })

	// A service registered on alpha is callable...
	n.Server().Handle("ping", "Ping", rpc.Method(func(ctx context.Context, from transport.Addr, req rpc.Empty) (rpc.Empty, error) {
		return rpc.Empty{}, nil
	}))
	cli := c.Node("beta").Client()
	if _, err := rpc.Invoke[rpc.Empty, rpc.Empty](context.Background(), cli, "alpha", "ping", "Ping", rpc.Empty{}); err != nil {
		t.Fatalf("pre-crash call: %v", err)
	}

	n.Crash()
	if n.Up() {
		t.Fatal("node should be down")
	}
	if v := n.VolatileOrStore("activated", func() any { return "wiped" }); v != "wiped" {
		t.Fatalf("volatile storage should be wiped, still holds %v", v)
	}
	if _, err := rpc.Invoke[rpc.Empty, rpc.Empty](context.Background(), cli, "alpha", "ping", "Ping", rpc.Empty{}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("post-crash call err = %v", err)
	}
	if nodes := c.Nodes(); len(nodes) != 2 || nodes[0].Up() || !nodes[1].Up() {
		t.Fatal("after alpha's crash, want alpha down and beta up")
	}
}

func TestStableStoreSurvivesCrash(t *testing.T) {
	c := NewCluster(transport.MemOptions{})
	n := c.Add("alpha")
	gen := uid.NewGenerator("t", 1)
	id := gen.New()
	n.Store().Put(id, []byte("persistent"), 1)
	n.Crash()
	n.Recover(nil)
	v, err := n.Store().Read(id)
	if err != nil || string(v.Data) != "persistent" {
		t.Fatalf("stable data lost: %+v %v", v, err)
	}
}

func TestRecoverBumpsEpochAndRunsHooksAndReconnects(t *testing.T) {
	c := NewCluster(transport.MemOptions{})
	n := c.Add("alpha")
	c.Add("beta")
	n.Server().Handle("ping", "Ping", rpc.Method(func(ctx context.Context, from transport.Addr, req rpc.Empty) (rpc.Empty, error) {
		return rpc.Empty{}, nil
	}))
	hookRuns := 0
	n.OnRecover(func(node *Node) {
		if node != n {
			t.Error("hook got wrong node")
		}
		hookRuns++
	})
	e0 := n.Epoch()
	n.Crash()
	n.Recover(nil)
	if n.Epoch() != e0+1 {
		t.Fatalf("epoch = %d, want %d", n.Epoch(), e0+1)
	}
	if hookRuns != 1 {
		t.Fatalf("hook runs = %d", hookRuns)
	}
	cli := c.Node("beta").Client()
	if _, err := rpc.Invoke[rpc.Empty, rpc.Empty](context.Background(), cli, "alpha", "ping", "Ping", rpc.Empty{}); err != nil {
		t.Fatalf("post-recover call: %v", err)
	}
}

func TestCrashRecoverIdempotent(t *testing.T) {
	c := NewCluster(transport.MemOptions{})
	n := c.Add("alpha")
	n.Crash()
	n.Crash() // no-op
	n.Recover(nil)
	e := n.Epoch()
	n.Recover(nil) // no-op
	if n.Epoch() != e {
		t.Fatal("recover of an up node must not bump epoch")
	}
}

func TestRecoveryResolvesPendingIntentionsAgainstLog(t *testing.T) {
	c := NewCluster(transport.MemOptions{})
	n := c.Add("alpha")
	gen := uid.NewGenerator("t", 1)
	idA, idB := gen.New(), gen.New()
	n.Store().Put(idA, []byte("a0"), 1)
	n.Store().Put(idB, []byte("b0"), 1)
	if err := n.Store().Prepare("tx-win", []store.Write{{UID: idA, Data: []byte("a1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().Prepare("tx-lose", []store.Write{{UID: idB, Data: []byte("b1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	log := action.NewMemLog()
	log.Record("tx-win", store.OutcomeCommitted)
	n.Crash()
	n.Recover(log)
	if v, _ := n.Store().Read(idA); string(v.Data) != "a1" {
		t.Fatal("committed intention not applied at recovery")
	}
	if v, _ := n.Store().Read(idB); string(v.Data) != "b0" {
		t.Fatal("undecided intention should be rolled back")
	}
}

// TestVolatileOrStoreAgrees: concurrent first users of a key all get the
// one value that was stored, and a new incarnation starts over.
func TestVolatileOrStoreAgrees(t *testing.T) {
	n := NewCluster(transport.MemOptions{}).Add("alpha")
	for _, incarnation := range []string{"fresh", "recovered"} {
		got := make([]any, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = n.VolatileOrStore("k", func() any { return new(int) })
			}(i)
		}
		wg.Wait()
		for i := range got {
			if got[i] != got[0] {
				t.Fatalf("%s node: caller %d got a different value than caller 0", incarnation, i)
			}
		}
		before := got[0]
		n.Crash()
		n.Recover(nil)
		if after := n.VolatileOrStore("k", func() any { return new(int) }); after == before {
			t.Fatal("a volatile value survived the crash")
		}
	}
}

func TestOutcomeResolverConsultedOnNilLogRecovery(t *testing.T) {
	c := NewCluster(transport.MemOptions{})
	n := c.Add("alpha")
	id := uid.NewGenerator("t", 1).New()
	n.Store().Put(id, []byte("v0"), 1)
	if err := n.Store().Prepare("tx-1", []store.Write{{UID: id, Data: []byte("v1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	log := action.NewMemLog()
	log.Record("tx-1", store.OutcomeCommitted)
	var resolvedFor *Node
	c.SetOutcomeResolver(func(rn *Node) store.OutcomeLog {
		resolvedFor = rn
		return log
	})
	n.Crash()
	n.Recover(nil)
	if resolvedFor != n {
		t.Fatal("resolver not consulted (or wrong node) for nil-log recovery")
	}
	if v, _ := n.Store().Read(id); string(v.Data) != "v1" {
		t.Fatal("resolver's committed outcome not applied")
	}
	// An explicit log still overrides the resolver.
	if err := n.Store().Prepare("tx-2", []store.Write{{UID: id, Data: []byte("v2"), Seq: 3}}); err != nil {
		t.Fatal(err)
	}
	resolvedFor = nil
	n.Crash()
	n.Recover(action.NewMemLog()) // empty: presumed abort
	if resolvedFor != nil {
		t.Fatal("resolver must not be consulted when a log is passed")
	}
	if v, _ := n.Store().Read(id); string(v.Data) != "v1" {
		t.Fatal("explicit empty log should abort the pending intention")
	}
}

// diskCluster builds a cluster whose every node gets a disk backend
// under dir.
func diskCluster(t *testing.T, dir string) *Cluster {
	t.Helper()
	c := NewCluster(transport.MemOptions{})
	c.SetStorage(func(name transport.Addr) storage.Factory {
		return storage.DiskFactory(filepath.Join(dir, string(name)), storage.DiskOptions{})
	})
	return c
}

// TestDiskNodeCrashDropsAllProcessState is the acceptance criterion of
// the stable-storage refactor: crashing a disk-backed node leaves NO
// object or intention state in process memory — the store answers
// nothing while down — and recovery reloads everything from the
// directory.
func TestDiskNodeCrashDropsAllProcessState(t *testing.T) {
	c := diskCluster(t, t.TempDir())
	n := c.Add("alpha")
	id := uid.NewGenerator("t", 1).New()
	if err := n.Store().Put(id, []byte("durable"), 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().Prepare("tx-1", []store.Write{{UID: id, Data: []byte("d2"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}

	n.Crash()
	// The crashed process holds nothing: maps dropped, backend closed.
	if _, ok := n.Store().SeqOf(id); ok {
		t.Fatal("committed state still visible in process memory after crash")
	}
	if pend := n.Store().PendingTxs(); len(pend) != 0 {
		t.Fatalf("prepared intentions still in process memory: %v", pend)
	}
	if _, err := n.Store().Read(id); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("read on crashed disk node = %v, want store.ErrClosed", err)
	}

	// ReopenStable makes the durable state inspectable without bringing
	// the node up (the chaos harness's in-doubt accounting).
	if err := n.ReopenStable(); err != nil {
		t.Fatal(err)
	}
	if n.Up() {
		t.Fatal("ReopenStable must not bring the node up")
	}
	if pend := n.Store().PendingTxs(); len(pend) != 1 || pend[0] != "tx-1" {
		t.Fatalf("reloaded pending = %v, want [tx-1]", pend)
	}

	// Recovery with a committed outcome applies the replayed intention.
	log := action.NewMemLog()
	log.Record("tx-1", store.OutcomeCommitted)
	n.Recover(log)
	v, err := n.Store().Read(id)
	if err != nil || string(v.Data) != "d2" || v.Seq != 2 {
		t.Fatalf("after recovery: %q/%d (%v), want d2/2", v.Data, v.Seq, err)
	}
	if n.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", n.Epoch())
	}
}

// TestDiskNodeStateSurvivesBeyondTheNode: a second cluster over the same
// directory — the real restart, new process image — sees the first one's
// committed state.
func TestDiskNodeStateSurvivesBeyondTheNode(t *testing.T) {
	dir := t.TempDir()
	id := uid.NewGenerator("t", 1).New()
	c1 := diskCluster(t, dir)
	n1 := c1.Add("alpha")
	if err := n1.Store().Put(id, []byte("gen-1"), 7); err != nil {
		t.Fatal(err)
	}
	n1.Crash() // closes the files so a new open sees a clean directory

	c2 := diskCluster(t, dir)
	n2 := c2.Add("alpha")
	v, err := n2.Store().Read(id)
	if err != nil || string(v.Data) != "gen-1" || v.Seq != 7 {
		t.Fatalf("state did not survive process replacement: %+v (%v)", v, err)
	}
}
