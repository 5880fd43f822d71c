package core

import (
	"context"
	"testing"

	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/uid"
)

func TestNameServerLocalOps(t *testing.T) {
	c := sim.NewCluster(transport.MemOptions{})
	ns := NewNameServer(c.Add("ns"))
	id := uid.UID{Origin: "x", Epoch: 1, Seq: 1}
	if got := ns.Get(id); len(got) != 0 {
		t.Fatalf("empty entry = %v", got)
	}
	ns.Set(id, []transport.Addr{"a", "b"})
	ns.Insert(id, "c")
	ns.Insert(id, "c") // idempotent
	if got := ns.Get(id); len(got) != 3 {
		t.Fatalf("after inserts = %v", got)
	}
	ns.Remove(id, "b")
	got := ns.Get(id)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("after remove = %v", got)
	}
	// Returned slice is a copy.
	got[0] = "mutated"
	if ns.Get(id)[0] != "a" {
		t.Fatal("Get aliases internal slice")
	}
}

func TestNameServerRPC(t *testing.T) {
	c := sim.NewCluster(transport.MemOptions{})
	NewNameServer(c.Add("ns"))
	c.Add("client")
	cli := NSClient{RPC: c.Node("client").Client(), Node: "ns"}
	ctx := context.Background()
	id := uid.UID{Origin: "x", Epoch: 1, Seq: 2}
	if err := cli.Set(ctx, id, []transport.Addr{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Insert(ctx, id, "b"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Remove(ctx, id, "a"); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Get(ctx, id)
	if err != nil || len(got) != 1 || got[0] != "b" {
		t.Fatalf("get = %v (%v)", got, err)
	}
}

func TestBinderNonAtomicSvBindsAndRepairs(t *testing.T) {
	w := newWorld(t, 2, 2, 1)
	ctx := context.Background()
	ns := NewNameServer(w.cluster.Node("db"))
	ns.Set(w.id, w.svs)
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 1)
	b.NameServer = &NSClient{RPC: w.cluster.Node("c1").Client(), Node: "db"}

	// Normal action works through the non-atomic Sv path.
	if _, err := w.runAction(b, 1); err != nil {
		t.Fatal(err)
	}
	// A crash: the binder repairs the name server immediately.
	w.cluster.Node("sv1").Crash()
	if _, err := w.runAction(b, 1); err != nil {
		t.Fatal(err)
	}
	if got := ns.Get(w.id); len(got) != 1 || got[0] != "sv2" {
		t.Fatalf("name server after repair = %v", got)
	}
	// Empty name server entry fails cleanly.
	ns.Set(w.id, nil)
	act := b.Actions.BeginTop()
	if _, err := b.Bind(ctx, act, w.id); err == nil {
		t.Fatal("bind with empty Sv should fail")
	}
	_ = act.Abort(ctx)
}

func TestReadOnlyStandardSchemeBindsOneServer(t *testing.T) {
	w := newWorld(t, 3, 1, 1)
	ctx := context.Background()
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 1)
	b.ReadOnly = true
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if got := bd.Servers(); len(got) != 1 {
		t.Fatalf("read-only bound %v", got)
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "get"}); err != nil {
		t.Fatal(err)
	}
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRefusedWhileUseCountsHeld(t *testing.T) {
	// §4.1.3 quiescence via use lists: a client of an enhanced scheme is
	// mid-action (its locks are released but its counters are not); a
	// recovering server's Insert is refused until the Decrement runs.
	w := newWorld(t, 2, 1, 2)
	ctx := context.Background()
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	cli := Client{RPC: w.cluster.Node("c2").Client(), DB: "db"}
	_, err = cli.Do(ctx, InsertOp("ins", w.id, "sv2"))
	_ = cli.EndAction(ctx, "ins", false)
	if got := errCode(err); got != CodeNotQuiescent {
		t.Fatalf("Insert mid-use err = %v (code %q), want not-quiescent", err, got)
	}
	// After the action (and its Decrement, flushed from the binder) the
	// Insert goes through.
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	w.flushEnds()
	if _, err := cli.Do(ctx, InsertOp("ins2", w.id, "sv2")); err != nil {
		t.Fatalf("Insert after decrement: %v", err)
	}
	_ = cli.EndAction(ctx, "ins2", true)
}

func errCode(err error) string { return rpc.CodeOf(err) }
