package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/uid"
)

// TestRecoverStoreNodePartitionedDB: a recovering store that cannot reach
// the group view database must fail cleanly (no half-recovery: the node
// stays out of St), and a retry after the heal must succeed and
// re-include it.
func TestRecoverStoreNodePartitionedDB(t *testing.T) {
	w := newWorld(t, 1, 2, 1)
	ctx := context.Background()
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	ids := []uid.UID{w.id}

	victim := w.cluster.Node("st2")
	victim.Crash()
	if _, err := w.runAction(b, 1); err != nil {
		t.Fatal(err) // commits on st1, excludes st2
	}
	victim.Recover(w.mgrs["c1"].Log())

	w.cluster.Faults().Partition("st2", "db")
	cctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	err := RecoverStoreNode(cctx, victim, "db", ids)
	cancel()
	if err == nil {
		t.Fatal("recovery should fail while partitioned from the DB")
	}
	view := currentView(t, w)
	for _, n := range view {
		if n == "st2" {
			t.Fatalf("st2 included despite failed recovery: %v", view)
		}
	}

	w.cluster.Faults().Heal("st2", "db")
	if err := RecoverStoreNode(ctx, victim, "db", ids); err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	view = currentView(t, w)
	found := false
	for _, n := range view {
		if n == "st2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("st2 not back in view after recovery: %v", view)
	}
	// And it must be caught up to the current committed state.
	s1, _ := w.cluster.Node("st1").Store().SeqOf(w.id)
	s2, _ := victim.Store().SeqOf(w.id)
	if s1 != s2 {
		t.Fatalf("recovered store not caught up: st1=%d st2=%d", s1, s2)
	}
}

// TestRecoverStoreNodeNoReachableSource: the view's only other member is
// down mid-recovery (the "source store crashes during catch-up" shape).
// The recovery must abort — including rolling back its own Include — and
// succeed once a source is back.
func TestRecoverStoreNodeNoReachableSource(t *testing.T) {
	w := newWorld(t, 1, 2, 1)
	ctx := context.Background()
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	ids := []uid.UID{w.id}

	victim := w.cluster.Node("st2")
	victim.Crash()
	if _, err := w.runAction(b, 1); err != nil {
		t.Fatal(err) // excludes st2; view = {st1}
	}
	victim.Recover(w.mgrs["c1"].Log())

	// The catch-up source dies before the recovery runs.
	w.cluster.Node("st1").Crash()
	err := RecoverStoreNode(ctx, victim, "db", ids)
	if err == nil || !strings.Contains(err.Error(), "no reachable St member") {
		t.Fatalf("err = %v, want no-reachable-St-member", err)
	}
	// The failed recovery must not have left st2 in the view (its Include
	// rolls back with the recovery action).
	for _, n := range currentView(t, w) {
		if n == "st2" {
			t.Fatal("failed recovery left st2 in the view")
		}
	}

	w.cluster.Node("st1").Recover(w.mgrs["c1"].Log())
	if err := RecoverStoreNode(ctx, victim, "db", ids); err != nil {
		t.Fatalf("retry with source up: %v", err)
	}
}

// TestRecoverServerNodePartitionedDB: server recovery needs the DB for its
// Insert; partitioned away it must fail, then succeed after the heal.
func TestRecoverServerNodePartitionedDB(t *testing.T) {
	w := newWorld(t, 2, 1, 1)
	ctx := context.Background()
	ids := []uid.UID{w.id}

	sv2 := w.cluster.Node("sv2")
	sv2.Crash()
	sv2.Recover(nil)

	w.cluster.Faults().Partition("sv2", "db")
	cctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	err := RecoverServerNode(cctx, sv2, "db", ids)
	cancel()
	if err == nil {
		t.Fatal("server recovery should fail while partitioned from the DB")
	}

	w.cluster.Faults().Heal("sv2", "db")
	if err := RecoverServerNode(ctx, sv2, "db", ids); err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	sv, _, err := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}.GetServer(ctx, "peek", w.id, false, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}.EndAction(ctx, "peek", true)
	found := false
	for _, n := range sv {
		if n == "sv2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sv2 not re-inserted after recovery: %v", sv)
	}
}

// TestRecoverServerNodeRefusedWhileObjectInUse: the §4.1.2 quiescence
// check — Insert's write lock / use-count check refuses while a client
// action is bound to the object, and the recovery reports the failure
// instead of hanging.
func TestRecoverServerNodeRefusedWhileObjectInUse(t *testing.T) {
	w := newWorld(t, 2, 1, 1)
	ctx := context.Background()
	ids := []uid.UID{w.id}

	// A client action binds (enhanced scheme: non-zero use counts) and
	// stays in flight.
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 0)
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}

	sv2 := w.cluster.Node("sv2")
	sv2.Crash()
	sv2.Recover(nil)
	cctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	err = RecoverServerNode(cctx, sv2, "db", ids)
	cancel()
	if err == nil {
		t.Fatal("Insert must be refused while the object is in use")
	}

	// After the action terminates, and its action-end has left the binder,
	// the object is quiescent again.
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	w.flushEnds()
	if err := RecoverServerNode(ctx, sv2, "db", ids); err != nil {
		t.Fatalf("recovery after quiesce: %v", err)
	}
}

func currentView(t *testing.T, w *world) []transport.Addr {
	t.Helper()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	view, _, err := cli.GetView(context.Background(), "view-peek", w.id)
	if err != nil {
		t.Fatalf("GetView: %v", err)
	}
	if err := cli.EndAction(context.Background(), "view-peek", true); err != nil {
		t.Fatalf("EndAction: %v", err)
	}
	return view
}
