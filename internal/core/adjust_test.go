package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/transport"
)

// TestAdjustModeIncrementsRunConcurrently: use-count adjustments from
// different actions share the Adjust lock — the second Increment is
// granted while the first action still holds on — and an abort undoes
// exactly its own deltas, leaving the concurrent action's committed
// counts intact.
func TestAdjustModeIncrementsRunConcurrently(t *testing.T) {
	w := newWorld(t, 1, 1, 2)
	ctx := context.Background()
	c1 := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	c2 := Client{RPC: w.cluster.Node("c2").Client(), DB: "db"}
	hosts := []transport.Addr{"sv1"}

	// Neither action ends before the other adjusts: with the old exclusive
	// discipline the second Increment would deadlock here (the test would
	// time out); under Adjust locks both are granted immediately.
	if _, err := c1.Do(ctx, IncrementOp("actA", w.id, "c1", hosts)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Do(ctx, IncrementOp("actB", w.id, "c2", hosts)); err != nil {
		t.Fatal(err)
	}
	// Both pending adjusters keep the object non-quiescent for Insert: its
	// write lock conflicts with Adjust, so the attempt parks until the
	// short deadline expires.
	insCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	if _, err := c1.Do(insCtx, InsertOp("ins", w.id, "sv9")); err == nil {
		cancel()
		t.Fatal("Insert succeeded alongside pending adjusters")
	}
	cancel()

	// actA aborts: its +1 for c1 is rolled back by the inverse delta.
	// actB commits: its +1 for c2 stays.
	if err := c1.EndAction(ctx, "actA", false); err != nil {
		t.Fatal(err)
	}
	if err := c2.EndAction(ctx, "actB", true); err != nil {
		t.Fatal(err)
	}
	_, use, err := c1.GetServer(ctx, "check", w.id, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := use["sv1"]["c1"]; n != 0 {
		t.Fatalf("aborted increment left use count %d for c1", n)
	}
	if n := use["sv1"]["c2"]; n != 1 {
		t.Fatalf("committed increment lost: use count %d for c2, want 1", n)
	}
	if err := c1.EndAction(ctx, "check", true); err != nil {
		t.Fatal(err)
	}

	// Drain c2's count; the object is quiescent again and Insert succeeds.
	if _, err := c2.Do(ctx, DecrementOp("drain", w.id, "c2", hosts)); err != nil {
		t.Fatal(err)
	}
	if err := c2.EndAction(ctx, "drain", true); err != nil {
		t.Fatal(err)
	}
	if !w.quiescent(w.id) {
		t.Fatal("object should be quiescent after the drain")
	}
	if _, err := c1.Do(ctx, InsertOp("ins2", w.id, "sv9")); err != nil {
		t.Fatal(err)
	}
	if err := c1.EndAction(ctx, "ins2", true); err != nil {
		t.Fatal(err)
	}
}

// TestFastBindCommitsAndDrainsUseCounts: the FastBind binder runs the
// whole bind-invoke-commit cycle correctly and its Adjust-mode use counts
// drain to quiescence at the end of the action.
func TestFastBindCommitsAndDrainsUseCounts(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	b.FastBind = true
	for i := 1; i <= 3; i++ {
		if _, err := w.runAction(b, 1); err != nil {
			t.Fatalf("action %d: %v", i, err)
		}
	}
	if got, _ := w.storeValue("st1"); got != "3" {
		t.Fatalf("counter = %q, want 3", got)
	}
	if !w.quiescent(w.id) {
		t.Fatal("use counts did not drain to zero")
	}
}

// TestFastBindFallsBackToExclusivePassOnBrokenServer: when activation
// finds a dead server, the fast bind aborts its shared-lock pass and
// reruns the exclusive Figure 7 bind, whose Remove repairs Sv.
func TestFastBindFallsBackToExclusivePassOnBrokenServer(t *testing.T) {
	w := newWorld(t, 2, 1, 1)
	w.cluster.Node("sv1").Crash()
	b := w.binder("c1", SchemeIndependent, replica.Active, 0)
	b.FastBind = true
	if _, err := w.runAction(b, 5); err != nil {
		t.Fatalf("action with crashed sv1: %v", err)
	}
	if got, _ := w.storeValue("st1"); got != "5" {
		t.Fatalf("counter = %q, want 5", got)
	}
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	sv, _, err := cli.GetServer(ctx, "check", w.id, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.EndAction(ctx, "check", true); err != nil {
		t.Fatal(err)
	}
	for _, h := range sv {
		if h == "sv1" {
			t.Fatalf("Sv still lists crashed sv1 after fallback bind: %v", sv)
		}
	}
	if len(sv) != 1 || sv[0] != "sv2" {
		t.Fatalf("Sv = %v, want [sv2]", sv)
	}
	if !w.quiescent(w.id) {
		t.Fatal("use counts did not drain to zero")
	}
	// The abandoned fast pass ended with abort (had its read lock stayed,
	// the exclusive pass above would never have been granted), and neither
	// pass left a lock behind.
	if n := w.lockHolders(); n != 0 {
		t.Fatalf("%d lock holders left after the fallback bind", n)
	}
}

// TestAdjustAbortAtZeroClampExact: a decrement that clamps at zero must
// not over-restore on abort (the inverse applies what actually happened,
// not what was asked).
func TestAdjustAbortAtZeroClampExact(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	hosts := []transport.Addr{"sv1"}

	// Decrement at zero (clamped no-op), then increment, all in one action.
	if _, err := cli.Do(ctx, DecrementOp("act", w.id, "c1", hosts)); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Do(ctx, IncrementOp("act", w.id, "c1", hosts)); err != nil {
		t.Fatal(err)
	}
	// Abort: the net effective delta is +1, so the rollback must land on
	// exactly zero — not at -1's clamped ghost or a stale +1.
	if err := cli.EndAction(ctx, "act", false); err != nil {
		t.Fatal(err)
	}
	if !w.quiescent(w.id) {
		t.Fatal("abort did not restore use counts to zero")
	}
}
