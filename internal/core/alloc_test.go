//go:build !race

package core

import (
	"context"
	"testing"

	"repro/internal/action"
	"repro/internal/replica"
)

// TestBindAllocs pins the exact allocations of the binder's database
// conversations over Mem, where client, transport and database all run on
// the caller, so AllocsPerRun sees every layer of them:
//
//   - an enhanced bind and its action-end: a FastBind writer binds and
//     aborts before any invoke, so the action sends the bind message, which
//     carries the previous action's end, and nothing else;
//   - an unpinned read-only bind: a ReadOnly binder binds and commits before
//     any invoke — the bind message alone.
//
// What remains, by a memory profile: for each database conversation, the
// request payload and reply frame, the decoded op and result slices, one
// block for all their address lists and each side's one string copy — the
// records themselves are values — and the database's batch bookkeeping; and
// the binder's and the action's own objects — the action and its name, the
// binding's group with the binding and its replica handle inside it, the
// object's rendered name.
//
// A change that adds an allocation to either path fails here; one that
// takes one away updates the pin, and says so.
func TestBindAllocs(t *testing.T) {
	ctx := context.Background()
	w := newWorld(t, 1, 1, 1)
	writer := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	writer.FastBind = true
	reader := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	reader.ReadOnly = true
	for _, c := range []struct {
		name string
		b    *Binder
		end  func(*action.Action) error
		want float64
	}{
		// 71 while the database's own actions went through its action
		// tables, rendered their keys per op and encoded each record into a
		// fresh buffer; 81 while the client minted, and ended, the bind and
		// decrement actions; 53 while each binding enlisted itself under a
		// stash key of its own; 52 while each binding kept a copy of the St
		// view it was bound over; 51 while each of its two conversations
		// put its request and reply on the heap at both ends; 43 while the
		// client's op list for the bind message was the caller's own array,
		// which the RPC layer's generic call moved to the heap; 42 while the
		// action-end was a message of its own; 35 while the action's
		// lone participant was rolled back through the fan-out, and 32
		// while the bind message's carried Decrement and its Increment of
		// the same counter were each written, through the store's
		// admission, where now they cancel and nothing is; 26 while the
		// database minted a name for each of a message's own actions; 24
		// while the action's stash was a map, and 22 while the database
		// copied the lists it returned, each list of a message decoded into
		// an array of its own, and the group, the binding, its replica
		// handle, the action's participant list, its resolve hook and its
		// hook list were each an object of their own.
		{"enhanced bind + action-end", writer, func(a *action.Action) error { return a.Abort(ctx) }, 13},
		// 30 while the database's own actions went through its action tables
		// and rendered their keys per op; 33 while the client minted, and
		// ended, the bind action; 31 while the binding's one-phase commit
		// built an empty action-end; 28 while each binding kept a copy of the
		// St view it was bound over; 27 while its conversation put its
		// request and reply on the heap at both ends; 23 while its op list
		// was the caller's own array, moved to the heap; 22 while the
		// database minted a name for the message's own action; 21 while the
		// action's stash was a map, and 19 while the database copied the
		// lists it returned, each list of a message decoded into an array
		// of its own, and the group, the binding, its replica handle, the
		// action's participant list and its report were each an object of
		// their own.
		{"unpinned read-only bind", reader, func(a *action.Action) error { _, err := a.Commit(ctx); return err }, 12},
	} {
		op := func() {
			act := c.b.Actions.BeginTop()
			if _, err := c.b.Bind(ctx, act, w.id); err != nil {
				t.Fatal(err)
			}
			if err := c.end(act); err != nil {
				t.Fatal(err)
			}
		}
		op() // warm-up: lock-table free lists, map buckets
		// The previous row's last end, sent alone once the bound passes, is
		// not this row's cost.
		w.flushEnds()
		got := testing.AllocsPerRun(200, op)
		t.Logf("%s: %.0f allocations", c.name, got)
		if got != c.want {
			t.Errorf("%s: %.0f allocations, pinned at %.0f", c.name, got, c.want)
		}
		if n := w.lockHolders(); n != 0 || !w.quiescent(w.id) {
			t.Fatalf("%s: %d lock holders left, quiescent %v", c.name, n, w.quiescent(w.id))
		}
	}
}
