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
//     aborts before any invoke, so the action sends the bind message and
//     the action-end message and nothing else;
//   - an unpinned read-only bind: a ReadOnly binder binds and commits before
//     any invoke — the bind message alone.
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
		// stash key of its own.
		{"enhanced bind + action-end", writer, func(a *action.Action) error { return a.Abort(ctx) }, 52},
		// 30 while the database's own actions went through its action tables
		// and rendered their keys per op; 33 while the client minted, and
		// ended, the bind action; 31 while the binding's one-phase commit
		// built an empty action-end.
		{"unpinned read-only bind", reader, func(a *action.Action) error { _, err := a.Commit(ctx); return err }, 28},
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
		got := testing.AllocsPerRun(200, op)
		t.Logf("%s: %.0f allocations", c.name, got)
		if got != c.want {
			t.Errorf("%s: %.0f allocations, pinned at %.0f", c.name, got, c.want)
		}
		if n := w.lockHolders(); n != 0 || !w.db.Quiescent(w.id) {
			t.Fatalf("%s: %d lock holders left, quiescent %v", c.name, n, w.db.Quiescent(w.id))
		}
	}
}
