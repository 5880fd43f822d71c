//go:build !race

package arjuna_test

import (
	"context"
	"testing"

	"repro/pkg/arjuna"
)

// TestFacadeAllocs pins what one committed action allocates end to end —
// client, database, server and store all run on the caller in a Mem
// deployment, so AllocsPerRun sees every layer. The deployment is one
// group, so every bind goes through the placement binder over a one-row
// table, and the pin also holds that path to allocating nothing of its own.
// The budgets are the counts measured when each class last got cheaper —
// the database's own actions kept out of its lock table and the action's
// stash a short slice, one stable write per database message, the action-end carried by the
// next action's bind, the breaker-note
// context per attempt taken out, the per-call overhead before it, each solo
// class's one-phase Prepare message carried by its invoke, the read-only
// client's first bind holding no database lock — plus 5 %, rounded up: a
// later change that puts weight back on the path fails here, not in a
// benchmark run. An Atomic write sends that one-phase Prepare, and a
// two-object one the two-phase rounds, one message per phase naming both
// objects. Each action's end rides the next one's bind, so a class's count
// is the steady state's; the ends are flushed between classes, so that the
// previous class's last end, sent alone once the bound passes, is not
// counted against the next.
func TestFacadeAllocs(t *testing.T) {
	sys := openT(t, arjuna.WithShards(1), arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithObjects(2))
	rw := clientT(t, sys, "c1", arjuna.ClientFastBind())
	ro := clientT(t, sys, "c1", arjuna.ClientReadOnly())
	id, id2, ctx := sys.Objects()[0], sys.Objects()[1], context.Background()
	for _, c := range []struct {
		name   string
		op     func()
		budget float64
	}{
		{"Apply", func() {
			if _, _, err := rw.Apply(ctx, id, "add", []byte("1")); err != nil {
				t.Fatal(err)
			}
		}, 52}, // 49 measured; 53 with a name minted for each own action of a database message and the action's stash a map, 56 when last pinned; 59 with each commit of a database message written on its own, 62 when last pinned; 66 with the action-end a message of its own, 70 when last pinned; 68 with a breaker-note context per attempt, 84 when last pinned; 85 with a copy of the St view kept per binding, 86 before; 108 with the database's own actions in its action tables, keys rendered per op, records encoded afresh and a note context per call, 107 before one-item phase records, 117 with client-minted bind and decrement actions, 128 with a one-phase Prepare message, 226 with the per-call overhead
		{"Atomic+Invoke", func() {
			if _, err := rw.Atomic(ctx, func(tx *arjuna.Txn) error {
				_, err := tx.Object(id).Invoke(ctx, "add", []byte("1"))
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}, 61}, // 58 measured; 62 with a name minted for each own action of a database message and the action's stash a map, 66 when last pinned; 68 with each commit of a database message written on its own, 72 when last pinned; 75 with the action-end a message of its own, 79 when last pinned; 77 with a breaker-note context per attempt, 97 when last pinned; 98 with a copy of the St view kept per binding, 99 before; 121 with the database's own actions in its action tables, keys rendered per op, records encoded afresh, a note context per call and a list per lone item and store outcome, 117 before one-item phase records, 127 with client-minted bind and decrement actions, 128 before the one-phase Prepare shared its handler
		{"Atomic+Invoke two objects", func() {
			if _, err := rw.Atomic(ctx, func(tx *arjuna.Txn) error {
				if _, err := tx.Object(id).Invoke(ctx, "add", []byte("1")); err != nil {
					return err
				}
				_, err := tx.Object(id2).Invoke(ctx, "add", []byte("1"))
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}, 159}, // 151 measured; 156 with a name minted for each own action of a database message and the action's stash a map, 164 when last pinned; 163 with each commit of a database message written on its own, 172 when last pinned; 181 with the action-end a message of its own and a fan-out for a lone commit participant, 191 when last pinned; 183 with a breaker-note context per attempt, 221 when last pinned; 223 with a copy of the St view kept per binding, 231 before; 268 with the database's own actions in its action tables, keys rendered per op, records encoded afresh and a note context per call, 286 with a Prepare, a Commit and an action-end per object, 306 with client-minted bind and decrement actions, 318 before the one-phase Prepare shared its handler
		{"ReadOnly Atomic+Read", func() {
			if _, err := ro.Atomic(ctx, func(tx *arjuna.Txn) error {
				_, err := tx.Object(id).Read(ctx, "get", nil)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}, 33}, // 31 measured; 34 with a name minted for the database message's own action and the action's stash a map, 36 when last pinned; 36 with a breaker-note context per attempt, 45 when last pinned; 46 with a copy of the St view kept per binding; 51 with the database's keys rendered per op, a note context per call and the carried vote's item on the heap, 53 with a client-minted bind action, 66 with a locked bind, 75 with a one-phase Prepare message, 147 with the per-call overhead
	} {
		c.op() // warm-up: placement cache, activation, lock-table free lists
		if err := sys.World().FlushEnds(ctx); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, c.op)
		t.Logf("%s: %.0f allocations per action (budget %.0f)", c.name, got, c.budget)
		if got > c.budget {
			t.Errorf("%s: %.0f allocations per action, budget %.0f", c.name, got, c.budget)
		}
	}
}
