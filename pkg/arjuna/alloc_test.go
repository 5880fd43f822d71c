//go:build !race

package arjuna_test

import (
	"context"
	"testing"

	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// TestFacadeAllocs pins what one committed action allocates end to end —
// client, database, server and store all run on the caller in a Mem
// deployment, so AllocsPerRun sees every layer. The deployment is one
// group, so every bind goes through the placement binder over a one-row
// table, and the pin also holds that path to allocating nothing of its own;
// the cross-shard class, the benchmark mixes' two-object action, runs on
// three groups of one server and one store each, its objects at two of them.
// The budgets are the counts measured when each class last got cheaper —
// the attempt's client side in one object and the views shared instead of
// copied, the database's own actions kept out of its lock table and the
// action's stash a short slice, one stable write per database message, the
// action-end carried by the next action's bind, the breaker-note context
// per attempt taken out, the per-call overhead before it, each solo class's
// one-phase Prepare message carried by its invoke, the read-only client's
// first bind holding no database lock — plus 5 %, rounded up: a later
// change that puts weight back on the path fails here, not in a benchmark
// run. An Atomic write sends that one-phase Prepare, and a two-object one
// the two-phase rounds, one message per phase naming both objects. Each
// action's end rides the next one's bind, so a class's count is the steady
// state's; the ends are flushed between classes, so that the previous
// class's last end, sent alone once the bound passes, is not counted
// against the next.
func TestFacadeAllocs(t *testing.T) {
	ctx := context.Background()
	pin := func(sys *arjuna.System, name string, op func(), budget float64) {
		t.Helper()
		op() // warm-up: placement cache, activation, lock-table free lists
		if err := sys.World().FlushEnds(ctx); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, op)
		t.Logf("%s: %.0f allocations per action (budget %.0f)", name, got, budget)
		if got > budget {
			t.Errorf("%s: %.0f allocations per action, budget %.0f", name, got, budget)
		}
	}
	add := func(c *arjuna.Client, ids ...uid.UID) func() {
		return func() {
			if _, err := c.Atomic(ctx, func(tx *arjuna.Txn) error {
				for _, id := range ids {
					if _, err := tx.Object(id).Invoke(ctx, "add", []byte("1")); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sys := openT(t, arjuna.WithShards(1), arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithObjects(2))
	rw := clientT(t, sys, "c1", arjuna.ClientFastBind())
	ro := clientT(t, sys, "c1", arjuna.ClientReadOnly())
	id, id2 := sys.Objects()[0], sys.Objects()[1]
	pin(sys, "Apply", func() {
		if _, _, err := rw.Apply(ctx, id, "add", []byte("1")); err != nil {
			t.Fatal(err)
		}
	}, 35) // 33 measured; 49 with the attempt's client side in thirteen objects and the database's views copied or converted at each layer, 52 when last pinned; 53 with a name minted for each own action of a database message and the action's stash a map, 56 when last pinned; 59 with each commit of a database message written on its own, 62 when last pinned; 66 with the action-end a message of its own, 70 when last pinned; 68 with a breaker-note context per attempt, 84 when last pinned; 85 with a copy of the St view kept per binding, 86 before; 108 with the database's own actions in its action tables, keys rendered per op, records encoded afresh and a note context per call, 107 before one-item phase records, 117 with client-minted bind and decrement actions, 128 with a one-phase Prepare message, 226 with the per-call overhead
	pin(sys, "Atomic+Invoke", add(rw, id), 44)                   // 41 measured; 58 with the attempt's client side in thirteen objects and the database's views copied or converted at each layer, 61 when last pinned; 62 with a name minted for each own action of a database message and the action's stash a map, 66 when last pinned; 68 with each commit of a database message written on its own, 72 when last pinned; 75 with the action-end a message of its own, 79 when last pinned; 77 with a breaker-note context per attempt, 97 when last pinned; 98 with a copy of the St view kept per binding, 99 before; 121 with the database's own actions in its action tables, keys rendered per op, records encoded afresh, a note context per call and a list per lone item and store outcome, 117 before one-item phase records, 127 with client-minted bind and decrement actions, 128 before the one-phase Prepare shared its handler
	pin(sys, "Atomic+Invoke two objects", add(rw, id, id2), 125) // 119 measured; 151 with the attempt's client side in separate objects and the database's views copied or converted at each layer, 159 when last pinned; 156 with a name minted for each own action of a database message and the action's stash a map, 164 when last pinned; 163 with each commit of a database message written on its own, 172 when last pinned; 181 with the action-end a message of its own and a fan-out for a lone commit participant, 191 when last pinned; 183 with a breaker-note context per attempt, 221 when last pinned; 223 with a copy of the St view kept per binding, 231 before; 268 with the database's own actions in its action tables, keys rendered per op, records encoded afresh and a note context per call, 286 with a Prepare, a Commit and an action-end per object, 306 with client-minted bind and decrement actions, 318 before the one-phase Prepare shared its handler
	pin(sys, "ReadOnly Atomic+Read", func() {
		if _, err := ro.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(id).Read(ctx, "get", nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}, 19) // 18 measured; 31 with the attempt's client side in separate objects and the database's views copied or converted at each layer, 33 when last pinned; 34 with a name minted for the database message's own action and the action's stash a map, 36 when last pinned; 36 with a breaker-note context per attempt, 45 when last pinned; 46 with a copy of the St view kept per binding; 51 with the database's keys rendered per op, a note context per call and the carried vote's item on the heap, 53 with a client-minted bind action, 66 with a locked bind, 75 with a one-phase Prepare message, 147 with the per-call overhead

	sharded := openT(t, arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithObjects(8))
	a, b := crossShardPair(t, sharded)
	pin(sharded, "Atomic+Invoke two objects across shards", add(clientT(t, sharded, "c1", arjuna.ClientFastBind()), a, b), 143) // 136 measured; 169 with the attempt's client side in separate objects and the database's views copied or converted at each layer, when first pinned
}
