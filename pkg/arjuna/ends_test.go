package arjuna_test

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/pkg/arjuna"
)

// TestActionEndFlushedBeforeQuiescenceWaits: every wait for quiescence in
// the deployment first sends the pending action-ends of every client the
// System made. Right after a write, whose end waits in its client's binder
// for a carrier, System.Recover of a server re-Inserts it — Insert refuses
// while any use count is held, and does not retry — and a Rebalance of the
// object deregisters it with the first Deregister it sends, where a refusal
// would send it again after a backoff.
func TestActionEndFlushedBeforeQuiescenceWaits(t *testing.T) {
	ctx := context.Background()
	write := func(t *testing.T, sys *arjuna.System) {
		t.Helper()
		cl := clientT(t, sys, "c1", arjuna.ClientFastBind())
		if _, _, err := cl.Apply(ctx, sys.Objects()[0], "add", []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("recover", func(t *testing.T) {
		sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(1))
		if err := sys.Crash("sv2"); err != nil {
			t.Fatal(err)
		}
		write(t, sys)
		if err := sys.Recover(ctx, "sv2"); err != nil {
			t.Fatalf("Recover(sv2) right after a write: %v", err)
		}
	})
	t.Run("move", func(t *testing.T) {
		sys := openT(t, arjuna.WithShards(2), arjuna.WithServers(1), arjuna.WithStores(1))
		var deregisters atomic.Int64
		sys.Faults().OnRequest(-1, func(req transport.Request) bool { return req.Service == core.ServiceName }, func(req transport.Request) {
			var q core.BatchReq
			if rpc.Decode(req.Payload, &q) == nil && len(q.Ops) > 0 && q.Ops[0].Kind == core.OpDeregister {
				deregisters.Add(1)
			}
		})
		write(t, sys)
		obj := sys.Objects()[0]
		if err := sys.Rebalance(ctx, obj, sys.ShardOf(obj)%2+1); err != nil {
			t.Fatal(err)
		}
		if n := deregisters.Load(); n != 1 {
			t.Fatalf("the move sent %d Deregisters, want 1: the first met a use count", n)
		}
	})
}
