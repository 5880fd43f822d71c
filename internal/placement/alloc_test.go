//go:build !race

package placement

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
	"repro/internal/uid"
)

// TestWarmResolveAllocs pins the bind path's placement cost: a resolution
// the client has cached is a map look-up and a scan of the shard table,
// not a copy and a sort of it (which is what Shard used to do on its way
// to the look-up). A one-row client — one group, no placement node — has
// nothing to look up: its Resolve allocates nothing and sends nothing.
func TestWarmResolveAllocs(t *testing.T) {
	c, _, _ := newReplicatedWorld(t)
	var calls atomic.Int64
	c.Faults().OnRequest(-1, func(transport.Request) bool { return true }, func(transport.Request) { calls.Add(1) })
	ctx, id := context.Background(), testUID(t, 9)

	cli := NewClient(c.Node("p1").Client(), testShards, "p1", "p2", "p3")
	if _, err := cli.AssignBatch(ctx, []uid.UID{id}, 2); err != nil {
		t.Fatal(err)
	}
	resolve := func() {
		info, _, err := cli.Resolve(ctx, id)
		if err != nil || info.ID != 2 {
			t.Fatalf("Resolve = shard %d, %v, want shard 2", info.ID, err)
		}
	}
	resolve()
	if got := testing.AllocsPerRun(200, resolve); got != 0 {
		t.Fatalf("a warm Resolve allocated %.0f objects, want 0", got)
	}

	one := NewClient(c.Node("p1").Client(), testShards[:1])
	before := calls.Load()
	resolveOne := func() {
		info, epoch, err := one.Resolve(ctx, id)
		if err != nil || info.ID != 1 || epoch != 0 {
			t.Fatalf("one-row Resolve = shard %d epoch %d, %v, want shard 1 epoch 0", info.ID, epoch, err)
		}
	}
	if got := testing.AllocsPerRun(200, resolveOne); got != 0 {
		t.Fatalf("a one-row Resolve allocated %.0f objects, want 0", got)
	}
	if n := calls.Load() - before; n != 0 {
		t.Fatalf("one-row Resolves sent %d calls, want none", n)
	}
}
