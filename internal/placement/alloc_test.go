//go:build !race

package placement

import (
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
)

// TestWarmResolveAllocs pins the bind path's placement cost: a resolution
// the client has cached is a map look-up and a scan of the shard table, and
// allocates nothing. A cold Resolve on a three-row table is the ring, and
// sends no message; a one-row client has nothing to look up at all.
func TestWarmResolveAllocs(t *testing.T) {
	c := sim.NewCluster(transport.MemOptions{})
	for _, info := range testShards {
		c.Add(info.DB)
	}
	var calls atomic.Int64
	c.Faults().OnRequest(-1, func(transport.Request) bool { return true }, func(transport.Request) { calls.Add(1) })
	id := testUID(t, 9)

	ring := NewRing([]int{1, 2, 3}, 0)
	cli := NewClient(testShards, ring)
	home := ring.Lookup(id.String())
	resolve := func() {
		if info := cli.Resolve(id); info.ID != home {
			t.Fatalf("Resolve = shard %d, want its ring shard %d", info.ID, home)
		}
	}
	resolve()
	if n := calls.Load(); n != 0 {
		t.Fatalf("a cold Resolve on a three-row table sent %d messages, want none", n)
	}
	if got := testing.AllocsPerRun(200, resolve); got != 0 {
		t.Fatalf("a warm Resolve allocated %.0f objects, want 0", got)
	}

	one := NewClient(testShards[:1], nil)
	resolveOne := func() {
		if info := one.Resolve(id); info.ID != 1 {
			t.Fatalf("one-row Resolve = shard %d, want shard 1", info.ID)
		}
	}
	if got := testing.AllocsPerRun(200, resolveOne); got != 0 {
		t.Fatalf("a one-row Resolve allocated %.0f objects, want 0", got)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("Resolves sent %d messages, want none", n)
	}
}
