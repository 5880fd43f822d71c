//go:build !race

package placement

import (
	"context"
	"testing"

	"repro/internal/uid"
)

// TestWarmResolveAllocs pins the bind path's placement cost: a resolution
// the client has cached is two map look-ups, not a copy and a sort of the
// shard table (which is what Shard used to do on its way to the look-up).
func TestWarmResolveAllocs(t *testing.T) {
	c, _, _ := newReplicatedWorld(t)
	cli := NewClient(c.Node("p1").Client(), "p1", "p2", "p3")
	ctx, id := context.Background(), testUID(t, 9)
	if _, err := cli.AssignBatch(ctx, []uid.UID{id}, 2); err != nil {
		t.Fatal(err)
	}
	resolve := func() {
		info, _, err := cli.Resolve(ctx, id)
		if err != nil || info.ID != 2 {
			t.Fatalf("Resolve = shard %d, %v, want shard 2", info.ID, err)
		}
	}
	resolve() // fetches the table
	if got := testing.AllocsPerRun(200, resolve); got != 0 {
		t.Fatalf("a warm Resolve allocated %.0f objects, want 0", got)
	}
}
