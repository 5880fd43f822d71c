package placement

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/uid"
)

// testShards is a three-shard table.
var testShards = []ShardInfo{
	{ID: 1, DB: "db1", Svs: []transport.Addr{"sv1"}, Sts: []transport.Addr{"st1"}},
	{ID: 2, DB: "db2", Svs: []transport.Addr{"sv2"}, Sts: []transport.Addr{"st2"}},
	{ID: 3, DB: "db3", Svs: []transport.Addr{"sv3"}, Sts: []transport.Addr{"st3"}},
}

func testUID(t *testing.T, n byte) uid.UID {
	t.Helper()
	return uid.UID{Origin: "t", Epoch: 1, Seq: uint64(n)}
}

func TestRingCoversAllShards(t *testing.T) {
	ring := NewRing([]int{1, 2, 3}, 0)
	counts := make(map[int]int)
	for i := 0; i < 3000; i++ {
		s := ring.Lookup(fmt.Sprintf("key-%d", i))
		if s < 1 || s > 3 {
			t.Fatalf("lookup returned shard %d outside [1,3]", s)
		}
		counts[s]++
	}
	for s := 1; s <= 3; s++ {
		if counts[s] == 0 {
			t.Fatalf("shard %d received no keys: %v", s, counts)
		}
		// With 64 vnodes the imbalance should be mild; allow a wide margin.
		if counts[s] < 3000/3/3 {
			t.Fatalf("shard %d badly underloaded: %v", s, counts)
		}
	}
}

func TestRingDeterministic(t *testing.T) {
	a := NewRing([]int{1, 2, 3, 4}, 0)
	b := NewRing([]int{1, 2, 3, 4}, 0)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("obj-%d", i)
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("rings over the same shards disagree on %q", k)
		}
	}
}

func TestRingMinimalDisruption(t *testing.T) {
	// Consistent hashing's point: adding a shard reassigns roughly 1/n of
	// keys and never moves a key between two surviving shards.
	before := NewRing([]int{1, 2, 3}, 0)
	after := NewRing([]int{1, 2, 3, 4}, 0)
	moved := 0
	const n = 4000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		sb, sa := before.Lookup(k), after.Lookup(k)
		if sb != sa {
			moved++
			if sa != 4 {
				t.Fatalf("key %q moved between surviving shards %d → %d", k, sb, sa)
			}
		}
	}
	if moved == 0 || moved > n/2 {
		t.Fatalf("adding one shard to three moved %d/%d keys, want ≈1/4", moved, n)
	}
}

// TestFollowForwards: a client follows the forwards the group view
// databases hold, one hop per database, and caches where the object was
// found; a chain that comes back to a shard it left, or an unknown-object
// answer that names no destination, ends the follow with the error.
func TestFollowForwards(t *testing.T) {
	c := sim.NewCluster(transport.MemOptions{})
	for _, info := range testShards {
		core.NewDB(c.Add(info.DB))
	}
	rpcc, ctx, id := c.Add("c1").Client(), context.Background(), testUID(t, 1)
	at := func(db transport.Addr) core.Client { return core.Client{RPC: rpcc, DB: db} }
	do := func(db transport.Addr, op core.Op) {
		t.Helper()
		if _, err := at(db).Do(ctx, op, core.EndActionOp("m", true)); err != nil {
			t.Fatalf("%v at %s: %v", op.Kind, db, err)
		}
	}
	register := func(db transport.Addr) {
		do(db, core.RegisterOp("m", id, "counter", []transport.Addr{"sv"}, []transport.Addr{"st"}))
	}
	register("db1")
	do("db1", core.DeregisterOp("m", id, "db2"))
	register("db2")
	do("db2", core.DeregisterOp("m", id, "db3"))
	register("db3")

	cli := NewClient(testShards, NewRing([]int{1, 2, 3}, 0))
	follow := func(start int) ([]int, error) {
		cli.remember(id, start)
		var asked []int
		err := cli.Follow(id, func(info ShardInfo) error {
			asked = append(asked, info.ID)
			_, _, err := at(info.DB).GetView(ctx, "", id)
			return err
		})
		return asked, err
	}
	if asked, err := follow(1); err != nil || !slices.Equal(asked, []int{1, 2, 3}) {
		t.Fatalf("follow from shard 1 asked %v, %v; want [1 2 3], nil", asked, err)
	}
	if got := cli.Resolve(id).ID; got != 3 {
		t.Fatalf("Resolve after the follow = shard %d, want 3", got)
	}

	// db3's forward names db1, whose forward still names db2: the chain
	// comes back to shard 3.
	do("db3", core.DeregisterOp("m", id, "db1"))
	asked, err := follow(3)
	if !slices.Equal(asked, []int{3, 1, 2}) || core.MovedTo(err) != "db3" {
		t.Fatalf("follow round a cycle asked %v, %v; want [3 1 2] and db2's answer", asked, err)
	}

	ghost := testUID(t, 2)
	if err := cli.Follow(ghost, func(info ShardInfo) error {
		_, _, err := at(info.DB).GetView(ctx, "", ghost)
		return err
	}); rpc.CodeOf(err) != core.CodeUnknownObject {
		t.Fatalf("follow of an object no database knows = %v, want %s", err, core.CodeUnknownObject)
	}
}
