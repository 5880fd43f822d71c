package placement

import (
	"fmt"
	"testing"

	"repro/internal/uid"
)

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

func TestServiceOverridesAndEpochs(t *testing.T) {
	svc := &Service{
		ring:      NewRing([]int{1, 2}, 0),
		shards:    map[int]ShardInfo{1: {ID: 1}, 2: {ID: 2}},
		overrides: make(map[uid.UID]int),
		epochs:    make(map[uid.UID]uint64),
	}
	id := uid.UID{Origin: "t", Epoch: 1, Seq: 7}
	ringShard, epoch := svc.Lookup(id)
	if epoch != 0 {
		t.Fatalf("fresh object epoch = %d, want 0", epoch)
	}
	other := 1
	if ringShard == 1 {
		other = 2
	}
	e1, err := svc.AssignBatch([]uid.UID{id}, other)
	if err != nil {
		t.Fatal(err)
	}
	if e1[0] != 1 {
		t.Fatalf("first assign epoch = %d, want 1", e1)
	}
	got, epoch := svc.Lookup(id)
	if got != other || epoch != 1 {
		t.Fatalf("after assign: shard=%d epoch=%d, want shard=%d epoch=1", got, epoch, other)
	}
	if _, err := svc.AssignBatch([]uid.UID{id}, 99); err == nil {
		t.Fatal("assign to unknown shard should fail")
	}
	e2, err := svc.AssignBatch([]uid.UID{id}, ringShard)
	if err != nil {
		t.Fatal(err)
	}
	if e2[0] != 2 {
		t.Fatalf("second assign epoch = %d, want 2", e2)
	}
}
