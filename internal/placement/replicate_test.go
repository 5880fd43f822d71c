package placement

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/uid"
)

// testShards is the two-shard table the replicated test worlds serve.
var testShards = []ShardInfo{
	{ID: 1, DB: "db1", Svs: []transport.Addr{"sv1"}, Sts: []transport.Addr{"st1"}},
	{ID: 2, DB: "db2", Svs: []transport.Addr{"sv2"}, Sts: []transport.Addr{"st2"}},
}

// newReplicatedWorld builds a cluster with three placement replicas (and
// breakers, so failover exercises the fast-fail path too).
func newReplicatedWorld(t *testing.T) (*sim.Cluster, []*Service, []*sim.Node) {
	t.Helper()
	c := sim.NewCluster(transport.MemOptions{})
	c.SetBreakers(rpc.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour})
	nodes := []*sim.Node{c.Add("p1"), c.Add("p2"), c.Add("p3")}
	svcs := NewReplicatedGroup(nodes, testShards)
	return c, svcs, nodes
}

func testUID(t *testing.T, n byte) uid.UID {
	t.Helper()
	return uid.UID{Origin: "t", Epoch: 1, Seq: uint64(n)}
}

func TestReplicatedWritesSyncToPeers(t *testing.T) {
	c, svcs, _ := newReplicatedWorld(t)
	cli := NewClient(c.Node("p1").Client(), testShards, "p1", "p2", "p3")
	id := testUID(t, 1)
	epochs, err := cli.AssignBatch(context.Background(), []uid.UID{id}, 2)
	if err != nil {
		t.Fatalf("assign: %v", err)
	}
	if epochs[0] != 1 {
		t.Fatalf("epoch = %d, want 1", epochs[0])
	}
	for i, s := range svcs {
		shard, e := s.Lookup(id)
		if shard != 2 || e != 1 {
			t.Fatalf("replica %d sees shard=%d epoch=%d, want 2/1", i, shard, e)
		}
	}
}

func TestReplicaRejectsWrites(t *testing.T) {
	c, _, _ := newReplicatedWorld(t)
	// A client (mis)configured with a replica as its first node gets a
	// typed refusal, not silent divergence.
	cli := NewClient(c.Node("p1").Client(), testShards, "p2", "p1", "p3")
	_, err := cli.AssignBatch(context.Background(), []uid.UID{testUID(t, 2)}, 1)
	if rpc.CodeOf(err) != CodeNotPrimary {
		t.Fatalf("err = %v, want code %s", err, CodeNotPrimary)
	}
}

func TestEpochFenceRejectsStaleSync(t *testing.T) {
	_, svcs, _ := newReplicatedWorld(t)
	id := testUID(t, 3)
	replica := svcs[1]
	replica.applySync([]SyncRec{{UID: id.String(), Shard: 2, Epoch: 5}})
	// A replayed older record must not regress the directory.
	replica.applySync([]SyncRec{{UID: id.String(), Shard: 1, Epoch: 3}})
	shard, epoch := replica.Lookup(id)
	if shard != 2 || epoch != 5 {
		t.Fatalf("stale sync regressed the directory: shard=%d epoch=%d", shard, epoch)
	}
}

func TestReadFailoverOnDeadReplica(t *testing.T) {
	c, _, nodes := newReplicatedWorld(t)
	reader := c.Add("client")
	cli := NewClient(reader.Client(), testShards, "p1", "p2", "p3")
	id := testUID(t, 4)
	if _, _, err := cli.Resolve(context.Background(), id); err != nil {
		t.Fatalf("healthy resolve: %v", err)
	}

	// Kill the primary: cached reads keep working, and a fresh client
	// with no cache fails over to a surviving replica.
	nodes[0].Crash()
	if _, _, err := cli.Resolve(context.Background(), id); err != nil {
		t.Fatalf("cached resolve with primary down: %v", err)
	}
	fresh := NewClient(reader.Client(), testShards, "p1", "p2", "p3")
	if _, _, err := fresh.Refresh(context.Background(), id); err != nil {
		t.Fatalf("refresh with primary down did not fail over: %v", err)
	}

	// Once the breaker toward p1 is open the failover is instant — and
	// still lands on a live replica.
	fresh2 := NewClient(reader.Client(), testShards, "p1", "p2", "p3")
	if _, _, err := fresh2.Refresh(context.Background(), id); err != nil {
		t.Fatalf("refresh via open breaker: %v", err)
	}

	// Every single replica death leaves reads live (kill one at a time).
	nodes[0].Recover(nil)
	for i, victim := range nodes {
		victim.Crash()
		probe := NewClient(reader.Client(), testShards, "p1", "p2", "p3")
		if _, _, err := probe.Refresh(context.Background(), id); err != nil {
			t.Fatalf("refresh with replica %d down: %v", i, err)
		}
		victim.Recover(nil)
	}
}

func TestCatchUpAfterReplicaCrash(t *testing.T) {
	c, svcs, nodes := newReplicatedWorld(t)
	cli := NewClient(c.Node("p1").Client(), testShards, "p1", "p2", "p3")
	id1, id2 := testUID(t, 5), testUID(t, 6)

	// Replica p3 misses two writes while down.
	nodes[2].Crash()
	if _, err := cli.AssignBatch(context.Background(), []uid.UID{id1}, 2); err != nil {
		t.Fatalf("assign: %v", err)
	}
	if _, err := cli.AssignBatch(context.Background(), []uid.UID{id2}, 1); err != nil {
		t.Fatalf("assign batch: %v", err)
	}
	// Recovery runs the OnRecover catch-up hook.
	nodes[2].Recover(nil)
	shard, epoch := svcs[2].Lookup(id1)
	if shard != 2 || epoch != 1 {
		t.Fatalf("replica missed assign after catch-up: shard=%d epoch=%d", shard, epoch)
	}
	if shard, _ := svcs[2].Lookup(id2); shard != 1 {
		t.Fatalf("replica missed batch assign after catch-up: shard=%d", shard)
	}
}

func TestReadAppErrorDoesNotFailOver(t *testing.T) {
	c, _, _ := newReplicatedWorld(t)
	cli := NewClient(c.Node("p1").Client(), testShards, "p1", "p2", "p3")
	// A malformed UID draws an application error from the first replica;
	// the client must surface it rather than retry the other replicas.
	_, err := cli.read(context.Background(), MethodLookup, mustEncode(t, &LookupReq{UID: "not-a-uid"}))
	var ae *rpc.AppError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want AppError", err)
	}
}

func mustEncode(t *testing.T, v rpc.Wire) []byte {
	t.Helper()
	b, err := rpc.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
