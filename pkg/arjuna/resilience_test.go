package arjuna_test

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/pkg/arjuna"

	"repro/internal/transport"
	"repro/internal/uid"
)

// openResilient builds a small deployment with aggressive breakers (trip
// after 2 failures, probe never expires within the test) so breaker
// behaviour is observable without burning timeouts.
func openResilient(t *testing.T, extra ...arjuna.Option) *arjuna.System {
	t.Helper()
	opts := append([]arjuna.Option{
		arjuna.WithServers(2),
		arjuna.WithStores(2),
		arjuna.WithBreakerConfig(arjuna.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour}),
	}, extra...)
	return openT(t, opts...)
}

func TestAtomicFastFailsThroughOpenBreaker(t *testing.T) {
	sys := openResilient(t)
	cl := clientT(t, sys, "c1", arjuna.ClientRetry(1, 0))
	obj := sys.Objects()[0]
	ctx := context.Background()

	// Warm up: a healthy commit, so the client's caches are populated.
	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	}); err != nil {
		t.Fatalf("healthy atomic: %v", err)
	}

	// Kill both servers: the client's own activation calls fail, the
	// breakers trip, and subsequent attempts fast-fail with the typed
	// sentinel (still classified ErrNoServers — the breaker cause rides
	// along on the chain).
	if err := sys.Crash("sv1"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Crash("sv2"); err != nil {
		t.Fatal(err)
	}
	var last error
	for i := 0; i < 6; i++ {
		_, last = cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
			return err
		})
		if last == nil {
			t.Fatal("atomic succeeded with every server down")
		}
		if errors.Is(last, arjuna.ErrPeerUnavailable) {
			break
		}
	}
	if !errors.Is(last, arjuna.ErrPeerUnavailable) {
		t.Fatalf("err = %v, want ErrPeerUnavailable after breakers trip", last)
	}
	// Still ErrNoServers — degraded mode does not change the category a
	// caller branches on, it adds a more specific cause.
	if !errors.Is(last, arjuna.ErrNoServers) {
		t.Fatalf("err = %v, want ErrNoServers too", last)
	}

	// The report names the skipped peers.
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	})
	if err == nil {
		t.Fatal("atomic succeeded with every server down")
	}
	if len(rep.BreakerSkipped) == 0 {
		t.Fatalf("report = %+v, want BreakerSkipped naming the servers", rep)
	}
	for _, p := range rep.BreakerSkipped {
		if p != "sv1" && p != "sv2" {
			t.Fatalf("unexpected skipped peer %q", p)
		}
	}

	// BreakerStats surfaces the open breakers.
	var open []arjuna.BreakerStat
	for _, st := range sys.BreakerStats() {
		if st.State == "open" {
			open = append(open, st)
		}
	}
	if len(open) == 0 {
		t.Fatalf("BreakerStats = %+v, want at least one open breaker", sys.BreakerStats())
	}

	// Recovery resets the breakers toward the servers; commits work again.
	if err := sys.Recover(ctx, "sv1"); err != nil {
		t.Fatalf("recover sv1: %v", err)
	}
	if err := sys.Recover(ctx, "sv2"); err != nil {
		t.Fatalf("recover sv2: %v", err)
	}
	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	}); err != nil {
		t.Fatalf("atomic after recovery: %v", err)
	}
}

func TestWithoutBreakersDisablesFastFail(t *testing.T) {
	sys := openT(t, arjuna.WithoutBreakers())
	cl := clientT(t, sys, "c1", arjuna.ClientRetry(1, 0))
	obj := sys.Objects()[0]
	ctx := context.Background()

	if err := sys.Crash("st1"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Crash("st2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
			return err
		})
		if errors.Is(err, arjuna.ErrPeerUnavailable) {
			t.Fatalf("breaker fast-fail with WithoutBreakers: %v", err)
		}
	}
	if stats := sys.BreakerStats(); len(stats) != 0 {
		t.Fatalf("BreakerStats = %+v, want none", stats)
	}
}

func TestHealthEndpointAndDetector(t *testing.T) {
	sys := openResilient(t, arjuna.WithHealthDetector(5*time.Millisecond))
	ctx := context.Background()

	// Every node answers the health RPC while healthy.
	for _, h := range sys.Health(ctx) {
		if !h.Up {
			t.Fatalf("node %s reported down while healthy", h.Node)
		}
	}
	if sus := sys.Suspected(); len(sus) != 0 {
		t.Fatalf("suspected = %v, want none", sus)
	}

	// A crashed node turns up suspected, and Health marks it down.
	if err := sys.Crash("sv1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !slices.Contains(sys.Suspected(), transport.Addr("sv1")) {
		if time.Now().After(deadline) {
			t.Fatalf("detector never suspected sv1: %v", sys.Suspected())
		}
		time.Sleep(2 * time.Millisecond)
	}
	hctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	for _, h := range sys.Health(hctx) {
		if h.Node == "sv1" && h.Up {
			t.Fatal("health reports crashed sv1 as up")
		}
	}

	// Recovery clears the suspicion.
	if err := sys.Recover(ctx, "sv1"); err != nil {
		t.Fatalf("recover sv1: %v", err)
	}
	for slices.Contains(sys.Suspected(), transport.Addr("sv1")) {
		if time.Now().After(deadline) {
			t.Fatalf("detector never cleared sv1: %v", sys.Suspected())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPlacementReplicaDeathKeepsBindsLive(t *testing.T) {
	sys := openT(t,
		arjuna.WithShards(2),
		arjuna.WithObjects(4),
		arjuna.WithBreakerConfig(arjuna.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour}),
	)
	ctx := context.Background()
	obj := sys.Objects()[0]

	// All three placement replicas are part of the deployment's status.
	var placements []transport.Addr
	for _, st := range sys.Status() {
		if st.Kind == "placement" {
			placements = append(placements, st.Name)
		}
	}
	if len(placements) != 3 {
		t.Fatalf("placement replicas = %v, want 3", placements)
	}

	// Killing any single replica leaves bind and commit live: a fresh
	// client (no cached placement) must resolve through a survivor.
	for _, victim := range placements {
		if err := sys.Crash(string(victim)); err != nil {
			t.Fatal(err)
		}
		cl := clientT(t, sys, "c1")
		if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
			return err
		}); err != nil {
			t.Fatalf("atomic with placement replica %s down: %v", victim, err)
		}
		if err := sys.Recover(ctx, string(victim)); err != nil {
			t.Fatalf("recover %s: %v", victim, err)
		}
	}
}

func TestWithPlacementReplicasOne(t *testing.T) {
	sys := openT(t, arjuna.WithShards(2), arjuna.WithPlacementReplicas(1))
	var placements []transport.Addr
	for _, st := range sys.Status() {
		if st.Kind == "placement" {
			placements = append(placements, st.Name)
		}
	}
	if len(placements) != 1 {
		t.Fatalf("placement replicas = %v, want 1", placements)
	}
	cl := clientT(t, sys, "c1")
	if _, err := cl.Atomic(context.Background(), func(tx *arjuna.Txn) error {
		_, err := tx.Object(sys.Objects()[0]).Invoke(context.Background(), "add", []byte("1"))
		return err
	}); err != nil {
		t.Fatalf("atomic: %v", err)
	}
}

// TestShardedDeploymentSurvivesPartitionedStore is the degraded-mode shape
// end to end: on a 3-shard deployment one shard's only store is partitioned
// from every other node. Actions on the other two shards keep committing;
// actions on the lost shard abort with ErrNoServers (its server can reach no
// store holding the state), and once the server's breaker toward the store
// has opened they abort without a network round — the cooldown outlasts the
// test, so nothing here waits for a probe.
func TestShardedDeploymentSurvivesPartitionedStore(t *testing.T) {
	sys := openResilient(t, arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithObjects(12))
	cl := clientT(t, sys, "c1", arjuna.ClientRetry(1, 0))
	ctx := context.Background()
	add := func(obj uid.UID) error {
		_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
			return err
		})
		return err
	}
	lost := sys.Shards()[2]
	sick, server := lost.Stores[0], lost.Servers[0]
	var lostObjs []uid.UID
	for _, obj := range sys.Objects() {
		if sys.ShardOf(obj) == lost.ID {
			lostObjs = append(lostObjs, obj)
		}
	}
	if len(lostObjs) == 0 {
		t.Fatalf("no object landed on shard %d; raise WithObjects", lost.ID)
	}
	for _, ns := range sys.Status() {
		if ns.Name != sick {
			sys.Faults().Partition(sick, ns.Name)
		}
	}
	breakerOpen := func() bool {
		return slices.ContainsFunc(sys.BreakerStats(), func(b arjuna.BreakerStat) bool {
			return b.Node == server && b.Peer == sick && b.State == "open"
		})
	}
	transportErrors := func() (n int64) {
		for _, s := range sys.Stats() {
			n += s.TransportErrors
		}
		return n
	}

	// Until the breaker trips every attempt pays a refused call to the store.
	for i := 0; i < 4 && !breakerOpen(); i++ {
		if err := add(lostObjs[i%len(lostObjs)]); !errors.Is(err, arjuna.ErrNoServers) {
			t.Fatalf("add with %s partitioned = %v, want ErrNoServers", sick, err)
		}
	}
	if !breakerOpen() {
		t.Fatalf("breaker %s -> %s not open after 4 failed activations: %+v", server, sick, sys.BreakerStats())
	}

	before := transportErrors()
	committed := map[int]int{}
	for _, obj := range sys.Objects() {
		shard, err := sys.ShardOf(obj), add(obj)
		switch {
		case shard != lost.ID && err != nil:
			t.Fatalf("add on healthy shard %d: %v", shard, err)
		case shard != lost.ID:
			committed[shard]++
		case !errors.Is(err, arjuna.ErrNoServers) || !errors.Is(err, arjuna.ErrAborted):
			t.Fatalf("add on lost shard %d = %v, want ErrAborted + ErrNoServers", shard, err)
		}
	}
	for _, sh := range sys.Shards()[:2] {
		if committed[sh.ID] == 0 {
			t.Fatalf("no commit on healthy shard %d (per shard: %v); raise WithObjects", sh.ID, committed)
		}
	}
	if n := transportErrors() - before; n != 0 {
		t.Fatalf("%d calls still went to the wire and failed with the breaker open, want 0 (fast-fail)", n)
	}
}
