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

	// The report names the servers the attempt routed around, and the
	// error says their breakers did the skipping.
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	})
	if err == nil {
		t.Fatal("atomic succeeded with every server down")
	}
	if want := []transport.Addr{"sv1", "sv2"}; !slices.Equal(rep.BrokenServers, want) {
		t.Fatalf("report = %+v, want BrokenServers %v", rep, want)
	}
	if !errors.Is(err, arjuna.ErrPeerUnavailable) {
		t.Fatalf("err = %v, want ErrPeerUnavailable", err)
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

// TestCrashedStoreReportedAlikeOnEveryCarrier: what an action routed around
// is reported by the binding itself, so the report does not depend on the
// carrier. One server writes four objects to three stores after st3 crashed:
// the server's breaker toward st3 opens on the way, and every write still
// commits and names st3 among its excluded stores, in memory and over
// sockets alike.
func TestCrashedStoreReportedAlikeOnEveryCarrier(t *testing.T) {
	onBothCarriers(t, func(t *testing.T, carrier arjuna.Option) {
		sys := openT(t,
			arjuna.WithServers(1),
			arjuna.WithStores(3),
			arjuna.WithObjects(4),
			arjuna.WithBreakerConfig(arjuna.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour}),
			carrier,
		)
		cl := clientT(t, sys, "c1", arjuna.ClientRetry(1, 0))
		ctx := context.Background()
		if err := sys.Crash("st3"); err != nil {
			t.Fatal(err)
		}
		for i, obj := range sys.Objects() {
			rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
				_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
				return err
			})
			if err != nil {
				t.Fatalf("write %d: %v", i+1, err)
			}
			if !slices.Contains(rep.ExcludedStores, "st3") {
				t.Fatalf("write %d: report = %+v, want st3 among ExcludedStores", i+1, rep)
			}
		}
		// The later writes were breaker skips, not calls that timed out.
		if !slices.ContainsFunc(sys.BreakerStats(), func(b arjuna.BreakerStat) bool {
			return b.Node == "sv1" && b.Peer == "st3" && b.State == "open"
		}) {
			t.Fatalf("BreakerStats = %+v, want sv1's breaker toward st3 open", sys.BreakerStats())
		}
	})
}

// TestBreakerClosesThroughItsOwnProbe is the third way a breaker closes, and
// the only one a deployment with no fault plan and no restart has: the fault
// ends unannounced — no Recover, no Heal — and once the cooldown has passed
// the breaker admits one probe, whose success closes it.
func TestBreakerClosesThroughItsOwnProbe(t *testing.T) {
	sys := openT(t,
		arjuna.WithServers(1), // sv1 is the object's only server: nothing to fail over to
		arjuna.WithBreakerConfig(arjuna.BreakerConfig{Window: 4, Threshold: 2, Cooldown: 10 * time.Millisecond}),
	)
	cl := clientT(t, sys, "c1", arjuna.ClientRetry(1, 0))
	obj := sys.Objects()[0]
	ctx := context.Background()
	add := func() error {
		_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
			return err
		})
		return err
	}
	toSv1 := func() string {
		for _, b := range sys.BreakerStats() {
			if b.Node == "c1" && b.Peer == "sv1" {
				return b.State
			}
		}
		return "absent"
	}
	if err := add(); err != nil {
		t.Fatalf("healthy atomic: %v", err)
	}

	// Exactly Threshold requests are lost: the second trips the breaker and
	// spends the plan, so sv1 is reachable again from here on and only the
	// breaker stands between the client and it.
	sys.Faults().DropRequests(2, transport.To("sv1"))
	for i := 0; i < 2; i++ {
		if err := add(); !errors.Is(err, arjuna.ErrNoServers) || errors.Is(err, arjuna.ErrPeerUnavailable) {
			t.Fatalf("add %d with requests to sv1 dropped = %v, want ErrNoServers from the wire", i, err)
		}
	}
	if st := toSv1(); st != "open" {
		t.Fatalf("breaker c1 -> sv1 = %s after 2 lost requests, want open", st)
	}

	// Inside the cooldown an attempt fast-fails; past it, one is the probe.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := add()
		if err == nil {
			break
		}
		if !errors.Is(err, arjuna.ErrPeerUnavailable) {
			t.Fatalf("add behind the open breaker = %v, want ErrPeerUnavailable (the plan is spent)", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker c1 -> sv1 never admitted a probe: %s", toSv1())
		}
		time.Sleep(time.Millisecond)
	}
	if st := toSv1(); st != "closed" {
		t.Fatalf("breaker c1 -> sv1 = %s after the probe committed, want closed", st)
	}
	if got := counterValue(t, sys, obj); got != "2" {
		t.Fatalf("counter = %s, want 2 (the healthy add and the probe's)", got)
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
