package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// TestChaosGrayFailure: schedules extended with gray-failure injections —
// nodes that execute everything but answer past every deadline. The
// invariants must hold even though the sick nodes' side effects stand
// while their callers time out.
func TestChaosGrayFailure(t *testing.T) {
	for _, seed := range seeds(701, 4) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep := runSeed(t, Config{Seed: seed, Workload: WorkloadCounter, GrayFailures: true})
			applied := 0
			for _, e := range rep.Schedule {
				if strings.Contains(e, "gray-fail") {
					applied++
				}
			}
			if applied == 0 {
				t.Errorf("seed %d: extended schedule applied no gray-fail event:\n  %s",
					seed, strings.Join(rep.Schedule, "\n  "))
			}
		})
	}
}

// latP99 returns ~the p99 of a latency sample (max of all but the top 1%,
// which for small n is simply the max).
func latP99(durs []time.Duration) time.Duration {
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := len(s) * 99 / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// TestGrayFailureTailBound is the acceptance bound for gray failures: one
// store gray-failed with a 5s reply hold must not drag the tail of
// actions that never touch it. Non-involved (other-shard) actions keep
// p99 under 10× the healthy baseline even while involved callers are
// timing out against the sick store concurrently.
func TestGrayFailureTailBound(t *testing.T) {
	sys, w := openT(t, arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(2), arjuna.WithObjects(8), arjuna.WithShards(2))
	// Find one object per shard.
	shardObj := map[int]uid.UID{}
	for _, id := range w.Objects {
		if _, ok := shardObj[sys.ShardOf(id)]; !ok {
			shardObj[sys.ShardOf(id)] = id
		}
	}
	if len(shardObj) < 2 {
		t.Fatal("objects did not hash onto both shards")
	}
	healthyObj, sickObj := shardObj[1], shardObj[2]
	sickStore := w.Groups[1].Sts[0]

	run := func(cl *arjuna.Client, obj uid.UID, timeout time.Duration) (time.Duration, bool) {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		start := time.Now()
		_, _, err := invoke1(ctx, cl, obj, "add")
		return time.Since(start), err == nil
	}
	// Single-attempt clients: the bound is on one action's latency, and the
	// involved caller is meant to burn its deadline, not back off.
	client := func(name transport.Addr) *arjuna.Client {
		return clientT(t, sys, string(name), arjuna.ClientScheme(core.SchemeIndependent), arjuna.ClientRetry(1, 0))
	}

	// Healthy baseline on shard 1.
	c1 := client(w.Clients[0])
	var healthy []time.Duration
	for i := 0; i < 40; i++ {
		d, ok := run(c1, healthyObj, 2*time.Second)
		if !ok {
			t.Fatalf("healthy action %d did not commit", i)
		}
		healthy = append(healthy, d)
	}
	baseline := latP99(healthy)
	if floor := 2 * time.Millisecond; baseline < floor {
		baseline = floor
	}

	// Gray-fail shard 2's store: every reply held 5s, side effects stand.
	w.Cluster.Faults().DelayReplies(1, -1, 5*time.Second, transport.To(sickStore))

	// Involved load: a second client hammers the sick shard, each action
	// timing out against the held replies.
	stop := make(chan struct{})
	c2 := client(w.Clients[1])
	var involved sync.WaitGroup
	involved.Add(1)
	go func() {
		defer involved.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			run(c2, sickObj, 100*time.Millisecond)
		}
	}()

	var sick []time.Duration
	for i := 0; i < 40; i++ {
		d, ok := run(c1, healthyObj, 2*time.Second)
		if !ok {
			t.Fatalf("non-involved action %d did not commit with %s gray-failed", i, sickStore)
		}
		sick = append(sick, d)
	}
	close(stop)
	involved.Wait()

	if got, bound := latP99(sick), 10*baseline; got > bound {
		t.Fatalf("non-involved p99 = %v with %s gray-failed, want < 10× healthy baseline %v",
			got, sickStore, baseline)
	}
}

// TestGrayFailureBreakerContainsSickStore shows a gray store turning
// from a per-action timeout tax into a one-off cost: the first actions
// burn their deadline against the held replies, then the store is
// contained — excluded from the St view by the §4.2 machinery, with the
// server's breaker fast-failing any later probe of it — and every
// subsequent action commits fast.
func TestGrayFailureBreakerContainsSickStore(t *testing.T) {
	sys, w := openT(t, arjuna.WithServers(1), arjuna.WithStores(2),
		arjuna.WithBreakerConfig(rpc.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour}))
	sys.Faults().DelayReplies(1, -1, 5*time.Second, transport.To("st2"))

	cl := clientT(t, sys, "c1", arjuna.ClientScheme(core.SchemeIndependent), arjuna.ClientRetry(1, 0))
	const actions = 20
	durs := make([]time.Duration, actions)
	committed := make([]bool, actions)
	for i := 0; i < actions; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		start := time.Now()
		_, _, err := invoke1(ctx, cl, w.Objects[0], "add")
		durs[i] = time.Since(start)
		committed[i] = err == nil
		cancel()
	}
	// Steady state: the tail of the run commits fast — the sick store is
	// fast-failed and excluded, not waited for.
	for i := actions - 10; i < actions; i++ {
		if !committed[i] {
			t.Fatalf("action %d did not commit in degraded mode (durations %v)", i, durs)
		}
		if durs[i] >= 250*time.Millisecond {
			t.Fatalf("action %d took %v in degraded mode, want fast-fail (durations %v)", i, durs[i], durs)
		}
	}
	// The sick store was contained: either the §4.2 exclusion removed it
	// from the object's St view (one timeout was enough), or the server's
	// breaker toward it tripped open. Both stop further waits on it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	view, err := sys.StoreView(ctx, w.Objects[0])
	if err != nil {
		t.Fatalf("final St view: %v", err)
	}
	excluded := true
	for _, st := range view {
		if st == "st2" {
			excluded = false
		}
	}
	if !excluded && w.Cluster.Node("sv1").Breakers().State("st2") != rpc.StateOpen {
		t.Fatalf("st2 neither excluded from St view %v nor breaker-open (%v)",
			view, w.Cluster.Node("sv1").Breakers().State("st2"))
	}
}
