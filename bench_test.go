// Benchmarks: one per experiment in DESIGN.md's index (E1-E12). The paper
// (ICDCS '93) has no measurement tables — its figures are protocol
// diagrams — so each benchmark times the executable scenario that
// reproduces the corresponding figure or claim and reports the shape
// metric (divergence count, availability, probes, abort rate) via
// b.ReportMetric. Absolute times are simulator-relative; the shapes are
// the reproduction target (see EXPERIMENTS.md).
package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/lockmgr"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// BenchmarkE1Divergence — Figure 1: reply loss to a replica group, naive
// vs sequencer-ordered multicast.
func BenchmarkE1Divergence(b *testing.B) {
	var naive, ordered int
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE1(experiments.E1Config{Replicas: 3, Trials: 6})
		if err != nil {
			b.Fatal(err)
		}
		naive += r.NaiveDiverged
		ordered += r.OrderedDiverged
	}
	b.ReportMetric(float64(naive)/float64(b.N), "naive-divergences/op")
	b.ReportMetric(float64(ordered)/float64(b.N), "ordered-divergences/op")
}

func benchAvailability(b *testing.B, cfg experiments.AvailConfig) {
	committed, total := 0, 0
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.RunAvailability(cfg)
		if err != nil {
			b.Fatal(err)
		}
		committed += r.Committed
		total += r.Committed + r.Aborted
		if r.InconsistentStores != 0 {
			b.Fatalf("store consistency violated %d times", r.InconsistentStores)
		}
	}
	b.ReportMetric(float64(committed)/float64(total), "availability")
}

// BenchmarkE2Unreplicated — Figure 2: |Sv|=|St|=1 at p=0.3.
func BenchmarkE2Unreplicated(b *testing.B) {
	benchAvailability(b, experiments.AvailConfig{
		Servers: 1, Stores: 1, Policy: replica.SingleCopyPassive,
		CrashProb: 0.3, Trials: 20,
	})
}

// BenchmarkE3StateReplication — Figure 3: |Sv|=1, |St|=3 at p=0.3.
func BenchmarkE3StateReplication(b *testing.B) {
	benchAvailability(b, experiments.AvailConfig{
		Servers: 1, Stores: 3, Policy: replica.SingleCopyPassive,
		CrashProb: 0.3, Trials: 20,
	})
}

// BenchmarkE4ServerReplication — Figure 4: |Sv|=3, |St|=1, one replica
// crashed mid-action (masked by active replication).
func BenchmarkE4ServerReplication(b *testing.B) {
	benchAvailability(b, experiments.AvailConfig{
		Servers: 3, Stores: 1, Policy: replica.Active,
		CrashProb: 0, CrashDuring: true, Trials: 20,
	})
}

// BenchmarkE5General — Figure 5: |Sv|=3, |St|=3 at p=0.3.
func BenchmarkE5General(b *testing.B) {
	benchAvailability(b, experiments.AvailConfig{
		Servers: 3, Stores: 3, Policy: replica.Active,
		CrashProb: 0.3, Trials: 20,
	})
}

func benchScheme(b *testing.B, scheme core.Scheme) {
	probesAfter := 0
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunScheme(experiments.SchemeConfig{
			Scheme: scheme, Servers: 2, Stores: 1, Clients: 4,
			ActionsPerClient: 4, CrashAfter: 4, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Aborted != 0 {
			b.Fatalf("aborts: %d", r.Aborted)
		}
		probesAfter += r.ProbesAfter
	}
	b.ReportMetric(float64(probesAfter)/float64(b.N), "post-crash-probes/op")
}

// BenchmarkE6StandardScheme — Figure 6: static Sv, every client probes the
// dead server.
func BenchmarkE6StandardScheme(b *testing.B) { benchScheme(b, core.SchemeStandard) }

// BenchmarkE7IndependentScheme — Figure 7: independent top-level DB
// actions repair Sv; only the first client probes.
func BenchmarkE7IndependentScheme(b *testing.B) { benchScheme(b, core.SchemeIndependent) }

// BenchmarkE8NestedTopLevel — Figure 8: nested top-level DB actions.
func BenchmarkE8NestedTopLevel(b *testing.B) { benchScheme(b, core.SchemeNestedTopLevel) }

// BenchmarkE9ExcludeLock — §4.2.1: commit-time Exclude under 4 concurrent
// readers, exclude-write lock vs read→write promotion.
func BenchmarkE9ExcludeLock(b *testing.B) {
	ewAborts, wlAborts := 0, 0
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE9(experiments.E9Config{Readers: 4, Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		ewAborts += r.ExcludeWriteAborts
		wlAborts += r.WriteLockAborts
	}
	b.ReportMetric(float64(ewAborts)/float64(b.N), "exclude-write-aborts/op")
	b.ReportMetric(float64(wlAborts)/float64(b.N), "write-lock-aborts/op")
}

// BenchmarkE10ReadOptimisation — §4.1.2: read-only binding vs full
// enhanced-scheme binding.
func BenchmarkE10ReadOptimisation(b *testing.B) {
	var opt, full float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE10(experiments.E10Config{
			Servers: 3, Readers: 4, ReadsPerClient: 5,
			Latency: 50 * time.Microsecond, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		opt += r.OptimisedMillis
		full += r.FullBindMillis
	}
	b.ReportMetric(opt/float64(b.N), "optimised-ms/op")
	b.ReportMetric(full/float64(b.N), "fullbind-ms/op")
}

// BenchmarkE11StoreRecovery — §4.2: crash, Exclude window, catch-up,
// Include.
func BenchmarkE11StoreRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE11(experiments.E11Config{
			Stores: 3, ActionsBefore: 2, ActionsDuring: 2, ActionsAfter: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !r.CaughtUp || !r.FinalConsist {
			b.Fatalf("recovery failed: caughtUp=%v consistent=%v", r.CaughtUp, r.FinalConsist)
		}
	}
}

// BenchmarkE12NonAtomicNameServer — §5 extension: Sv in a non-atomic name
// server, St database carries binding consistency alone.
func BenchmarkE12NonAtomicNameServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE12(experiments.E12Config{
			Servers: 2, Stores: 2, Actions: 10, CrashEvery: 4, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !r.NonAtomicConsistent {
			b.Fatal("non-atomic variant violated store consistency")
		}
	}
}

// addOne runs one atomic increment of the object through the facade.
func addOne(ctx context.Context, cl *arjuna.Client, obj uid.UID) error {
	_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	})
	return err
}

// BenchmarkActionThroughput measures raw end-to-end action cost on the
// simulator (bind → invoke → 2PC commit) for each replication policy — an
// ablation for DESIGN.md's commit-processing design notes.
func BenchmarkActionThroughput(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy replica.Policy
		deg    int
	}{
		{"single-copy", replica.SingleCopyPassive, 1},
		{"active-3", replica.Active, 0},
		{"coordinator-cohort-3", replica.CoordinatorCohort, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sys, err := arjuna.Open(arjuna.WithServers(3), arjuna.WithStores(2))
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			cl, err := sys.Client("c1", arjuna.ClientScheme(core.SchemeStandard),
				arjuna.ClientPolicy(tc.policy), arjuna.ClientDegree(tc.deg))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			obj := sys.Objects()[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := addOne(ctx, cl, obj); err != nil {
					b.Fatalf("action failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkCommitDurability measures the price of real stable storage on
// the end-to-end commit path (bind → invoke → 2PC with fsynced
// intentions, commit records and phase-two applies), with 4 concurrent
// clients committing to disjoint objects:
//
//   - mem: the in-memory backend (the simulation default) — the floor.
//   - disk-sync-each: per-node WAL on disk, one fsync per Sync call.
//   - disk-group-commit: the same WAL with concurrent fsyncs coalesced;
//     under concurrent commit traffic this must beat disk-sync-each,
//     because one fsync acknowledges several clients' records.
func BenchmarkCommitDurability(b *testing.B) {
	const workers = 4
	for _, tc := range []struct {
		name string
		disk bool
		sync storage.SyncMode
	}{
		{"mem", false, 0},
		{"disk-sync-each", true, storage.SyncEach},
		{"disk-group-commit", true, storage.SyncGroup},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opts := []arjuna.Option{arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(workers), arjuna.WithObjects(workers)}
			if tc.disk {
				opts = append(opts, arjuna.WithDataDir(b.TempDir()), arjuna.WithDiskOptions(storage.DiskOptions{Sync: tc.sync}))
			}
			sys, err := arjuna.Open(opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			var failed atomic.Int64
			for k := 0; k < workers; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					cl, err := sys.Client(string(sys.ClientNodes()[k]), arjuna.ClientScheme(core.SchemeStandard))
					if err != nil {
						failed.Add(1)
						return
					}
					for next.Add(1) <= int64(b.N) {
						if addOne(ctx, cl, sys.Objects()[k]) != nil {
							failed.Add(1)
							return
						}
					}
				}(k)
			}
			wg.Wait()
			if failed.Load() > 0 {
				b.Fatalf("%d workers failed to commit", failed.Load())
			}
		})
	}
}

// BenchmarkMulticastAblation measures the ordered-vs-naive multicast cost
// (the price of the Figure 1 guarantee) at a fixed group size.
func BenchmarkMulticastAblation(b *testing.B) {
	var orderedSum, naiveSum float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := experiments.MeasureMulticastCost([]int{3}, 10, 0)
		if err != nil {
			b.Fatal(err)
		}
		orderedSum += points[0].OrderedMicros
		naiveSum += points[0].NaiveMicros
	}
	b.ReportMetric(orderedSum/float64(b.N), "ordered-us/msg")
	b.ReportMetric(naiveSum/float64(b.N), "naive-us/msg")
}

// BenchmarkMulticastPipelined measures ordered multicast under pipelined
// load: 8 concurrent senders against a 3-member group with a 200µs
// per-leg latency. The batched sequencer orders every request that
// arrives during an in-flight fan-out in the next frame, so it sustains
// more than one message per sequencer round (reported as msgs/round) and
// the per-message cost drops well below the solo round-trip cost.
func BenchmarkMulticastPipelined(b *testing.B) {
	var micros, perRound float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := experiments.MeasurePipelinedMulticast(3, 8, 5, 200*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		micros += p.Micros
		perRound += p.MsgsPerRound()
	}
	b.ReportMetric(micros/float64(b.N), "ordered-us/msg")
	b.ReportMetric(perRound/float64(b.N), "msgs/round")
}

// BenchmarkMulticastGroupSize measures ordered-multicast latency across
// group sizes under a fixed 200µs per-leg network latency. With the
// concurrent sequencer fan-out the per-message cost should grow
// sub-linearly in the member count (the serial relay grew additively:
// every extra member added two legs to every message).
func BenchmarkMulticastGroupSize(b *testing.B) {
	for _, members := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("members-%d", members), func(b *testing.B) {
			var orderedSum float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				points, err := experiments.MeasureMulticastCost([]int{members}, 5, 200*time.Microsecond)
				if err != nil {
					b.Fatal(err)
				}
				orderedSum += points[0].OrderedMicros
			}
			b.ReportMetric(orderedSum/float64(b.N), "ordered-us/msg")
		})
	}
}

// slowParticipant is a 2PC participant whose prepare and commit each cost
// a fixed delay — the stand-in for a store round trip. A read-only
// participant pays the prepare delay, votes read-only, and (per the
// voting contract) is excluded from phase two.
type slowParticipant struct {
	name     string
	delay    time.Duration
	readOnly bool
}

func (p *slowParticipant) Name() string { return p.name }
func (p *slowParticipant) Prepare(ctx context.Context, tx string) (action.Vote, error) {
	time.Sleep(p.delay)
	if p.readOnly {
		return action.VoteReadOnly, nil
	}
	return action.VoteCommit, nil
}
func (p *slowParticipant) Commit(ctx context.Context, tx string) error {
	time.Sleep(p.delay)
	return nil
}
func (p *slowParticipant) Abort(ctx context.Context, tx string) error { return nil }

func bench2PC(b *testing.B, participants int, readOnly bool) {
	mgr := action.NewManager("bench2pc", nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		act := mgr.BeginTop()
		for j := 0; j < participants; j++ {
			p := &slowParticipant{name: fmt.Sprintf("p%d", j), delay: 200 * time.Microsecond, readOnly: readOnly}
			if err := act.Enlist(p); err != nil {
				b.Fatal(err)
			}
		}
		rep, err := act.Commit(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if readOnly && (rep.CommitVoters != 0 || rep.OutcomeLogged) {
			b.Fatalf("read-only commit ran phase two: %+v", rep)
		}
	}
}

// Benchmark2PCParticipants measures top-level commit latency against the
// participant count, each participant costing 200µs per phase. With the
// concurrent two-phase commit the total should stay near 2 × 200µs
// regardless of the participant count; the serial commit grew by 400µs
// per participant.
func Benchmark2PCParticipants(b *testing.B) {
	for _, participants := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("participants-%d", participants), func(b *testing.B) {
			bench2PC(b, participants, false)
		})
	}
}

// Benchmark2PCParticipantsReadOnly is the §4.1.2 read-optimisation
// variant: every participant votes read-only, so phase two and the
// outcome-log write vanish and the commit costs a single 200µs prepare
// round — about half the mixed-vote commit.
func Benchmark2PCParticipantsReadOnly(b *testing.B) {
	for _, participants := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("participants-%d", participants), func(b *testing.B) {
			bench2PC(b, participants, true)
		})
	}
}

// BenchmarkLockContention measures the striped lock table: each parallel
// worker acquires and releases a write lock on its own key. With one
// global mutex every acquire serialised through a single cache line; the
// striped table scales with the keys touching distinct stripes. The
// same-key variant is the upper contention bound for comparison.
func BenchmarkLockContention(b *testing.B) {
	ctx := context.Background()
	b.Run("disjoint-keys", func(b *testing.B) {
		lm := lockmgr.New(lockmgr.NoNesting)
		var worker atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			id := worker.Add(1)
			owner := lockmgr.Owner(fmt.Sprintf("w%d", id))
			key := fmt.Sprintf("key-%d", id)
			for pb.Next() {
				if err := lm.Acquire(ctx, owner, key, lockmgr.Write); err != nil {
					b.Error(err)
					return
				}
				if err := lm.Release(owner, key, lockmgr.Write); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("same-key", func(b *testing.B) {
		lm := lockmgr.New(lockmgr.NoNesting)
		var worker atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			id := worker.Add(1)
			owner := lockmgr.Owner(fmt.Sprintf("w%d", id))
			for pb.Next() {
				if err := lm.Acquire(ctx, owner, "hot", lockmgr.Read); err != nil {
					b.Error(err)
					return
				}
				if err := lm.Release(owner, "hot", lockmgr.Read); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkHotKeyContention measures commutative-op batching on a single
// hot counter: every worker hammers the same object with solo adds. The
// apply-batched variant goes through Client.Apply, so ops queued behind
// the write-lock holder fold into its commit round (flat combining); the
// invoke-unbatched variant is the same add through a plain Atomic+Invoke,
// where every op queues for the lock and pays its own 2PC — the hot-key
// tail this PR's tentpole eliminates. batched-frac reports the fraction
// of operations that rode another action's commit.
func BenchmarkHotKeyContention(b *testing.B) {
	const workers = 16
	for _, tc := range []struct {
		name string
		solo bool
	}{
		{"apply-batched", true},
		{"invoke-unbatched", false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sys, err := arjuna.Open(
				arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(workers))
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			obj := sys.Objects()[0]
			clients := make([]*arjuna.Client, workers)
			for k := range clients {
				cl, err := sys.Client(fmt.Sprintf("c%d", k+1), arjuna.ClientRetry(100, time.Millisecond))
				if err != nil {
					b.Fatal(err)
				}
				clients[k] = cl
			}
			ctx := context.Background()
			var next, batched, failed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for k := 0; k < workers; k++ {
				wg.Add(1)
				go func(cl *arjuna.Client) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if tc.solo {
							_, rep, err := cl.Apply(ctx, obj, "add", []byte("1"))
							if err != nil {
								failed.Add(1)
								return
							}
							if rep.Batched {
								batched.Add(1)
							}
							continue
						}
						if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
							_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
							return err
						}); err != nil {
							failed.Add(1)
							return
						}
					}
				}(clients[k])
			}
			wg.Wait()
			b.StopTimer()
			if failed.Load() > 0 {
				b.Fatalf("%d workers failed", failed.Load())
			}
			b.ReportMetric(float64(batched.Load())/float64(b.N), "batched-frac")
		})
	}
}

// BenchmarkBindOnly measures the naming-and-binding round per scheme with
// no failures — the direct cost comparison of Figures 6-8.
func BenchmarkBindOnly(b *testing.B) {
	for _, tc := range []struct {
		name   string
		scheme core.Scheme
	}{
		{"standard", core.SchemeStandard},
		{"independent", core.SchemeIndependent},
		{"nested-top-level", core.SchemeNestedTopLevel},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w, err := harness.New(harness.Options{Servers: 2, Stores: 2, Clients: 1})
			if err != nil {
				b.Fatal(err)
			}
			bd := w.Binder("c1", tc.scheme, replica.SingleCopyPassive, 1)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				act := bd.Actions.BeginTop()
				if _, err := bd.Bind(ctx, act, w.Objects[0]); err != nil {
					b.Fatal(err)
				}
				if _, err := act.Commit(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDBCommit measures the database action around every
// enhanced-scheme bind — a use-count adjust and its commit — against a
// database holding that many registered objects. The commit rewrites the
// one entry it touched, so ns/op and allocs/op must be flat from 16
// objects to 1,024.
func BenchmarkDBCommit(b *testing.B) {
	for _, objects := range []int{16, 1024} {
		b.Run(fmt.Sprintf("objects=%d", objects), func(b *testing.B) {
			w, err := harness.New(harness.Options{Servers: 2, Stores: 2, Clients: 1, Objects: objects})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			id, hosts := w.Objects[0], w.Svs[:1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adjust := w.DB.Increment
				if i%2 == 1 {
					adjust = w.DB.Decrement
				}
				if err := adjust(ctx, "bench", "c1", id, "c1", hosts); err != nil {
					b.Fatal(err)
				}
				w.DB.EndAction("bench", true)
			}
		})
	}
}

// benchTotalRPCs sums every service's call counter across the deployment
// — the "did this path touch the network at all" probe.
func benchTotalRPCs(sys *arjuna.System) int64 {
	var n int64
	for _, s := range sys.Stats() {
		n += s.Calls
	}
	return n
}

// BenchmarkLeasedRead — the read-lease headline number. The in-memory
// network is given a 50µs per-message-leg latency so the comparison is
// honest: a server read pays real round trips, a lease hit pays none.
//
//   - hit: leases on, cache warm — every read is served from the
//     client's L1 snapshot. Asserts the timed loop issued ZERO RPCs
//     anywhere in the deployment and ran ≥100× faster than the
//     leaseless round trip under the same network.
//   - expired-miss: leases on, but a TTL so short every read finds its
//     cached lease dead — the degraded path: a full server read plus
//     grant probe and harvest on every operation.
//   - leaseless: the same deployment without WithReadLeases.
func BenchmarkLeasedRead(b *testing.B) {
	const legLatency = 50 * time.Microsecond
	open := func(b *testing.B, extra ...arjuna.Option) (*arjuna.System, *arjuna.Client) {
		opts := []arjuna.Option{
			arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(1),
			arjuna.WithMemNetwork(transport.MemOptions{BaseLatency: legLatency}),
		}
		sys, err := arjuna.Open(append(opts, extra...)...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sys.Close() })
		cl, err := sys.Client("c1", arjuna.ClientReadOnly())
		if err != nil {
			b.Fatal(err)
		}
		return sys, cl
	}
	ctx := context.Background()
	read := func(b *testing.B, sys *arjuna.System, cl *arjuna.Client) *arjuna.CommitReport {
		obj := sys.Objects()[0]
		rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, rerr := tx.Object(obj).Read(ctx, "get", nil)
			return rerr
		})
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}

	// Sample the leaseless per-read cost once, up front, so the hit
	// sub-benchmark can assert its ≥100× criterion against a number
	// measured under the exact same network.
	sysBase, clBase := open(b)
	read(b, sysBase, clBase) // one unmeasured read warms code paths
	const sample = 64
	t0 := time.Now()
	for i := 0; i < sample; i++ {
		read(b, sysBase, clBase)
	}
	baseline := time.Since(t0) / sample

	b.Run("hit", func(b *testing.B) {
		sys, cl := open(b, arjuna.WithReadLeases(time.Hour))
		read(b, sys, cl) // miss: goes to the server, harvests the grant
		if rep := read(b, sys, cl); rep.LeaseReads != 1 {
			b.Fatalf("warm read not lease-served (LeaseReads=%d)", rep.LeaseReads)
		}
		before := benchTotalRPCs(sys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := read(b, sys, cl); rep.LeaseReads != 1 {
				b.Fatalf("read %d fell off the lease path (LeaseReads=%d)", i, rep.LeaseReads)
			}
		}
		b.StopTimer()
		if rpcs := benchTotalRPCs(sys) - before; rpcs != 0 {
			b.Fatalf("lease-hit loop issued %d RPCs over %d reads, want 0", rpcs, b.N)
		}
		perOp := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(baseline)/float64(perOp), "speedup")
		// A single iteration is all scheduling noise; the ratio gate needs
		// a few reads to mean anything (CI pins this at -benchtime 100x).
		if b.N >= 10 && perOp*100 > baseline {
			b.Fatalf("lease hit = %v/op, round trip = %v/op: speedup %.1f× is under the 100× bar",
				perOp, baseline, float64(baseline)/float64(perOp))
		}
	})
	b.Run("expired-miss", func(b *testing.B) {
		sys, cl := open(b, arjuna.WithReadLeases(time.Nanosecond))
		read(b, sys, cl)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := read(b, sys, cl); rep.LeaseReads != 0 {
				b.Fatalf("read %d was lease-served despite a dead TTL", i)
			}
		}
	})
	b.Run("leaseless", func(b *testing.B) {
		sys, cl := open(b)
		read(b, sys, cl)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, sys, cl)
		}
	})
}
