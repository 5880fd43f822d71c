package chaos

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/object"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// seedFlag replays one specific schedule:
//
//	go test ./internal/chaos -run TestChaos -seed=N -v
var seedFlag = flag.Int64("seed", 0, "run only this chaos seed (0 = the pinned seed sets)")

// backendFlag forces every chaos run onto a stable-storage backend:
//
//	go test ./internal/chaos -run TestChaos -backend=disk
//
// "disk" gives each run a hermetic t.TempDir data directory; the
// default keeps each test's own configuration (in-memory unless the
// test pins DataDir itself).
var backendFlag = flag.String("backend", "", `stable-storage backend for all runs ("disk" or "" = per-test default)`)

// transportFlag forces every chaos run onto a message carrier:
//
//	go test ./internal/chaos -run TestChaos -transport=mux
//
// "mux" runs the schedules over the real-socket multiplexed TCP
// transport (wrapped in transport.Faulty so the nemesis still fires);
// the default keeps the in-memory simulator.
var transportFlag = flag.String("transport", "", `message carrier for all runs ("mux", "mem" or "" = in-memory)`)

// runSchedule runs one schedule for runSeed. A test binary built with
// GOEXPERIMENT=synctest runs in-memory schedules in a bubble instead (see
// bubble_test.go).
var runSchedule = Run

// runSeed executes one schedule and fails the test with a full replay
// recipe if any invariant broke.
func runSeed(t *testing.T, cfg Config) *Report {
	t.Helper()
	if *backendFlag == "disk" && cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if *transportFlag != "" && cfg.Transport == "" {
		cfg.Transport = *transportFlag
	}
	rep, err := runSchedule(cfg)
	if err != nil {
		t.Fatalf("seed %d: harness: %v", cfg.Seed, err)
	}
	t.Logf("seed %d: committed=%d aborted=%d uncertain=%d retried=%d lease-stale=%d in-doubt-resolved=%d repairs=%d",
		rep.Seed, rep.Committed, rep.Aborted, rep.Uncertain, rep.Retried, rep.LeaseStale, rep.InDoubtResolved, len(rep.Repairs))
	if len(rep.Violations) > 0 {
		t.Errorf("seed %d violated invariants:\n  %s\nschedule:\n  %s\nnotes:\n  %s\nreproduce with:\n  go test ./internal/chaos -run %s -seed=%d -v",
			cfg.Seed,
			strings.Join(rep.Violations, "\n  "),
			strings.Join(rep.Schedule, "\n  "),
			strings.Join(rep.Notes, "\n  "),
			t.Name(), cfg.Seed)
	}
	return rep
}

// seeds returns the pinned seed set for a test, or just the -seed
// override when one was given.
func seeds(base int64, n int) []int64 {
	if *seedFlag != 0 {
		return []int64{*seedFlag}
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// openT assembles a deployment for a deterministic shape and returns it
// with the World the fault hooks and store checks reach into.
func openT(t *testing.T, opts ...arjuna.Option) (*arjuna.System, *harness.World) {
	t.Helper()
	sys, err := arjuna.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys, sys.World()
}

// clientT returns a client on the standard scheme (plus opts).
func clientT(t *testing.T, sys *arjuna.System, name string, opts ...arjuna.ClientOption) *arjuna.Client {
	t.Helper()
	cl, err := sys.Client(name, append([]arjuna.ClientOption{arjuna.ClientScheme(core.SchemeStandard)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// invoke1 runs one single-invocation action — "add" 1 or "get" — and
// returns the counter value it observed.
func invoke1(ctx context.Context, cl *arjuna.Client, id uid.UID, method string) (int, *arjuna.CommitReport, error) {
	var val int
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		out, err := tx.Object(id).Invoke(ctx, method, []byte("1"))
		if err == nil {
			val, err = strconv.Atoi(string(out))
		}
		return err
	})
	return val, rep, err
}

// TestChaosCounter: randomized schedules against concurrent counter
// increments — value conservation, view consistency, outcome convergence.
func TestChaosCounter(t *testing.T) {
	for _, seed := range seeds(1, 8) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, Config{Seed: seed, Workload: WorkloadCounter})
		})
	}
}

// pinnedDefaults reports whether the run uses each test's own pinned
// configuration — no -seed, -backend or -transport override. Assertions
// about what a pinned schedule EXERCISES (as opposed to the invariants,
// which hold everywhere) only make sense then: the disk backend changes
// the fault plan and the socket carrier the interleavings.
func pinnedDefaults() bool {
	return *seedFlag == 0 && *backendFlag == "" && *transportFlag == ""
}

// TestChaosRetriesUnderPartitions pins one counter schedule — three
// partitions, both servers crashed along the way — on which the facade's
// retry loop demonstrably runs (breaker fast-fails and refused locks are
// retried with the client's seeded backoff), and holds it to every
// invariant: a retried action's earlier attempts were reported aborted, so
// none of their effects may survive into the conservation tally.
func TestChaosRetriesUnderPartitions(t *testing.T) {
	for _, seed := range seeds(40, 1) {
		rep := runSeed(t, Config{Seed: seed, Workload: WorkloadCounter})
		if pinnedDefaults() && rep.Retried == 0 {
			t.Errorf("seed %d: no action was retried; the schedule no longer exercises Atomic's retry loop:\n  %s",
				seed, strings.Join(rep.Schedule, "\n  "))
		}
	}
}

// TestChaosBank: randomized schedules against concurrent two-account
// transfers — exact conservation of the total (failure atomicity across
// participants), plus all the shared invariants.
func TestChaosBank(t *testing.T) {
	for _, seed := range seeds(101, 8) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, Config{Seed: seed, Workload: WorkloadBank, Scheme: core.SchemeStandard})
		})
	}
}

// TestChaosBankIndependent: TestChaosBank under the independent scheme,
// whose transfers end at the database with the client action's EndAction and
// both accounts' use-count Decrements in one message, and whose two accounts,
// at one server, are prepared and committed there in one request each — under
// crashes, partitions and lost messages. TestChaosBank runs the standard
// scheme, which sends no Decrement. Conservation and the shared invariants
// must hold.
func TestChaosBankIndependent(t *testing.T) {
	for _, seed := range seeds(121, 4) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, Config{Seed: seed, Workload: WorkloadBank, Scheme: core.SchemeIndependent})
		})
	}
}

// TestChaosCrashDuringCommit: schedules biased so half the events kill a
// store between its commit vote and the outcome, covering both the
// commit-side and abort-side in-doubt shapes. The run must resolve every
// injected in-doubt participant to the logged outcome (or presumed
// abort) — checked by the no-unresolved-intentions and conservation
// invariants.
func TestChaosCrashDuringCommit(t *testing.T) {
	for _, seed := range seeds(201, 6) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep := runSeed(t, Config{Seed: seed, Workload: WorkloadCounter, BiasInDoubt: true})
			injected := 0
			for _, e := range rep.Schedule {
				if strings.Contains(e, "crash-during-commit") {
					injected++
				}
			}
			if injected == 0 {
				t.Errorf("seed %d: biased schedule applied no crash-during-commit event:\n  %s",
					seed, strings.Join(rep.Schedule, "\n  "))
			}
		})
	}
}

// TestChaosDiskRecovery: pinned disk-backed seeds biased toward
// crash-during-commit, so recovery repeatedly reloads committed versions
// from WAL+snapshot, replays prepared intentions and resolves them
// through the in-doubt protocol — with seeded torn-tail corruption and
// kill-at-byte injections on top. Crashes here drop the whole process
// image; only the per-node directories survive.
func TestChaosDiskRecovery(t *testing.T) {
	for _, seed := range seeds(301, 4) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep := runSeed(t, Config{Seed: seed, Workload: WorkloadCounter, BiasInDoubt: true, DataDir: t.TempDir()})
			injected := 0
			for _, e := range rep.Schedule {
				if strings.Contains(e, "crash-during-commit") {
					injected++
				}
			}
			if injected == 0 {
				t.Errorf("seed %d: biased disk schedule applied no crash-during-commit event:\n  %s",
					seed, strings.Join(rep.Schedule, "\n  "))
			}
		})
	}
}

// TestChaosDiskBank: exact conservation across real crash-restart
// cycles — transfers stay failure-atomic when the participants' stable
// state lives on disk.
func TestChaosDiskBank(t *testing.T) {
	for _, seed := range seeds(401, 3) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, Config{Seed: seed, Workload: WorkloadBank, Scheme: core.SchemeStandard, DataDir: t.TempDir()})
		})
	}
}

// TestChaosShardedCounter: pinned seeds against a three-shard placement
// deployment. Clients route each increment through the placement binder,
// so actions land on whichever shard owns the object, and the nemesis
// crashes/partitions nodes across all three groups. Value conservation
// and view consistency must hold per shard exactly as they do for one.
func TestChaosShardedCounter(t *testing.T) {
	for _, seed := range seeds(501, 4) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, Config{Seed: seed, Workload: WorkloadCounter, Shards: 3})
		})
	}
}

// TestChaosShardedBank: transfers whose two accounts may live on
// different shards — the coordinator enlists participants from multiple
// groups, so conservation of the total is exactly the cross-shard
// failure-atomicity guarantee under faults.
func TestChaosShardedBank(t *testing.T) {
	for _, seed := range seeds(601, 4) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, Config{Seed: seed, Workload: WorkloadBank, Scheme: core.SchemeStandard, Shards: 3})
		})
	}
}

// TestChaosLeasedCounter: randomized schedules against a read-heavy
// leased counter — lease-served reads race increments, crashes,
// partitions and restarts, and I7 (lease-read freshness) must hold on
// every one: a read served from a lease cache may never observe a value
// older than the newest committed value some client had already seen
// acknowledged when the read began.
func TestChaosLeasedCounter(t *testing.T) {
	leased := 0
	for _, seed := range seeds(701, 5) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep := runSeed(t, Config{Seed: seed, Workload: WorkloadLeasedCounter})
			leased += rep.LeasedReads
		})
	}
	// Per-seed counts vary with the schedule, but a pinned set that never
	// serves a single read from cache is exercising nothing.
	if *seedFlag == 0 && leased == 0 {
		t.Error("no lease-served read across the pinned seed set")
	}
}

// TestChaosApplyCounter: the counter schedules through Client.Apply, whose
// one server message carries the action's phase one — the prepare over the
// default three stores, the commit itself over one. Crashes, partitions and
// lost replies (objsrv.Invoke replies among them) now land on a request
// that may already have committed; conservation holds the facade to its
// word: a committed increment is never reported aborted, and an in-doubt
// one is reported ErrOutcomeUnknown and never run twice. The seeds are
// picked, not consecutive: each set includes schedules on which some Apply
// does end in doubt (not on every run — interleavings vary).
func TestChaosApplyCounter(t *testing.T) {
	for _, c := range []struct {
		name   string
		pinned []int64
		cfg    Config
	}{
		{"three-stores", []int64{1001, 1015, 1027}, Config{}},
		{"one-store", []int64{1108, 1122, 1140}, Config{Stores: 1}},
		{"crash-during-commit", []int64{1020, 1201, 1203}, Config{BiasInDoubt: true}},
	} {
		if *seedFlag != 0 {
			c.pinned = []int64{*seedFlag}
		}
		for _, seed := range c.pinned {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				cfg := c.cfg
				cfg.Seed, cfg.Workload = seed, WorkloadApplyCounter
				runSeed(t, cfg)
			})
		}
	}
}

// TestChaosReadOnlyRegister: each node's writer — Apply increments, and
// transfers that keep a pair of objects at a constant sum — runs beside a
// ClientReadOnly reader whose reads are CHECKED: a key's value against the
// node's own acknowledged increments and the increments begun, one client's
// successive reads of a key against each other, and a two-object read of the
// pair against the conserved sum. The reader's first read of an action is
// carried and released as it is answered, so the pair reads put the
// commit-time re-check under crashes, partitions and lost replies. (Ported to
// the parent of the PR that added it, every seed below fails in its first
// run: read-only clients spread over Sv read a second copy nothing
// refreshed.)
func TestChaosReadOnlyRegister(t *testing.T) {
	for _, c := range []struct {
		name   string
		pinned []int64
		cfg    Config
	}{
		{"three-stores", []int64{1301, 1310, 1318}, Config{}},
		{"one-store", []int64{1301, 1310, 1322}, Config{Stores: 1}},
		{"sharded", []int64{1318, 1337}, Config{Shards: 3, Objects: 5}},
	} {
		if *seedFlag != 0 {
			c.pinned = []int64{*seedFlag}
		}
		for _, seed := range c.pinned {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				cfg := c.cfg
				cfg.Seed, cfg.Workload, cfg.ActionsPerClient = seed, WorkloadReadOnlyRegister, 30
				runSeed(t, cfg)
			})
		}
	}
}

// TestChaosLeasedMixed: every write is a mixed transaction — lease-read A,
// increment B, one Atomic — so commit-time lease revalidation runs under
// crashes, partitions and lost invalidations. Conservation must hold on
// the increments, and the tightened I7 on the reads: what a committed
// mixed transaction read of A is no older than anything acknowledged on A
// before its commit processing began. The seeds are picked, not
// consecutive: with revalidation disabled (stub Txn.revalidateLeases to
// return nil) each of them commits a transaction over a superseded
// snapshot in four or five runs out of five, and the check fails.
func TestChaosLeasedMixed(t *testing.T) {
	pinned := []int64{911, 913, 920}
	if *seedFlag != 0 {
		pinned = []int64{*seedFlag}
	}
	leased, stale := 0, 0
	for _, seed := range pinned {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep := runSeed(t, Config{Seed: seed, Workload: WorkloadLeasedMixed, ActionsPerClient: 30})
			leased += rep.LeasedReads
			stale += rep.LeaseStale
		})
	}
	// A pinned set in which no read was ever lease-served, or no attempt
	// was ever caught stale, is not exercising revalidation at all.
	if pinnedDefaults() && (leased == 0 || stale == 0) {
		t.Errorf("pinned set served %d leased reads and caught %d stale attempts; want both > 0", leased, stale)
	}
}

// TestLeaseFenceServerCrashMidInvalidation pins the phase-two half of I7
// deterministically: the lease-granting primary crashes at the instant
// phase two reaches it, so its commit-time fence never runs and no
// server is left that even knows the holder exists. The commit is still
// durable — the client repairs the stores directly — but its
// acknowledgement must first wait out the lease clock, so that by the
// time any client sees the commit as definite, every lease the dead
// primary could have granted has expired. The holder's next read must
// therefore observe the committed value through the surviving server,
// never its cached pre-commit snapshot.
func TestLeaseFenceServerCrashMidInvalidation(t *testing.T) {
	const ttl = 100 * time.Millisecond
	// Three stores make one-phase commit ineligible, forcing the true
	// 2PC shape whose phase-two failure is the hazard under test.
	sys, w := openT(t, arjuna.WithServers(2), arjuna.WithStores(3), arjuna.WithClients(2), arjuna.WithReadLeases(ttl))
	ctx := context.Background()
	obj := w.Objects[0]
	c2 := clientT(t, sys, "c2")

	// Objects are pre-seeded at seq 1, so the first read harvests a
	// grant without any commit (and without the first-commit grace).
	if _, rep, err := invoke1(ctx, c2, obj, "get"); err != nil || rep.LeaseReads != 0 {
		t.Fatalf("harvest read: leased=%d err=%v", rep.LeaseReads, err)
	}
	if val, rep, err := invoke1(ctx, c2, obj, "get"); err != nil || rep.LeaseReads != 1 || val != 0 {
		t.Fatalf("leased read = %d (leased=%d, err=%v), want cached 0", val, rep.LeaseReads, err)
	}

	// Crash the primary the moment the phase-two Commit reaches it.
	sv1 := w.Cluster.Node("sv1")
	w.Cluster.Faults().OnRequest(1,
		transport.ToMethod("sv1", object.ServiceName, object.MethodCommit),
		func(transport.Request) { sv1.Crash() })
	if _, _, err := invoke1(ctx, clientT(t, sys, "c1"), obj, "add"); err != nil {
		t.Fatalf("increment did not commit despite store repair: %v", err)
	}

	// The ack above was delayed past every grant the primary could have
	// issued, so the holder's lease is expired NOW — the read takes the
	// server path (sv2, activated from the repaired stores) and sees 1.
	val, rep, err := invoke1(ctx, c2, obj, "get")
	if err != nil {
		t.Fatalf("post-crash read failed: %v", err)
	}
	if rep.LeaseReads != 0 || val != 1 {
		t.Fatalf("read after unfenced commit = %d (leased=%d), want 1 via the server — stale lease outlived the commit ack",
			val, rep.LeaseReads)
	}
}

// TestLeaseFencePartitionedHolderWaitout pins the other degraded fence
// shape: the holder is partitioned from the server, so the commit's
// invalidation multicast cannot be delivered and the server must wait
// the lease out before completing commit processing. The writer's ack is
// delayed past the lease's expiry, and the healed holder's next read
// observes the committed value.
func TestLeaseFencePartitionedHolderWaitout(t *testing.T) {
	const ttl = 100 * time.Millisecond
	sys, w := openT(t, arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(2), arjuna.WithReadLeases(ttl))
	ctx := context.Background()
	obj := w.Objects[0]
	c2 := clientT(t, sys, "c2")
	if _, rep, err := invoke1(ctx, c2, obj, "get"); err != nil || rep.LeaseReads != 0 {
		t.Fatalf("harvest read: leased=%d err=%v", rep.LeaseReads, err)
	}
	if _, rep, err := invoke1(ctx, c2, obj, "get"); err != nil || rep.LeaseReads != 1 {
		t.Fatalf("second read not lease-served (err=%v)", err)
	}

	waitsBefore := sys.LeaseStats().Waitouts
	sys.Faults().Partition("sv1", "c2")
	if _, _, err := invoke1(ctx, clientT(t, sys, "c1"), obj, "add"); err != nil {
		t.Fatalf("increment did not commit: %v", err)
	}
	if sys.LeaseStats().Waitouts == waitsBefore {
		t.Fatal("commit with an unreachable holder recorded no lease waitout")
	}

	sys.Faults().Heal("sv1", "c2")
	val, rep, err := invoke1(ctx, c2, obj, "get")
	if err != nil {
		t.Fatalf("post-heal read failed: %v", err)
	}
	if rep.LeaseReads != 0 || val != 1 {
		t.Fatalf("read after waited-out commit = %d (leased=%d), want 1 via the server", val, rep.LeaseReads)
	}
}

// TestScheduleIsSeedDeterministic: the fault plan is a pure function of
// the seed — the property every "reproduce with -seed=N" claim rests on.
func TestScheduleIsSeedDeterministic(t *testing.T) {
	cfg := Config{Seed: 42}
	a := GenerateSchedule(42, cfg)
	b := GenerateSchedule(42, cfg)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedule lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("same seed diverged at event %d: %s vs %s", i, a[i], b[i])
		}
	}
	c := GenerateSchedule(43, cfg)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].String() != c[i].String() {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	// Thresholds are non-decreasing (events apply in order) and every
	// schedule includes the crash-during-commit shape.
	haveInDoubt := false
	for i := range a {
		if i > 0 && a[i].After < a[i-1].After {
			t.Fatalf("schedule not ordered by threshold: %s before %s", a[i-1], a[i])
		}
		if a[i].Kind == KindCrashDuringCommit {
			haveInDoubt = true
		}
	}
	if !haveInDoubt {
		t.Fatal("schedule omitted the crash-during-commit shape")
	}
}

// TestInDoubtParticipantConvergesDeterministic pins the two
// crash-during-commit shapes without randomness, asserting per-transaction
// convergence directly (the randomized runs assert it in aggregate).
func TestInDoubtParticipantConvergesDeterministic(t *testing.T) {
	for _, abortSide := range []bool{false, true} {
		name := "commit-side"
		if abortSide {
			name = "abort-side"
		}
		t.Run(name, func(t *testing.T) {
			w := newInDoubtWorld(t, abortSide, "")
			st2 := w.Cluster.Node("st2")
			if pend := st2.Store().PendingTxs(); len(pend) != 1 {
				t.Fatalf("pending = %v, want exactly one in-doubt tx", pend)
			}
			tx := st2.Store().PendingTxs()[0]
			logged := w.Mgrs["c1"].Log().Lookup(tx)
			st2.Recover(nil)
			if pend := st2.Store().PendingTxs(); len(pend) != 0 {
				t.Fatalf("in-doubt tx unresolved after restart: %v", pend)
			}
			v, err := st2.Store().Read(w.Objects[0])
			if err != nil {
				t.Fatal(err)
			}
			if abortSide {
				if logged == store.OutcomeCommitted {
					t.Fatal("abort-side injection unexpectedly logged committed")
				}
				if string(v.Data) != "0" || v.Seq != 1 {
					t.Fatalf("abort-side: %q/%d, want rolled back 0/1", v.Data, v.Seq)
				}
			} else {
				if logged != store.OutcomeCommitted {
					t.Fatalf("commit-side injection logged %v, want committed", logged)
				}
				if string(v.Data) != "1" || v.Seq != 2 {
					t.Fatalf("commit-side: %q/%d, want applied 1/2", v.Data, v.Seq)
				}
			}
		})
	}
}

// TestInDoubtClientOutcomeIsNeverRetried stages the one shape that puts
// the CLIENT in doubt — the one-phase round commits at the store, its reply
// is lost, and the only server dies before the two-phase fallback can ask
// again — on a client whose retry loop is armed. The facade must answer
// ErrOutcomeUnknown and not ErrAborted, after exactly one attempt (a retry
// could apply the add twice), and that answer is the nemesis's "uncertain"
// class: the increment stands at the store, inside the conservation bound
// only because it was not filed as aborted.
func TestInDoubtClientOutcomeIsNeverRetried(t *testing.T) {
	sys, w := openT(t, arjuna.WithServers(1), arjuna.WithStores(1))
	cl := clientT(t, sys, "c1", arjuna.ClientRetry(5, 2*time.Millisecond))
	rule := transport.ToMethod("sv1", object.ServiceName, object.MethodPrepare)
	sys.Faults().OnReply(1, rule, func(transport.Request) { w.Cluster.Node("sv1").Crash() })
	sys.Faults().DropReplies(1, rule)

	_, rep, err := invoke1(context.Background(), cl, w.Objects[0], "add")
	if !errors.Is(err, arjuna.ErrOutcomeUnknown) || errors.Is(err, arjuna.ErrAborted) {
		t.Fatalf("err = %v, want ErrOutcomeUnknown and not ErrAborted", err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("in-doubt commit ran %d attempts, want 1", rep.Attempts)
	}
	if classOf(err) != opUncertain {
		t.Fatalf("class = %v, want uncertain", classOf(err))
	}
	v, rerr := w.Cluster.Node("st1").Store().Read(w.Objects[0])
	if rerr != nil || string(v.Data) != "1" || v.Seq != 2 {
		t.Fatalf("st1 = %q/%d (%v), want the in-doubt add applied once (1/2)", v.Data, v.Seq, rerr)
	}
}

// TestInDoubtDiskParticipantConverges is the disk-backed twin of the
// deterministic crash-during-commit shapes: st2's crash drops its whole
// process image, so the prepared intention and the committed base state
// must come back from the WAL before the in-doubt protocol can resolve
// them against the coordinator's log.
func TestInDoubtDiskParticipantConverges(t *testing.T) {
	for _, abortSide := range []bool{false, true} {
		name := "commit-side"
		if abortSide {
			name = "abort-side"
		}
		t.Run(name, func(t *testing.T) {
			w := newInDoubtWorld(t, abortSide, t.TempDir())
			st2 := w.Cluster.Node("st2")
			// Crashed: no object or intention state in process memory.
			if _, ok := st2.Store().SeqOf(w.Objects[0]); ok {
				t.Fatal("crashed disk store still answers from process memory")
			}
			if pend := st2.Store().PendingTxs(); len(pend) != 0 {
				t.Fatalf("crashed disk store still holds intentions in memory: %v", pend)
			}
			// The durable image holds exactly the in-doubt intention.
			if err := st2.ReopenStable(); err != nil {
				t.Fatal(err)
			}
			if pend := st2.Store().PendingTxs(); len(pend) != 1 {
				t.Fatalf("replayed pending = %v, want exactly one in-doubt tx", pend)
			}
			st2.Recover(nil)
			if pend := st2.Store().PendingTxs(); len(pend) != 0 {
				t.Fatalf("in-doubt tx unresolved after disk restart: %v", pend)
			}
			v, err := st2.Store().Read(w.Objects[0])
			if err != nil {
				t.Fatal(err)
			}
			if abortSide && (string(v.Data) != "0" || v.Seq != 1) {
				t.Fatalf("abort-side: %q/%d, want rolled back 0/1", v.Data, v.Seq)
			}
			if !abortSide && (string(v.Data) != "1" || v.Seq != 2) {
				t.Fatalf("commit-side: %q/%d, want applied 1/2", v.Data, v.Seq)
			}
		})
	}
}

// newInDoubtWorld builds a 1-server/2-store world, injects the chosen
// crash-during-commit variant at st2, and runs one increment. A
// non-empty dataDir puts every node on disk-backed stable storage.
func newInDoubtWorld(t *testing.T, abortSide bool, dataDir string) *harness.World {
	t.Helper()
	sys, w := openT(t, arjuna.WithServers(1), arjuna.WithStores(2), arjuna.WithDataDir(dataDir))
	st2 := w.Cluster.Node("st2")
	rule := transport.ToMethod("st2", store.ServiceName, store.MethodPrepare)
	if abortSide {
		// Lose st1's prepare too so the action cannot commit elsewhere.
		w.Cluster.Faults().DropRequests(1, transport.ToMethod("st1", store.ServiceName, store.MethodPrepare))
		w.Cluster.Faults().DropReplies(1, rule)
	}
	w.Cluster.Faults().OnReply(1, rule, func(transport.Request) { st2.Crash() })
	// The retry loop is armed, and must stay out of it: a store left in
	// doubt does not put the CLIENT in doubt — the coordinator's log decides
	// — and neither a commit nor a failed prepare is a retryable class.
	cl := clientT(t, sys, "c1", arjuna.ClientRetry(5, 2*time.Millisecond))
	_, rep, err := invoke1(context.Background(), cl, w.Objects[0], "add")
	if abortSide && (classOf(err) != opAborted || !errors.Is(err, arjuna.ErrAborted)) {
		t.Fatalf("abort-side run must abort definitely: %v", err)
	}
	if !abortSide && err != nil {
		t.Fatalf("commit-side run must commit: %v", err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", rep.Attempts)
	}
	return w
}
