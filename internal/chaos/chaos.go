package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/pkg/arjuna"
)

// Workload selects what the concurrent clients do while the nemesis runs.
type Workload int

// Workloads.
const (
	// WorkloadCounter: each action increments one randomly chosen counter
	// object by one. Invariant: each counter's final value equals the
	// number of increments its clients saw commit (bounded above by the
	// outcomes a client could not observe).
	WorkloadCounter Workload = iota + 1
	// WorkloadBank: each action atomically moves an amount between two
	// randomly chosen accounts. Invariant: the total over all accounts is
	// exactly conserved — transfers are failure-atomic across their two
	// participants, so no failure pattern may create or destroy money.
	WorkloadBank
	// WorkloadLeasedCounter: counter increments mixed with leased reads
	// served from each client's tiered lease cache. Adds invariant I7: no
	// lease-served read may observe a value older than the newest
	// committed value acknowledged to any client before the read began —
	// the commit fence must kill (or wait out) every stale lease before
	// the commit is acknowledged, even when the nemesis crashes the
	// granting server mid-invalidation.
	WorkloadLeasedCounter
	// WorkloadLeasedMixed: every write is a MIXED transaction — one Atomic
	// that reads object A (from the lease cache when it can) and increments
	// object B — between plain leased reads that keep the caches warm.
	// Conservation holds on the increments, and I7 tightens: commit-time
	// revalidation makes the leased read a locked server read, so what a
	// committed mixed transaction read of A is no older than the newest A
	// acknowledged before its commit processing began.
	WorkloadLeasedMixed
	// WorkloadApplyCounter: the counter workload through Client.Apply —
	// every op is one Apply("add", "1"), whose single request carries the
	// action's phase one (and, over one store, its commit). Same invariants
	// as WorkloadCounter: the settled value covers every increment reported
	// committed and exceeds that only by ones reported in doubt — an Apply
	// whose carrying reply was lost must come back ErrOutcomeUnknown, never
	// aborted, and must never have been retried.
	WorkloadApplyCounter
	// WorkloadReadOnlyRegister: the first workload that checks what a read
	// RETURNS. Each node runs a writer — Apply("add", 1) on a counter key, and
	// transfers between the two pair objects that keep their sum at zero —
	// beside a ClientReadOnly reader doing single reads of the counter keys
	// and two-object reads of the pair, the two concurrently. On top of the
	// shared invariants: a committed read of a key is no older than the node's
	// own increments acknowledged before it began and no newer than the
	// increments anyone had begun, less those already reported aborted; one
	// client's reads of one key never go backwards; and a committed read of
	// the pair sees the conserved sum — a read-only client's first read is
	// released as it is answered, so its second must fail the action's
	// re-check whenever a transfer slipped in between.
	WorkloadReadOnlyRegister
)

// String implements fmt.Stringer.
func (w Workload) String() string {
	switch w {
	case WorkloadCounter:
		return "counter"
	case WorkloadBank:
		return "bank"
	case WorkloadLeasedCounter:
		return "leased-counter"
	case WorkloadLeasedMixed:
		return "leased-mixed"
	case WorkloadApplyCounter:
		return "apply-counter"
	case WorkloadReadOnlyRegister:
		return "read-only-register"
	default:
		return fmt.Sprintf("workload(%d)", int(w))
	}
}

// Config sizes one chaos run. The zero value of every field is replaced
// by a sensible default (see withDefaults); Seed alone distinguishes
// schedules.
type Config struct {
	// Seed determines the fault schedule, the workload content, the
	// network jitter and the per-message fault coin flips.
	Seed int64
	// Cluster shape. With Shards > 1, Servers and Stores are per-shard
	// counts (as in harness.Options) and the namespace is partitioned
	// across that many groups by the placement ring.
	Servers, Stores, Clients, Objects int
	Shards                            int
	// ActionsPerClient is each client's action count.
	ActionsPerClient int
	// Events is the nemesis schedule length.
	Events int
	// Workload selects the client behaviour (default counter).
	Workload Workload
	// Scheme and Policy configure the binding layer.
	Scheme core.Scheme
	Policy replica.Policy
	// ActionTimeout bounds one client action (faults may stall locks and
	// binds; the timeout turns a stall into an abort).
	ActionTimeout time.Duration
	// LeaseTTL is the read-lease duration for the leased workloads
	// (default 80ms there; ignored by the others). Long enough that
	// a lease outlives the slow read path that harvested it (an enhanced
	// bind runs ~25ms of database actions), yet short enough relative to
	// ActionTimeout that the 2×TTL first-commit grace and fence waitouts
	// cannot turn every version advance into a timeout.
	LeaseTTL time.Duration
	// Jitter randomizes per-message latency to vary interleavings.
	Jitter time.Duration
	// BiasInDoubt converts half the schedule into crash-during-commit
	// injections — the dedicated in-doubt convergence configuration.
	BiasInDoubt bool
	// GrayFailures adds gray-failure injections to the schedule: a node
	// keeps accepting requests and executing them but holds every reply
	// past the callers' deadlines. The flag gates every extra rng draw,
	// so classic schedules replay bit-identically with it off.
	GrayFailures bool
	// Transport selects the message carrier: "" or "mem" runs over the
	// in-memory simulator (jittered per Seed), "mux" over the real-socket
	// multiplexed TCP transport wrapped in transport.Faulty so the same
	// seeded nemesis schedules fire. Jitter is ignored on mux — the real
	// sockets bring their own scheduling nondeterminism — so only the
	// fault coin flips, not message timings, replay identically.
	Transport string
	// DataDir switches the run onto disk-backed stable storage rooted
	// here (tests pass t.TempDir() to stay hermetic): crashes drop whole
	// process images and recovery replays WAL+snapshot. Empty keeps the
	// in-memory backend. Only DataDir's emptiness influences the
	// schedule, never its value, so replays from fresh temp dirs
	// reproduce the same fault plan.
	DataDir string
	// Disk tunes the disk engine when DataDir is set.
	Disk storage.DiskOptions
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.Servers, 2)
	def(&c.Stores, 3)
	def(&c.Clients, 3)
	def(&c.Objects, 3)
	if c.Workload == WorkloadReadOnlyRegister {
		c.Objects = max(c.Objects, 3) // the pair and at least one counter key
	}
	def(&c.Shards, 1)
	def(&c.ActionsPerClient, 15)
	def(&c.Events, 10)
	if c.Workload == 0 {
		c.Workload = WorkloadCounter
	}
	if c.Scheme == 0 {
		c.Scheme = core.SchemeIndependent
	}
	if c.Policy == 0 {
		c.Policy = replica.SingleCopyPassive
	}
	if c.ActionTimeout <= 0 {
		c.ActionTimeout = 300 * time.Millisecond
	}
	if (c.Workload == WorkloadLeasedCounter || c.Workload == WorkloadLeasedMixed) && c.LeaseTTL <= 0 {
		c.LeaseTTL = 80 * time.Millisecond
	}
	if c.Jitter <= 0 {
		c.Jitter = 200 * time.Microsecond
	}
	return c
}

// Report summarises one chaos run. Violations empty means every invariant
// held; anything else is a reproducible bug (re-run the seed).
type Report struct {
	Seed int64
	// Schedule lists the nemesis events actually applied, in order.
	Schedule []string
	// Notes records non-fatal observations (e.g. an online recovery that
	// had to be retried at quiesce because the DB was partitioned).
	Notes []string
	// Committed/Aborted/Uncertain count client actions by the outcome the
	// facade reported: nil, ErrAborted, ErrOutcomeUnknown. An uncertain
	// action's commit ended in doubt — its effects may stand — so
	// conservation is checked as a bound.
	Committed, Aborted, Uncertain int
	// Retried counts actions whose Atomic ran more than one attempt (a
	// lock refusal, overload, open breaker or stale lease was retried).
	Retried int
	// LeaseStale counts attempts that commit-time lease revalidation
	// aborted (ErrLeaseStale) before they could commit over a superseded
	// snapshot.
	LeaseStale int
	// InDoubtResolved counts prepared-but-undecided intentions that
	// recovery resolved against coordinator outcome logs.
	InDoubtResolved int
	// LeasedReads counts committed reads the leased workloads served
	// straight from a lease cache (zero RPCs).
	LeasedReads int
	// Repairs lists quiesce-time interventions (restarting wedged server
	// instances whose phase-two traffic was lost).
	Repairs []string
	// FinalValues holds each object's settled value ("obj<i>" keys).
	FinalValues map[string]int
	// Violations lists every invariant breach found after quiesce.
	Violations []string
}

type outcomeClass int

const (
	opCommitted outcomeClass = iota + 1
	opAborted
	opUncertain
)

type opRec struct {
	tx     string
	client transport.Addr
	class  outcomeClass
	// obj and val trace committed counter increments: val is the value
	// the client observed the counter at after its add — the replay
	// breadcrumb that pinpoints WHICH committed update went missing.
	obj int
	val int
	// onePhase and excluded annotate a committed op's commit shape, so a
	// forked chain's trace shows WHERE each branch lived.
	onePhase bool
	excluded []transport.Addr
	// errMsg captures a non-committed op's error — the breadcrumb that
	// distinguishes "aborted on bind" from "aborted after its invoke
	// already observed a value" when hunting a phantom update.
	errMsg string
	// read marks a read-only op (leased-counter workload), excluded from
	// the committed-increment chain breadcrumbs.
	read bool
}

// registerRead traces one committed read of WorkloadReadOnlyRegister. A
// counter-key read carries the bounds it is held to: lo, the reading node's
// own increments of the key acknowledged before the read began, and hi, the
// increments anyone had begun by the time it returned less those reported
// aborted before it began. A pair read has saw = the sum it observed, and
// lo = hi = 0.
type registerRead struct {
	client      transport.Addr
	obj         int
	pair        bool
	saw, lo, hi int
}

// keyCounts tallies the increments of one counter key for the read bounds.
type keyCounts struct {
	begun, aborted int
	ackedBy        map[transport.Addr]int
}

// leaseReadRec traces one committed read of the leased workloads for I7:
// floor is the newest committed counter value some client had already
// seen acknowledged when the read BEGAN (a mixed transaction's: when its
// body finished), saw the value the read returned, leased whether a lease
// cache served it — only those reads are held to the floor — and mixed
// marks a mixed transaction's read.
type leaseReadRec struct {
	obj    int
	floor  int
	saw    int
	leased bool
	mixed  bool
}

type objTally struct {
	committed int // sum of deltas the clients saw commit
	uncertain int // sum of deltas with unobservable outcomes
}

type runner struct {
	cfg Config
	// sys is the deployment as applications see it; w its nodes and
	// stores, for the nemesis and the checks.
	sys    *arjuna.System
	w      *harness.World
	faults *transport.Faults
	// trace keeps the messages the I8 breadcrumbs read; nil unless the
	// workload is WorkloadReadOnlyRegister over the in-memory transport.
	trace *callTrace

	progress atomic.Int64

	mu          sync.Mutex
	report      *Report
	tallies     []objTally
	ops         []opRec
	ackedMax    []int // per object: newest acknowledged committed value (I7 floor)
	leaseReads  []leaseReadRec
	regReads    []registerRead
	keys        []keyCounts // per object (WorkloadReadOnlyRegister)
	partitions  map[[2]transport.Addr]bool
	everCrashed map[transport.Addr]bool
}

// Run executes one seeded chaos schedule and returns its report. The
// error return covers harness construction only; invariant breaches are
// reported in Report.Violations.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	opts := []arjuna.Option{
		arjuna.WithServers(cfg.Servers), arjuna.WithStores(cfg.Stores),
		arjuna.WithClients(cfg.Clients), arjuna.WithObjects(cfg.Objects),
		arjuna.WithShards(cfg.Shards),
		// The seed also feeds each client's retry-backoff jitter.
		arjuna.WithMemNetwork(transport.MemOptions{Jitter: cfg.Jitter, Seed: cfg.Seed}),
		arjuna.WithDataDir(cfg.DataDir), arjuna.WithDiskOptions(cfg.Disk),
	}
	if cfg.LeaseTTL > 0 {
		opts = append(opts, arjuna.WithReadLeases(cfg.LeaseTTL))
	}
	var trace *callTrace
	switch cfg.Transport {
	case "", "mem":
		if cfg.Workload == WorkloadReadOnlyRegister {
			trace = &callTrace{Mem: transport.NewMem(transport.MemOptions{Jitter: cfg.Jitter, Seed: cfg.Seed}, nil)}
			opts = append(opts, arjuna.WithNetwork(trace))
		}
	case "mux":
		opts = append(opts, arjuna.WithNetwork(
			transport.NewFaulty(transport.NewTCPMux(), transport.NewFaultsSeeded(cfg.Seed))))
	default:
		return nil, fmt.Errorf("chaos: unknown transport %q", cfg.Transport)
	}
	sys, err := arjuna.Open(opts...)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	w := sys.World()
	faults := w.Cluster.Faults()
	faults.Reseed(cfg.Seed)
	r := &runner{
		cfg:    cfg,
		sys:    sys,
		w:      w,
		faults: faults,
		trace:  trace,
		report: &Report{
			Seed:        cfg.Seed,
			FinalValues: make(map[string]int),
		},
		tallies:     make([]objTally, cfg.Objects),
		ackedMax:    make([]int, cfg.Objects),
		keys:        make([]keyCounts, cfg.Objects),
		partitions:  make(map[[2]transport.Addr]bool),
		everCrashed: make(map[transport.Addr]bool),
	}

	clients := make([]*arjuna.Client, len(w.Clients))
	for i, name := range w.Clients {
		clients[i], err = sys.Client(string(name), arjuna.ClientScheme(cfg.Scheme), arjuna.ClientPolicy(cfg.Policy))
		if err != nil {
			return nil, err
		}
	}

	events := GenerateSchedule(cfg.Seed, cfg)
	nemesisCtx, stopNemesis := context.WithCancel(context.Background())
	var nemesisDone sync.WaitGroup
	nemesisDone.Add(1)
	go func() {
		defer nemesisDone.Done()
		r.nemesis(nemesisCtx, events)
	}()

	var workers sync.WaitGroup
	for i, cl := range clients {
		workers.Add(1)
		go func(idx int, cl *arjuna.Client) {
			defer workers.Done()
			r.worker(idx, cl)
		}(i, cl)
	}
	workers.Wait()
	stopNemesis()
	nemesisDone.Wait()

	r.quiesce()
	r.report.Violations = r.checkInvariants()
	return r.report, nil
}

// --- workload ---

// worker runs client node idx's share of the workload. The worker IS an
// application client: every action goes through arjuna.Client.Atomic —
// retry classes, jittered backoff, lease revalidation and error taxonomy
// included.
func (r *runner) worker(idx int, cl *arjuna.Client) {
	// Per-client source: decorrelated from the schedule rng but still a
	// pure function of the seed.
	rng := rand.New(rand.NewSource(r.cfg.Seed ^ int64(idx+1)*0x5851F42D4C957F2D))
	if r.cfg.Workload == WorkloadReadOnlyRegister {
		r.registerWorker(cl, rng)
		return
	}
	for i := 0; i < r.cfg.ActionsPerClient; i++ {
		switch r.cfg.Workload {
		case WorkloadBank:
			r.bankOp(cl, rng)
		case WorkloadLeasedCounter:
			r.leasedOp(cl, rng)
		case WorkloadLeasedMixed:
			r.mixedOp(cl, rng)
		case WorkloadApplyCounter:
			r.applyOp(cl, rng)
		default:
			r.counterOp(cl, rng)
		}
		r.progress.Add(1)
	}
}

// classOf is the facade's three-way contract, which the invariants hold it
// to: nil — committed; ErrOutcomeUnknown — in doubt, the effects may stand;
// anything else carries ErrAborted — every effect was undone.
func classOf(err error) outcomeClass {
	switch {
	case err == nil:
		return opCommitted
	case errors.Is(err, arjuna.ErrOutcomeUnknown):
		return opUncertain
	default:
		return opAborted
	}
}

// step is one counter invocation of a workload action: "add" delta, or
// "get".
type step struct {
	obj    int
	method string
	delta  int
}

// atomic runs steps as ONE Client.Atomic and files the outcome under the
// class the returned error names: the op trace (final attempt's id, last
// step's object and value, commit shape), the outcome counters, and the
// deltas that class owes the conservation tallies. atEnd, when set, runs
// at the end of every attempt's body. It returns the value each step
// observed in the final attempt.
func (r *runner) atomic(ctx context.Context, cl *arjuna.Client, atEnd func(), steps ...step) ([]int, *arjuna.CommitReport, outcomeClass) {
	vals := make([]int, len(steps))
	op := opRec{client: cl.Name(), obj: steps[len(steps)-1].obj, read: true}
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		op.tx = tx.ID()
		for i, s := range steps {
			out, err := tx.Object(r.w.Objects[s.obj]).Invoke(ctx, s.method, []byte(strconv.Itoa(s.delta)))
			if err != nil {
				return err
			}
			if vals[i], err = strconv.Atoi(string(out)); err != nil {
				return err
			}
		}
		if atEnd != nil {
			atEnd()
		}
		return nil
	})
	op.val = vals[len(vals)-1]
	return vals, rep, r.file(op, rep, err, steps...)
}

// file records one finished action under the class its error names and
// returns that class.
func (r *runner) file(op opRec, rep *arjuna.CommitReport, err error, steps ...step) outcomeClass {
	op.class = classOf(err)
	op.onePhase, op.excluded = rep.OnePhase, rep.ExcludedStores
	if err != nil {
		op.errMsg = err.Error()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rep.Attempts > 1 {
		r.report.Retried++
	}
	r.report.LeaseStale += rep.LeaseStale
	for _, s := range steps {
		if s.method != "add" {
			continue
		}
		op.read = false
		switch op.class {
		case opCommitted:
			r.tallies[s.obj].committed += s.delta
		case opUncertain:
			r.tallies[s.obj].uncertain += s.delta
		}
	}
	switch op.class {
	case opCommitted:
		r.report.Committed++
	case opAborted:
		r.report.Aborted++
	case opUncertain:
		r.report.Uncertain++
	}
	r.ops = append(r.ops, op)
	return op.class
}

// actionCtx bounds one workload action.
func (r *runner) actionCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), r.cfg.ActionTimeout)
}

func (r *runner) counterOp(cl *arjuna.Client, rng *rand.Rand) {
	ctx, cancel := r.actionCtx()
	defer cancel()
	r.atomic(ctx, cl, nil, step{rng.Intn(r.cfg.Objects), "add", 1})
}

// applyOp is counterOp through Client.Apply.
func (r *runner) applyOp(cl *arjuna.Client, rng *rand.Rand) {
	ctx, cancel := r.actionCtx()
	defer cancel()
	r.applyAdd(ctx, cl, rng.Intn(r.cfg.Objects))
}

// applyAdd increments counter obj by one Client.Apply and files the outcome.
// The facade does not name the action, so the op trace carries no id.
func (r *runner) applyAdd(ctx context.Context, cl *arjuna.Client, obj int) outcomeClass {
	s := step{obj, "add", 1}
	op := opRec{client: cl.Name(), obj: obj}
	out, rep, err := cl.Apply(ctx, r.w.Objects[obj], s.method, []byte(strconv.Itoa(s.delta)))
	op.val, _ = strconv.Atoi(string(out))
	return r.file(op, rep, err, s)
}

// registerWorker runs one node's share of WorkloadReadOnlyRegister: the
// writer (cl) and a ClientReadOnly reader on the same node, concurrently,
// half the node's actions each. Objects 0 and 1 are the pair transfers move
// value between; the rest are counter keys.
func (r *runner) registerWorker(cl *arjuna.Client, rng *rand.Rand) {
	ro, err := r.sys.Client(string(cl.Name()), arjuna.ClientScheme(r.cfg.Scheme), arjuna.ClientPolicy(r.cfg.Policy), arjuna.ClientReadOnly())
	if err != nil {
		panic(fmt.Sprintf("chaos: read-only client on %s: %v", cl.Name(), err)) // the node exists: cl runs on it
	}
	readerRng := rand.New(rand.NewSource(rng.Int63()))
	key := func(rng *rand.Rand) int { return 2 + rng.Intn(r.cfg.Objects-2) }
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < (r.cfg.ActionsPerClient+1)/2; i++ {
			ctx, cancel := r.actionCtx()
			if rng.Intn(5) < 3 {
				r.registerAdd(ctx, cl, key(rng))
			} else {
				amount := 1 + rng.Intn(5)
				r.atomic(ctx, cl, nil, step{0, "add", -amount}, step{1, "add", amount})
			}
			cancel()
			r.progress.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < r.cfg.ActionsPerClient/2; i++ {
			ctx, cancel := r.actionCtx()
			if readerRng.Intn(2) == 0 {
				r.registerRead(ctx, ro, key(readerRng))
			} else if vals, _, class := r.atomic(ctx, ro, nil, step{0, "get", 0}, step{1, "get", 0}); class == opCommitted {
				r.mu.Lock()
				r.regReads = append(r.regReads, registerRead{client: ro.Name(), pair: true, saw: vals[0] + vals[1]})
				r.mu.Unlock()
			}
			cancel()
			r.progress.Add(1)
		}
	}()
	wg.Wait()
}

// registerAdd is applyAdd on a counter key, counted for the read bounds.
func (r *runner) registerAdd(ctx context.Context, cl *arjuna.Client, obj int) {
	r.mu.Lock()
	r.keys[obj].begun++
	r.mu.Unlock()
	class := r.applyAdd(ctx, cl, obj)
	r.mu.Lock()
	defer r.mu.Unlock()
	k := &r.keys[obj]
	switch class {
	case opCommitted:
		if k.ackedBy == nil {
			k.ackedBy = make(map[transport.Addr]int)
		}
		k.ackedBy[cl.Name()]++
	case opAborted:
		k.aborted++
	}
}

// registerRead reads one counter key through the read-only client and
// records what a committed read saw between the bounds taken around it.
func (r *runner) registerRead(ctx context.Context, ro *arjuna.Client, obj int) {
	r.mu.Lock()
	lo, aborted := r.keys[obj].ackedBy[ro.Name()], r.keys[obj].aborted
	r.mu.Unlock()
	vals, _, class := r.atomic(ctx, ro, nil, step{obj, "get", 0})
	if class != opCommitted {
		return
	}
	r.mu.Lock()
	r.regReads = append(r.regReads, registerRead{client: ro.Name(), obj: obj, saw: vals[0], lo: lo, hi: r.keys[obj].begun - aborted})
	r.mu.Unlock()
}

// leasedOp runs one leased-counter action: ~60% leased reads, the rest
// plain increments. Reads snapshot the I7 floor — the newest committed
// value already acknowledged on this object — BEFORE starting, so the
// floor is a sound lower bound on what the read "could have observed";
// increments raise the floor only after their commit is acknowledged.
func (r *runner) leasedOp(cl *arjuna.Client, rng *rand.Rand) {
	obj := rng.Intn(r.cfg.Objects)
	ctx, cancel := r.actionCtx()
	defer cancel()
	if rng.Intn(5) < 3 {
		r.readPair(ctx, cl, obj)
	} else if vals, _, class := r.atomic(ctx, cl, nil, step{obj, "add", 1}); class == opCommitted {
		r.ack(obj, vals[0])
	}
}

// ack raises object obj's I7 floor to val, the counter value a commit
// just acknowledged to its client.
func (r *runner) ack(obj, val int) {
	r.mu.Lock()
	r.ackedMax[obj] = max(r.ackedMax[obj], val)
	r.mu.Unlock()
}

func (r *runner) floor(obj int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ackedMax[obj]
}

func (r *runner) leaseRead(rec leaseReadRec) {
	r.mu.Lock()
	r.leaseReads = append(r.leaseReads, rec)
	if rec.leased {
		r.report.LeasedReads++
	}
	r.mu.Unlock()
}

// readPair reads obj twice — the locality a lease cache exists for: the
// first read harvests a grant on a miss, the second typically hits it.
// Both are I7-checked against their own floor snapshot.
func (r *runner) readPair(ctx context.Context, cl *arjuna.Client, obj int) {
	for k := 0; k < 2; k++ {
		floor := r.floor(obj)
		if vals, rep, class := r.atomic(ctx, cl, nil, step{obj, "get", 0}); class == opCommitted {
			r.leaseRead(leaseReadRec{obj: obj, floor: floor, saw: vals[0], leased: rep.LeaseReads > 0})
		}
	}
}

// mixedOp runs one leased-mixed action: ~40% read pairs (which also keep
// the lease caches warm), the rest the mixed transaction — read A, then
// increment B, in ONE Atomic. A's I7 floor is snapshotted at the end of
// the body, after B's increment returned: every commit on A acknowledged
// by then precedes this transaction's commit processing, so revalidating
// a lease-served read of A must have made the transaction observe it.
func (r *runner) mixedOp(cl *arjuna.Client, rng *rand.Rand) {
	a := rng.Intn(r.cfg.Objects)
	b := (a + 1 + rng.Intn(r.cfg.Objects-1)) % r.cfg.Objects
	ctx, cancel := r.actionCtx()
	defer cancel()
	if rng.Intn(5) < 2 {
		r.readPair(ctx, cl, a)
		return
	}
	var floor int
	vals, rep, class := r.atomic(ctx, cl, func() { floor = r.floor(a) }, step{a, "get", 0}, step{b, "add", 1})
	if class == opCommitted {
		r.leaseRead(leaseReadRec{obj: a, floor: floor, saw: vals[0], leased: rep.LeaseReads > 0, mixed: true})
		r.ack(b, vals[1])
	}
}

// bankOp moves an amount between two accounts in one action, so the
// transfer is failure-atomic across its two participants.
func (r *runner) bankOp(cl *arjuna.Client, rng *rand.Rand) {
	from := rng.Intn(r.cfg.Objects)
	to := (from + 1 + rng.Intn(r.cfg.Objects-1)) % r.cfg.Objects
	amount := 1 + rng.Intn(5)
	ctx, cancel := r.actionCtx()
	defer cancel()
	r.atomic(ctx, cl, nil, step{from, "add", -amount}, step{to, "add", amount})
}

// --- nemesis ---

func (r *runner) nemesis(ctx context.Context, events []Event) {
	for _, e := range events {
		for r.progress.Load() < int64(e.After) {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
		r.apply(e)
		r.mu.Lock()
		r.report.Schedule = append(r.report.Schedule, e.String())
		r.mu.Unlock()
	}
}

func (r *runner) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.report.Notes = append(r.report.Notes, fmt.Sprintf(format, args...))
}

func (r *runner) markCrashed(addr transport.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.everCrashed[addr] = true
}

func (r *runner) apply(e Event) {
	switch e.Kind {
	case KindCrashStore, KindCrashServer:
		r.markCrashed(e.Target)
		r.w.Cluster.Node(e.Target).Crash()
	case KindRecoverNode:
		r.recoverNode(e.Target)
	case KindPartition:
		r.faults.Partition(e.Target, e.Peer)
		r.mu.Lock()
		r.partitions[[2]transport.Addr{e.Target, e.Peer}] = true
		r.mu.Unlock()
	case KindHealAll:
		r.mu.Lock()
		pairs := r.partitions
		r.partitions = make(map[[2]transport.Addr]bool)
		r.mu.Unlock()
		for p := range pairs {
			r.faults.Heal(p[0], p[1])
		}
	case KindDropRequests:
		r.faults.DropRequestsP(e.P, e.Count, methodRule(e.Target, e.Service, e.Method))
	case KindDropReplies:
		r.faults.DropRepliesP(e.P, e.Count, methodRule(e.Target, e.Service, e.Method))
	case KindDelay:
		r.faults.DelayRequests(e.P, e.Count, e.Hold, transport.To(e.Target))
	case KindDuplicate:
		r.faults.DuplicateRequests(e.P, e.Count, methodRule(e.Target, e.Service, e.Method))
	case KindReorder:
		r.faults.ReorderRequests(e.P, e.Count, e.Hold, transport.To(e.Target))
	case KindCrashDuringCommit:
		// The in-doubt injection: the target store dies the instant its
		// prepare acknowledgement is on the wire — it has voted commit and
		// will only ever learn the outcome from the coordinator's log at
		// restart. The abort-side variant loses the acknowledgement too,
		// so the coordinator aborts while the dead store holds a prepared
		// intention (presumed abort must clean it up).
		r.markCrashed(e.Target)
		n := r.w.Cluster.Node(e.Target)
		rule := methodRule(e.Target, store.ServiceName, store.MethodPrepare)
		if e.AbortSide {
			r.faults.DropRepliesP(1, 1, rule)
		}
		r.faults.OnReply(1, rule, func(transport.Request) { n.Crash() })
	case KindGrayFail:
		// Gray failure: the target executes everything it is sent but
		// holds every reply for Hold — callers' deadlines expire while
		// the side effects stand. Cleared (with all rules) at quiesce.
		r.faults.DelayReplies(1, -1, e.Hold, transport.To(e.Target))
	}
}

// methodRule matches the method's requests at target. Two rules keep the
// reach their plans were drawn with, so that every pinned seed replays the
// same plan. A store Prepare rule matches two-phase prepares only: the
// one-phase round travels as a Prepare too, and the plans were drawn for
// the prepare that leaves an intention to be in doubt about. An object
// server Invoke rule matches invokes that name a method only: the
// activation probe and the lease check travel as method-less Invokes now,
// and the plans were drawn when each was a message of its own.
func methodRule(target transport.Addr, service, method string) transport.FaultRule {
	rule := transport.ToMethod(target, service, method)
	switch {
	case service == store.ServiceName && method == store.MethodPrepare:
		return func(req transport.Request) bool {
			var q store.PrepareReq
			return rule(req) && rpc.Decode(req.Payload, &q) == nil && !q.OnePhase
		}
	case service == object.ServiceName && method == object.MethodInvoke:
		return func(req transport.Request) bool {
			var q object.InvokeReq
			return rule(req) && rpc.Decode(req.Payload, &q) == nil && q.Method != ""
		}
	}
	return rule
}

// recoverNode attempts an online recovery mid-run, the way an operator
// would: System.Recover restarts the node (resolving in-doubt intentions
// against coordinator logs via the cluster's outcome resolver) and runs its
// role's store/server recovery protocol. Protocol failures under active
// faults are notes, not errors — quiesce retries them in a clean network.
func (r *runner) recoverNode(target transport.Addr) {
	n := r.w.Cluster.Node(target)
	if n == nil || n.Up() {
		return
	}
	r.countInDoubt(target)
	ctx, cancel := context.WithTimeout(context.Background(), 2*r.cfg.ActionTimeout)
	defer cancel()
	if err := r.sys.Recover(ctx, string(target)); err != nil {
		r.note("online recovery of %s deferred: %v", target, err)
	}
}

func (r *runner) isStore(addr transport.Addr) bool {
	return slices.Contains(r.w.Sts, addr)
}

func (r *runner) countInDoubt(addr transport.Addr) {
	if !r.isStore(addr) {
		return
	}
	n := r.w.Cluster.Node(addr)
	// A crashed disk-backed node holds nothing in process memory; reload
	// its durable state (without bringing it up) so the pending
	// intentions it will resolve at restart are countable.
	if !n.Up() {
		if err := n.ReopenStable(); err != nil {
			r.note("reopen %s for in-doubt accounting failed: %v", addr, err)
			return
		}
	}
	if pend := n.Store().PendingTxs(); len(pend) > 0 {
		r.mu.Lock()
		r.report.InDoubtResolved += len(pend)
		r.mu.Unlock()
	}
}

// --- quiesce ---

// quiesce drains the chaos: heal the network, restart every crashed node
// (stores before servers, so catch-up has sources), sweep any intention
// still pending on a live store (the restart-equivalent resolution), and
// restart wedged server instances. After quiesce the cluster must satisfy
// every invariant.
func (r *runner) quiesce() {
	r.faults.Clear()

	// Restart crashed stores; their pending intentions resolve against
	// coordinator logs inside Recover.
	for _, st := range r.w.Sts {
		n := r.w.Cluster.Node(st)
		if !n.Up() {
			r.countInDoubt(st)
			n.Recover(nil)
		}
	}
	// Live stores may hold intentions whose phase-two or abort message
	// was lost; resolve them the same way a restart would.
	for _, st := range r.w.Sts {
		n := r.w.Cluster.Node(st)
		if pend := n.Store().PendingTxs(); len(pend) > 0 {
			r.mu.Lock()
			r.report.InDoubtResolved += len(pend)
			r.mu.Unlock()
			applied, aborted := n.Store().Recover(r.w.OutcomeLogFor(n))
			r.note("swept %s: applied %v, aborted %v", st, applied, aborted)
		}
	}
	// Restart crashed servers (their volatile instances are gone; the
	// recovery protocol re-Inserts them into Sv).
	for _, sv := range r.w.Svs {
		if n := r.w.Cluster.Node(sv); !n.Up() {
			n.Recover(nil)
		}
	}
	// Wedged instances: a server that missed an action's phase-two or
	// abort message keeps its users/prepared entries (and the action's
	// locks) forever. Model the operator restart: force-passivate; the
	// stores hold the durable truth.
	cli := r.w.Cluster.Node(r.w.Clients[0]).Client()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, sv := range r.w.Svs {
		for i, id := range r.w.Objects {
			ref := object.ServerRef{Client: cli, Node: sv, UID: id}
			stat, err := ref.Status(ctx)
			if err != nil || !stat.Active {
				continue
			}
			if stat.Users > 0 || stat.Prepared > 0 {
				if _, err := ref.Passivate(ctx, true); err == nil {
					r.mu.Lock()
					r.report.Repairs = append(r.report.Repairs,
						fmt.Sprintf("restarted wedged instance obj%d@%s (users=%d prepared=%d)", i, sv, stat.Users, stat.Prepared))
					r.mu.Unlock()
				}
			}
		}
	}
	// Catch-up protocols for every node that ever crashed (stores before
	// servers, again), now that the network is clean and intentions are
	// settled. A few retries paper over ordering between mutually-dependent
	// recoveries.
	r.mu.Lock()
	var crashed []transport.Addr
	for _, a := range slices.Concat(r.w.Sts, r.w.Svs) {
		if r.everCrashed[a] {
			crashed = append(crashed, a)
		}
	}
	r.mu.Unlock()
	for attempt := 0; attempt < 3; attempt++ {
		ok := true
		for _, a := range crashed {
			if err := r.sys.Recover(ctx, string(a)); err != nil {
				ok = false
				if attempt == 2 {
					r.note("quiesce recovery of %s failed: %v", a, err)
				}
			}
		}
		if ok {
			break
		}
	}
}
