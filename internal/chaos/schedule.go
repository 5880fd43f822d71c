package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/object"
	"repro/internal/store"
	"repro/internal/transport"
)

// EventKind classifies one nemesis action.
type EventKind int

// Nemesis event kinds.
const (
	KindCrashStore EventKind = iota + 1
	KindCrashServer
	KindRecoverNode
	KindPartition
	KindHealAll
	KindDropRequests
	KindDropReplies
	KindDelay
	KindDuplicate
	KindReorder
	KindCrashDuringCommit
	// KindGrayFail (Config.GrayFailures) makes the target sick rather
	// than dead: it accepts every request and executes it, but holds all
	// replies for Hold — past the callers' deadlines, so side effects
	// stand while the caller times out. The fail-silent detectors never
	// fire; only deadline expiry (and the circuit breakers built on it)
	// can contain the node.
	KindGrayFail
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case KindCrashStore:
		return "crash-store"
	case KindCrashServer:
		return "crash-server"
	case KindRecoverNode:
		return "recover-node"
	case KindPartition:
		return "partition"
	case KindHealAll:
		return "heal-all"
	case KindDropRequests:
		return "drop-requests"
	case KindDropReplies:
		return "drop-replies"
	case KindDelay:
		return "delay"
	case KindDuplicate:
		return "duplicate"
	case KindReorder:
		return "reorder"
	case KindCrashDuringCommit:
		return "crash-during-commit"
	case KindGrayFail:
		return "gray-fail"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled nemesis action. A schedule is applied in order;
// each event fires once the cluster-wide count of finished actions
// reaches After, which keeps a schedule's shape independent of machine
// speed.
type Event struct {
	// After is the finished-action threshold that triggers the event.
	After int
	// Kind selects the nemesis action.
	Kind EventKind
	// Target is the node the event acts on (crashes, rules); Peer is the
	// second node of a partition.
	Target transport.Addr
	Peer   transport.Addr
	// Service/Method scope probabilistic rules to one RPC method.
	Service string
	Method  string
	// P is the per-match firing probability of an installed rule; Count
	// bounds how many times it fires.
	P     float64
	Count int
	// Hold sizes delay and reorder faults.
	Hold time.Duration
	// AbortSide selects the presumed-abort variant of a
	// crash-during-commit injection: the prepare acknowledgement is lost
	// along with the node, so the coordinator aborts while the dead
	// participant holds a prepared intention.
	AbortSide bool
}

// String renders the event for schedule traces.
func (e Event) String() string {
	s := fmt.Sprintf("@%d %s", e.After, e.Kind)
	switch e.Kind {
	case KindPartition:
		return fmt.Sprintf("%s %s<->%s", s, e.Target, e.Peer)
	case KindHealAll:
		return s
	case KindDropRequests, KindDropReplies, KindDuplicate:
		return fmt.Sprintf("%s %s.%s@%s p=%.2f n=%d", s, e.Service, e.Method, e.Target, e.P, e.Count)
	case KindDelay, KindReorder:
		return fmt.Sprintf("%s %s p=%.2f n=%d hold=%s", s, e.Target, e.P, e.Count, e.Hold)
	case KindCrashDuringCommit:
		side := "commit-side"
		if e.AbortSide {
			side = "abort-side"
		}
		return fmt.Sprintf("%s %s (%s)", s, e.Target, side)
	case KindGrayFail:
		return fmt.Sprintf("%s %s hold=%s", s, e.Target, e.Hold)
	default:
		return fmt.Sprintf("%s %s", s, e.Target)
	}
}

// storeMethods are the store RPC methods probabilistic rules may target;
// duplicateMethods is the idempotent-by-contract subset that duplication
// faults are restricted to (duplicating a non-idempotent method is an
// application bug to hunt separately, not a harness feature).
var (
	storeDropMethods = []string{store.MethodPrepare, store.MethodCommit, store.MethodAbort, store.MethodRead}
	duplicateMethods = []string{store.MethodPrepare, store.MethodCommit, store.MethodAbort}
	objsrvMethods    = []string{object.MethodInvoke, object.MethodPrepare, object.MethodCommit, object.MethodAbort}
)

// GenerateSchedule derives the fault schedule for a seed: a pure function
// of (seed, cfg), so a failing run's schedule is reproduced exactly by its
// seed. The generator tracks a model of which nodes it has crashed so
// recover events name real victims and the cluster is never scheduled to
// lose every store at once.
func GenerateSchedule(seed int64, cfg Config) []Event {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	total := cfg.Clients * cfg.ActionsPerClient

	// Sharded configs have Shards×(Servers, Stores) nodes, numbered
	// contiguously across groups; the nemesis targets them all alike.
	stores := make([]transport.Addr, cfg.Stores*cfg.Shards)
	for i := range stores {
		stores[i] = transport.Addr("st" + strconv.Itoa(i+1))
	}
	servers := make([]transport.Addr, cfg.Servers*cfg.Shards)
	for i := range servers {
		servers[i] = transport.Addr("sv" + strconv.Itoa(i+1))
	}
	all := append(append([]transport.Addr{}, stores...), servers...)
	crashed := map[transport.Addr]bool{}
	crashedList := func() []transport.Addr {
		var out []transport.Addr
		for _, n := range all {
			if crashed[n] {
				out = append(out, n)
			}
		}
		return out
	}
	downStores := 0

	pick := func(from []transport.Addr) transport.Addr { return from[rng.Intn(len(from))] }

	// Draw all firing thresholds first and sort them, so the crash/recover
	// model below is maintained in the SAME order the events apply at
	// runtime — a model tracked in generation order would let a
	// late-threshold crash be "paid for" by an earlier-generated but
	// later-applied recover, scheduling the cluster into losing every
	// store at once. Thresholds spread over the first three quarters of
	// the run so late events still see traffic.
	afters := make([]int, cfg.Events)
	for i := range afters {
		afters[i] = 1 + rng.Intn(max(1, total*3/4))
	}
	sort.Ints(afters)

	crashStore := func(target transport.Addr) {
		if !crashed[target] {
			crashed[target] = true
			downStores++
		}
	}
	events := make([]Event, 0, cfg.Events)
	haveInDoubt := false
	for i := 0; i < cfg.Events; i++ {
		// The in-doubt injection is decided up front so its model
		// bookkeeping composes with everything after it.
		if inject := cfg.BiasInDoubt && i%2 == 0 || !haveInDoubt && rng.Float64() < 0.25; inject && downStores < len(stores)-1 {
			e := Event{After: afters[i], Kind: KindCrashDuringCommit, Target: pick(stores), AbortSide: rng.Intn(2) == 0}
			crashStore(e.Target)
			haveInDoubt = true
			events = append(events, e)
			continue
		}
		var e Event
		switch k := rng.Intn(12); {
		case k < 2 && downStores < len(stores)-1: // keep one store up
			e = Event{Kind: KindCrashStore, Target: pick(stores)}
			// Disk-backed runs once turned half their store crashes into
			// kills at a WAL byte; the draws stay so that every pinned
			// seed's plan is the one it always was.
			if cfg.DataDir != "" && rng.Intn(2) == 0 {
				_ = rng.Intn(96)
			}
			crashStore(e.Target)
		case k < 3 && len(servers) > 1:
			e = Event{Kind: KindCrashServer, Target: pick(servers)}
			crashed[e.Target] = true
		case k < 5 && len(crashedList()) > 0:
			e = Event{Kind: KindRecoverNode, Target: pick(crashedList())}
			delete(crashed, e.Target)
			for _, st := range stores {
				if st == e.Target {
					downStores--
				}
			}
		case k < 6:
			a := pick(all)
			b := pick(all)
			if a == b {
				e = Event{Kind: KindHealAll}
			} else {
				e = Event{Kind: KindPartition, Target: a, Peer: b}
			}
		case k < 7:
			e = Event{Kind: KindHealAll}
		case k < 8:
			e = Event{Kind: KindDropRequests, Target: pick(stores),
				Service: store.ServiceName, Method: storeDropMethods[rng.Intn(len(storeDropMethods))],
				P: 0.3 + 0.6*rng.Float64(), Count: 1 + rng.Intn(3)}
		case k < 9:
			e = Event{Kind: KindDropReplies, Target: pick(servers),
				Service: object.ServiceName, Method: objsrvMethods[rng.Intn(len(objsrvMethods))],
				P: 0.3 + 0.6*rng.Float64(), Count: 1 + rng.Intn(2)}
		case k < 10:
			e = Event{Kind: KindDelay, Target: pick(all),
				P: 0.5, Count: 2 + rng.Intn(4), Hold: time.Duration(1+rng.Intn(15)) * time.Millisecond}
		case k < 11:
			e = Event{Kind: KindDuplicate, Target: pick(stores),
				Service: store.ServiceName, Method: duplicateMethods[rng.Intn(len(duplicateMethods))],
				P: 0.5 + 0.5*rng.Float64(), Count: 1 + rng.Intn(3)}
		default:
			e = Event{Kind: KindReorder, Target: pick(all),
				P: 0.5, Count: 1 + rng.Intn(2), Hold: time.Duration(2+rng.Intn(10)) * time.Millisecond}
		}
		e.After = afters[i]
		events = append(events, e)
	}
	// Every schedule exercises the crash-during-commit shape at least
	// once: convert the last event if the mix happened to omit it.
	// Nothing follows the last event, so no model bookkeeping is needed.
	if !haveInDoubt && len(events) > 0 {
		last := &events[len(events)-1]
		*last = Event{After: last.After, Kind: KindCrashDuringCommit, Target: pick(stores), AbortSide: rng.Intn(2) == 0}
	}

	// Flag-gated extensions. Every extra rng draw sits behind its flag,
	// AFTER all classic draws, so a pinned seed's classic schedule is
	// bit-identical with the flags off — the property every existing
	// "reproduce with -seed=N" recipe rests on.
	extended := false
	if cfg.GrayFailures {
		extended = true
		// At least one gray failure per schedule, held well past the
		// action timeout so every involved caller's deadline expires
		// while the sick node's side effects stand.
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			events = append(events, Event{
				After:  1 + rng.Intn(max(1, total/2)),
				Kind:   KindGrayFail,
				Target: pick(all),
				Hold:   time.Duration(3+rng.Intn(6)) * cfg.ActionTimeout,
			})
		}
	}
	if extended {
		// Appended events carry their own thresholds; restore apply order
		// (stable, so same-threshold classic events keep their order).
		sort.SliceStable(events, func(i, j int) bool { return events[i].After < events[j].After })
	}
	return events
}
