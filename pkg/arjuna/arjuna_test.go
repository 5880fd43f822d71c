package arjuna_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/lockmgr"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

func openT(t *testing.T, opts ...arjuna.Option) *arjuna.System {
	t.Helper()
	sys, err := arjuna.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys
}

func clientT(t *testing.T, sys *arjuna.System, name string, opts ...arjuna.ClientOption) *arjuna.Client {
	t.Helper()
	cl, err := sys.Client(name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func counterValue(t *testing.T, sys *arjuna.System, id uid.UID) string {
	t.Helper()
	data, _, err := sys.CommittedState(id)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestAtomicCommitsOnNilError(t *testing.T) {
	sys := openT(t)
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		out, err := tx.Object(obj).Invoke(ctx, "add", []byte("41"))
		if err != nil {
			return err
		}
		if string(out) != "41" {
			return fmt.Errorf("unexpected result %q", out)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if !rep.Committed || rep.Attempts != 1 {
		t.Fatalf("report = %+v, want committed on first attempt", rep)
	}
	if got := counterValue(t, sys, obj); got != "41" {
		t.Fatalf("committed state = %q, want 41", got)
	}
}

// taggedContext is a caller's own context type whose values cannot be
// compared with ==.
type taggedContext struct {
	context.Context
	tags []string
}

// TestAtomicUnderUncomparableContext: an action's calls may run under a
// context value that == cannot compare — the client remembers the context
// it attached its breaker notes to, and must not panic comparing the next.
func TestAtomicUnderUncomparableContext(t *testing.T) {
	sys := openT(t)
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := taggedContext{context.Background(), []string{"caller"}}
	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		if _, err := tx.Object(obj).Invoke(ctx, "add", []byte("1")); err != nil {
			return err
		}
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if got := counterValue(t, sys, obj); got != "2" {
		t.Fatalf("committed state = %q, want 2", got)
	}
}

func TestAtomicAbortsOnError(t *testing.T) {
	sys := openT(t)
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	errBoom := errors.New("boom")
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		if _, err := tx.Object(obj).Invoke(ctx, "add", []byte("5")); err != nil {
			return err
		}
		return errBoom
	})
	if !errors.Is(err, arjuna.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the closure's cause on the chain", err)
	}
	if rep.Committed {
		t.Fatalf("report claims committed after abort: %+v", rep)
	}
	if got := counterValue(t, sys, obj); got != "0" {
		t.Fatalf("state after abort = %q, want 0 (all effects undone)", got)
	}
}

func TestAtomicRetriesThenSucceedsOnTransientLockRefusal(t *testing.T) {
	sys := openT(t)
	cl := clientT(t, sys, "c1", arjuna.ClientRetry(5, 0))
	obj := sys.Objects()[0]
	ctx := context.Background()

	// The first two attempts fail with a real wire-level lock-refused
	// error, as a contended group view database would produce (§4.2.1).
	attempts := 0
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		attempts++
		if attempts <= 2 {
			return fmt.Errorf("bind: %w", rpc.Errorf(core.CodeLockRefused, "simulated contention"))
		}
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("7"))
		return err
	})
	if err != nil {
		t.Fatalf("Atomic after retries: %v", err)
	}
	if rep.Attempts != 3 || attempts != 3 {
		t.Fatalf("attempts = %d (report %d), want 3", attempts, rep.Attempts)
	}
	if got := counterValue(t, sys, obj); got != "7" {
		t.Fatalf("committed state = %q, want 7", got)
	}
}

func TestAtomicExhaustsRetriesOnPersistentLockRefusal(t *testing.T) {
	sys := openT(t)
	cl := clientT(t, sys, "c1", arjuna.ClientRetry(3, 0))
	obj := sys.Objects()[0]
	ctx := context.Background()

	attempts := 0
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		attempts++
		_ = obj
		return rpc.Errorf(core.CodeLockRefused, "still contended")
	})
	if !errors.Is(err, arjuna.ErrLockRefused) || !errors.Is(err, arjuna.ErrAborted) {
		t.Fatalf("err = %v, want ErrLockRefused and ErrAborted", err)
	}
	if attempts != 3 || rep.Attempts != 3 {
		t.Fatalf("attempts = %d (report %d), want all 3 retries consumed", attempts, rep.Attempts)
	}
}

func TestAtomicUnknownObject(t *testing.T) {
	sys := openT(t)
	cl := clientT(t, sys, "c1")
	ctx := context.Background()

	ghost := uid.NewGenerator("ghost", 1).New()
	_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(ghost).Invoke(ctx, "add", []byte("1"))
		return err
	})
	if !errors.Is(err, arjuna.ErrUnknownObject) {
		t.Fatalf("err = %v, want ErrUnknownObject", err)
	}
	if !errors.Is(err, arjuna.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted too", err)
	}
}

func TestAtomicNoServers(t *testing.T) {
	sys := openT(t)
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	for _, sv := range sys.Servers() {
		if err := sys.Crash(string(sv)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	})
	if !errors.Is(err, arjuna.ErrNoServers) {
		t.Fatalf("err = %v, want ErrNoServers", err)
	}
}

func TestAtomicUnknownMethod(t *testing.T) {
	sys := openT(t)
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "frobnicate", nil)
		return err
	})
	if !errors.Is(err, arjuna.ErrUnknownMethod) {
		t.Fatalf("err = %v, want ErrUnknownMethod", err)
	}
}

// TestErrorsIsMatchesSentinels feeds MapError the real error shapes the
// protocol stack produces — wire-level *rpc.AppError codes and the
// internal sentinel errors — and checks each maps to its public sentinel
// while keeping the cause reachable via errors.As.
func TestErrorsIsMatchesSentinels(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"db lock refused", rpc.Errorf(core.CodeLockRefused, "x"), arjuna.ErrLockRefused},
		{"server lock refused", rpc.Errorf(rpc.CodeRefused, "x"), arjuna.ErrLockRefused},
		{"lockmgr refused", fmt.Errorf("acquire: %w", lockmgr.ErrRefused), arjuna.ErrLockRefused},
		{"unknown object", rpc.Errorf(core.CodeUnknownObject, "x"), arjuna.ErrUnknownObject},
		{"not found", rpc.Errorf(rpc.CodeNotFound, "x"), arjuna.ErrUnknownObject},
		{"not quiescent", rpc.Errorf(core.CodeNotQuiescent, "x"), arjuna.ErrNotQuiescent},
		{"no such method", rpc.Errorf(rpc.CodeNoSuchMethod, "x"), arjuna.ErrUnknownMethod},
		{"no servers", fmt.Errorf("activate: %w", replica.ErrNoServers), arjuna.ErrNoServers},
		{"unreachable", fmt.Errorf("call: %w", transport.ErrUnreachable), arjuna.ErrUnreachable},
		{"connection overloaded", fmt.Errorf("call: %w", transport.ErrOverloaded), arjuna.ErrOverloaded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Wrapped once more, as binder/replica layers do with %w.
			mapped := arjuna.MapError(fmt.Errorf("core: op(x): %w", tc.err))
			if !errors.Is(mapped, tc.want) {
				t.Fatalf("MapError(%v) = %v, does not match %v", tc.err, mapped, tc.want)
			}
			var ae *rpc.AppError
			if errors.As(tc.err, &ae) {
				var got *rpc.AppError
				if !errors.As(mapped, &got) || got.Code != ae.Code {
					t.Fatalf("MapError(%v) lost the underlying *rpc.AppError", tc.err)
				}
			}
		})
	}
	if got := arjuna.MapError(nil); got != nil {
		t.Fatalf("MapError(nil) = %v", got)
	}
	plain := errors.New("unclassified")
	if got := arjuna.MapError(plain); got != plain {
		t.Fatalf("MapError(unclassified) = %v, want unchanged", got)
	}
	// In doubt outranks what made the doubt unresolvable: an open breaker on
	// the chain must not file the action under Atomic's retryable classes.
	doubt := arjuna.MapError(fmt.Errorf("prepare: %w: %w: %w", rpc.ErrPeerUnavailable, replica.ErrNoServers, action.ErrOutcomeUnknown))
	if !errors.Is(doubt, arjuna.ErrOutcomeUnknown) {
		t.Fatalf("MapError(in doubt) = %v, does not match ErrOutcomeUnknown", doubt)
	}
	for _, not := range []error{arjuna.ErrPeerUnavailable, arjuna.ErrNoServers, arjuna.ErrUnreachable, arjuna.ErrAborted} {
		if errors.Is(doubt, not) {
			t.Fatalf("MapError(in doubt) = %v also matches %v", doubt, not)
		}
	}
}

func TestCrashExcludeRecoverStore(t *testing.T) {
	sys := openT(t, arjuna.WithStores(3))
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	if err := sys.Crash("st3"); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ExcludedStores) != 1 || rep.ExcludedStores[0] != "st3" {
		t.Fatalf("excluded = %v, want [st3]", rep.ExcludedStores)
	}
	st, err := sys.StoreView(ctx, obj)
	if err != nil || len(st) != 2 {
		t.Fatalf("St after exclude = %v (%v), want 2 nodes", st, err)
	}

	if err := sys.Recover(ctx, "st3"); err != nil {
		t.Fatal(err)
	}
	st, err = sys.StoreView(ctx, obj)
	if err != nil || len(st) != 3 {
		t.Fatalf("St after recovery = %v (%v), want 3 nodes", st, err)
	}
	data, seq, err := sys.StoreState("st3", obj)
	if err != nil || string(data) != "1" || seq != 2 {
		t.Fatalf("st3 state = %q seq=%d (%v), want caught-up copy", data, seq, err)
	}
}

func TestReadOnlyClient(t *testing.T) {
	sys := openT(t)
	rw := clientT(t, sys, "c1")
	ro := clientT(t, sys, "c1", arjuna.ClientReadOnly())
	obj := sys.Objects()[0]
	ctx := context.Background()

	if _, err := rw.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("9"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if _, err := ro.Atomic(ctx, func(tx *arjuna.Txn) error {
		var err error
		got, err = tx.Object(obj).Read(ctx, "get", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "9" {
		t.Fatalf("read = %q, want 9", got)
	}
}

// TestClientDegreeDefault: a client left at the default degree activates one
// replica under single-copy passive replication and every server of Sv under
// active replication; ClientDegree narrows the latter, and a negative degree
// means all of Sv.
func TestClientDegreeDefault(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		policy arjuna.Policy
		opts   []arjuna.ClientOption
		want   int
	}{
		{"single-copy passive", arjuna.SingleCopyPassive, nil, 1},
		{"active", arjuna.Active, nil, 3},
		{"active, degree 1", arjuna.Active, []arjuna.ClientOption{arjuna.ClientDegree(1)}, 1},
		{"active, degree -1", arjuna.Active, []arjuna.ClientOption{arjuna.ClientDegree(-1)}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := openT(t, arjuna.WithServers(3))
			id := sys.Objects()[0]
			opts := append([]arjuna.ClientOption{arjuna.ClientPolicy(c.policy)}, c.opts...)
			if _, _, err := clientT(t, sys, "c1", opts...).Apply(ctx, id, "add", []byte("1")); err != nil {
				t.Fatalf("apply: %v", err)
			}
			var active []transport.Addr
			for _, sv := range sys.World().Svs {
				st, err := object.ServerRef{Client: sys.World().Cluster.Node("c1").Client(), Node: sv, UID: id}.Status(ctx)
				if err != nil {
					t.Fatalf("status at %s: %v", sv, err)
				}
				if st.Active {
					active = append(active, sv)
				}
			}
			if len(active) != c.want {
				t.Fatalf("active at %v, want %d servers", active, c.want)
			}
		})
	}
}

func TestClientUnknownNode(t *testing.T) {
	sys := openT(t)
	if _, err := sys.Client("c99"); !errors.Is(err, arjuna.ErrUnknownNode) {
		t.Fatalf("Client(c99) err = %v, want ErrUnknownNode", err)
	}
	if err := sys.Crash("nope"); !errors.Is(err, arjuna.ErrUnknownNode) {
		t.Fatalf("Crash(nope) err = %v, want ErrUnknownNode", err)
	}
}

func TestMultiObjectAtomicity(t *testing.T) {
	sys := openT(t, arjuna.WithObjects(2))
	cl := clientT(t, sys, "c1")
	objs := sys.Objects()
	ctx := context.Background()

	// Update both objects; fail after the second update: neither commits.
	errBoom := errors.New("boom")
	_, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		if _, err := tx.Object(objs[0]).Invoke(ctx, "add", []byte("1")); err != nil {
			return err
		}
		if _, err := tx.Object(objs[1]).Invoke(ctx, "add", []byte("2")); err != nil {
			return err
		}
		return errBoom
	})
	if !errors.Is(err, arjuna.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	for i, id := range objs {
		if got := counterValue(t, sys, id); got != "0" {
			t.Fatalf("object %d = %q after multi-object abort, want 0", i, got)
		}
	}

	// And the committing variant updates both.
	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		if _, err := tx.Object(objs[0]).Invoke(ctx, "add", []byte("1")); err != nil {
			return err
		}
		_, err := tx.Object(objs[1]).Invoke(ctx, "add", []byte("2"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if a, b := counterValue(t, sys, objs[0]), counterValue(t, sys, objs[1]); a != "1" || b != "2" {
		t.Fatalf("committed states = %q,%q, want 1,2", a, b)
	}
}

func TestOpenOverTCP(t *testing.T) {
	sys := openT(t, arjuna.WithNetwork(transport.NewTCPMux()))
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("13"))
		return err
	})
	if err != nil || !rep.Committed {
		t.Fatalf("Atomic over TCP: %v (%+v)", err, rep)
	}
	if got := counterValue(t, sys, obj); got != "13" {
		t.Fatalf("committed state over TCP = %q, want 13", got)
	}

	// The typed error taxonomy survives the real wire: app error codes
	// travel in the rpc envelope, not as in-memory Go values.
	_, err = cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "frobnicate", nil)
		return err
	})
	if !errors.Is(err, arjuna.ErrUnknownMethod) {
		t.Fatalf("err over TCP = %v, want ErrUnknownMethod", err)
	}
	// The socket carrier's own counters show in the deployment snapshot.
	snap := sys.StatsSnapshot()
	for _, name := range []string{"dials", "poisoned", "request_frames", "reply_frames", "writes", "reads"} {
		if !strings.Contains(snap, "transport.mux."+name+" ") {
			t.Fatalf("snapshot missing transport.mux.%s:\n%s", name, snap)
		}
	}
	if strings.Contains(snap, fmt.Sprintf("counter %-40s 0\n", "transport.mux.writes")) {
		t.Fatalf("transport.mux.writes is 0 after committed actions:\n%s", snap)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestInDoubtCommitIsNotReportedAborted drives the unresolvable Figure-1
// ambiguity through the facade: the one-phase round commits at the store,
// its reply is lost, and the only server crashes before the two-phase
// fallback can ask again. The facade must say "outcome unknown" — not
// "aborted, all effects undone" over a durably committed write — and must
// not retry, which could apply the add a second time.
func TestInDoubtCommitIsNotReportedAborted(t *testing.T) {
	sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(1))
	cl := clientT(t, sys, "c1", arjuna.ClientRetry(5, 0))
	obj := sys.Objects()[0]
	ctx := context.Background()

	rule := transport.ToMethod("sv1", "objsrv", "Prepare")
	sys.Faults().OnReply(1, rule, func(transport.Request) { _ = sys.Crash("sv1") })
	sys.Faults().DropReplies(1, rule)
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("7"))
		return err
	})
	if !errors.Is(err, arjuna.ErrOutcomeUnknown) {
		t.Fatalf("err = %v, want ErrOutcomeUnknown", err)
	}
	if errors.Is(err, arjuna.ErrAborted) {
		t.Fatalf("in-doubt commit tagged ErrAborted: %v", err)
	}
	if rep.Attempts != 1 || rep.Committed {
		t.Fatalf("report = %+v, want one attempt, not committed", rep)
	}
	// The write really is durable at the store — the state an "aborted"
	// report would contradict.
	data, seq, err := sys.StoreState("st1", obj)
	if err != nil || string(data) != "7" || seq != 2 {
		t.Fatalf("st1 = %q@%d err=%v, want committed 7@2", data, seq, err)
	}
}

func TestStatsExposeRPCTraffic(t *testing.T) {
	sys := openT(t)
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}

	stats := sys.Stats()
	if len(stats) == 0 {
		t.Fatal("Stats() empty after a committed transaction")
	}
	byService := make(map[string]arjuna.ServiceStats, len(stats))
	for _, s := range stats {
		byService[s.Service] = s
	}
	// A committed counter action must at minimum have driven the object
	// server (invocation) and the object stores (commit-time copy).
	for _, svc := range []string{"objsrv", "objectstore"} {
		s, ok := byService[svc]
		if !ok {
			t.Fatalf("Stats() missing service %q (got %v)", svc, stats)
		}
		if s.Calls <= 0 {
			t.Fatalf("service %q: calls = %d", svc, s.Calls)
		}
		if s.MeanLatency < 0 || s.MaxLatency < s.MeanLatency {
			t.Fatalf("service %q: implausible latencies %+v", svc, s)
		}
	}
	snap := sys.StatsSnapshot()
	if !strings.Contains(snap, "rpc.objectstore.calls") {
		t.Fatalf("snapshot missing rpc counters:\n%s", snap)
	}
}

func TestReadOnlyAtomicSkipsPhaseTwoAndOutcomeLog(t *testing.T) {
	// §4.1.2 end to end: a read-only action's binding votes read-only at
	// prepare, so the commit runs zero phase-two RPCs and writes no
	// outcome-log record — visible in the CommitReport vote anatomy.
	sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(2))
	cl := clientT(t, sys, "c1", arjuna.ClientReadOnly())
	obj := sys.Objects()[0]
	ctx := context.Background()

	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Read(ctx, "get", nil)
		return err
	})
	if err != nil {
		t.Fatalf("read-only atomic: %v", err)
	}
	if !rep.Committed {
		t.Fatal("not committed")
	}
	if rep.ReadOnlyVoters != 1 || rep.CommitVoters != 0 {
		t.Fatalf("votes = %d read-only / %d commit, want 1/0", rep.ReadOnlyVoters, rep.CommitVoters)
	}
	if rep.OutcomeLogged {
		t.Fatal("read-only commit must not write an outcome-log record")
	}
}

func TestSingleStoreWriteCommitsOnePhase(t *testing.T) {
	// With one server and one store the whole commit collapses into a
	// single combined prepare+commit round and no outcome-log write.
	sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(1))
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("5"))
		return err
	})
	if err != nil {
		t.Fatalf("atomic: %v", err)
	}
	if !rep.OnePhase || rep.CommitVoters != 1 || rep.OutcomeLogged {
		t.Fatalf("report = %+v, want a one-phase commit with no log write", rep)
	}
	if got := counterValue(t, sys, obj); got != "5" {
		t.Fatalf("counter = %q, want 5", got)
	}
}

func TestMultiStoreWriteStaysTwoPhase(t *testing.T) {
	// Several St stores need the outcome log to stay mutually consistent:
	// the one-phase fast path must refuse and fall back.
	sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(3))
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("5"))
		return err
	})
	if err != nil {
		t.Fatalf("atomic: %v", err)
	}
	if rep.OnePhase || !rep.OutcomeLogged || rep.CommitVoters != 1 {
		t.Fatalf("report = %+v, want ordinary logged 2PC", rep)
	}
	// All three stores hold the same committed version.
	for _, st := range []string{"st1", "st2", "st3"} {
		data, seq, err := sys.StoreState(st, obj)
		if err != nil || string(data) != "5" || seq != 2 {
			t.Fatalf("%s state = %q@%d err=%v, want 5@2", st, data, seq, err)
		}
	}
}

func TestOnePhaseLostReplyResolvesThroughTwoPhase(t *testing.T) {
	// The one-phase Prepare executes at the server but its reply is lost. The handle must not report an abort (the store has committed);
	// it declares the one-phase attempt ineligible and the 2PC fallback
	// resolves the doubt: the re-prepare finds the action already released
	// — a read-only vote — and the committed state stands.
	sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(1))
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	sys.Faults().DropReplies(1, func(req transport.Request) bool {
		return req.Service == "objsrv" && req.Method == "Prepare"
	})
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("9"))
		return err
	})
	if err != nil {
		t.Fatalf("atomic with lost one-phase reply: %v", err)
	}
	if !rep.Committed {
		t.Fatal("not committed")
	}
	if rep.OnePhase {
		t.Fatal("lost reply must force the 2PC fallback, not a one-phase report")
	}
	if got := counterValue(t, sys, obj); got != "9" {
		t.Fatalf("counter = %q, want 9 (the one-phase round's effect must stand)", got)
	}
}

func TestDataDirDurableCrashRecover(t *testing.T) {
	// WithDataDir: stable state lives on disk. A crashed store loses its
	// whole process image; recovery replays the WAL and rejoins St with
	// the committed state intact.
	dir := t.TempDir()
	sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(2), arjuna.WithDataDir(dir))
	cl := clientT(t, sys, "c1")
	obj := sys.Objects()[0]
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(obj).Invoke(ctx, "add", []byte("2"))
			return err
		}); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if err := sys.Crash("st1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.StoreState("st1", obj); !errors.Is(err, arjuna.ErrUnreachable) {
		t.Fatalf("crashed store state err = %v, want ErrUnreachable", err)
	}
	// Work continues on the surviving store (st1 is excluded from St).
	if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("2"))
		return err
	}); err != nil {
		t.Fatalf("add with st1 down: %v", err)
	}
	if err := sys.Recover(ctx, "st1"); err != nil {
		t.Fatalf("recover st1: %v", err)
	}
	data, seq, err := sys.StoreState("st1", obj)
	if err != nil || string(data) != "8" {
		t.Fatalf("st1 after disk recovery = %q@%d (%v), want 8 (caught up)", data, seq, err)
	}
	if got := counterValue(t, sys, obj); got != "8" {
		t.Fatalf("counter = %q, want 8", got)
	}
}

func TestDataDirStateOutlivesDeployment(t *testing.T) {
	// A second deployment opened on the same data dir resumes from the
	// first one's committed state — the property no in-memory backend can
	// offer.
	dir := t.TempDir()
	var obj uid.UID
	{
		sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithDataDir(dir))
		cl := clientT(t, sys, "c1")
		obj = sys.Objects()[0]
		ctx := context.Background()
		if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, err := tx.Object(obj).Invoke(ctx, "add", []byte("41"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		// Close flushes and releases every node's directory lock; the
		// second deployment could not open the dir while this one lives.
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
	sys2 := openT(t, arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithDataDir(dir))
	data, seq, err := sys2.StoreState("st1", obj)
	if err != nil || string(data) != "41" || seq != 2 {
		t.Fatalf("replayed state = %q@%d (%v), want 41@2", data, seq, err)
	}
}
