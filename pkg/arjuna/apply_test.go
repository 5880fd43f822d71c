package arjuna_test

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/object"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/pkg/arjuna"
)

// TestApplyCarriedReplyLost: the one server message of an Apply — the
// invoke that carries the action's phase one — loses its reply. The write
// may stand: over one store the request carried the commit, and over three
// the prepare — and a commutative op may in either shape have been folded
// into another action's commit. So Apply never reports an abort here. Commit
// processing resolves the doubt as it resolves a lost one-phase Prepare reply:
// over one store the server has forgotten the action and the store's
// committed version names it; over three the re-prepare finds it pending and
// the commit goes through. Both establish the commit, and Apply reports
// ErrOutcomeUnknown beside it, because the result is gone. Either way the
// operation ran once, at one server, and the settled value stays within
// [acknowledged, acknowledged + unknown].
func TestApplyCarriedReplyLost(t *testing.T) {
	onBothCarriers(t, func(t *testing.T, carrier arjuna.Option) {
		for _, stores := range []int{1, 3} {
			sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(stores), carrier)
			cl := clientT(t, sys, "c1", arjuna.ClientFastBind())
			ctx, obj := context.Background(), sys.Objects()[0]
			var invokes atomic.Int64
			for _, sv := range []transport.Addr{"sv1", "sv2"} {
				sys.Faults().OnRequest(-1, transport.ToMethod(sv, object.ServiceName, object.MethodInvoke), func(transport.Request) { invokes.Add(1) })
			}
			acked, unknown := 0, 0
			apply := func() (*arjuna.CommitReport, error) {
				_, rep, err := cl.Apply(ctx, obj, "add", []byte("1"))
				switch {
				case err == nil:
					acked++
				case errors.Is(err, arjuna.ErrOutcomeUnknown):
					if errors.Is(err, arjuna.ErrAborted) {
						t.Fatalf("%d stores: an in-doubt Apply also claims an abort: %v", stores, err)
					}
					unknown++
				case !errors.Is(err, arjuna.ErrAborted):
					t.Fatalf("%d stores: err = %v, which is none of success, abort, unknown", stores, err)
				}
				return rep, err
			}
			if _, err := apply(); err != nil {
				t.Fatal(err)
			}
			before := invokes.Load()
			sys.Faults().DropReplies(1, transport.ToMethod("sv1", object.ServiceName, object.MethodInvoke))
			rep, err := apply()
			if n := invokes.Load() - before; n != 1 {
				t.Fatalf("%d stores: the operation was sent %d times, want once", stores, n)
			}
			st, serr := object.ServerRef{Client: sys.World().Cluster.Node("c1").Client(), Node: "sv2", UID: obj}.Status(ctx)
			if serr != nil || st.Active {
				t.Fatalf("%d stores: sv2 status = %+v, %v: the operation was taken to a second server", stores, st, serr)
			}
			if !errors.Is(err, arjuna.ErrOutcomeUnknown) || !rep.Committed || rep.Attempts != 1 {
				t.Fatalf("%d stores: err = %v, report %+v; want ErrOutcomeUnknown, the commit established, one attempt", stores, err, rep)
			}
			// The doubt is resolved and the server clean: the next Apply runs.
			if _, err := apply(); err != nil {
				t.Fatal(err)
			}
			got, _ := strconv.Atoi(counterValue(t, sys, obj))
			if got < acked || got > acked+unknown {
				t.Fatalf("%d stores: committed value %d outside [acked %d, acked+unknown %d]", stores, got, acked, acked+unknown)
			}
		}
	})
}

// onePhaseStoreRound matches the one-phase round at store st: the store
// Prepare that commits in the same round.
func onePhaseStoreRound(st transport.Addr) transport.FaultRule {
	prepare := transport.ToMethod(st, store.ServiceName, store.MethodPrepare)
	return func(req transport.Request) bool {
		var q store.PrepareReq
		return prepare(req) && rpc.Decode(req.Payload, &q) == nil && q.OnePhase
	}
}

// TestApplyUncertainStoreWriteIsNotAnAbort: the server's own one-phase
// write to the store loses its reply, so the carried vote comes back
// CodeCommitUncertain. The store did apply the write; Apply must not say
// aborted.
func TestApplyUncertainStoreWriteIsNotAnAbort(t *testing.T) {
	onBothCarriers(t, func(t *testing.T, carrier arjuna.Option) {
		sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(1), carrier)
		cl := clientT(t, sys, "c1", arjuna.ClientFastBind())
		ctx, obj := context.Background(), sys.Objects()[0]
		sys.Faults().DropReplies(1, onePhaseStoreRound("st1"))
		_, rep, err := cl.Apply(ctx, obj, "add", []byte("1"))
		if errors.Is(err, arjuna.ErrAborted) {
			t.Fatalf("err = %v: an abort reported over a write the store applied", err)
		}
		if err != nil && !errors.Is(err, arjuna.ErrOutcomeUnknown) {
			t.Fatalf("err = %v, want nil or ErrOutcomeUnknown", err)
		}
		if rep.Attempts != 1 {
			t.Fatalf("an in-doubt Apply ran %d attempts", rep.Attempts)
		}
		if got := counterValue(t, sys, obj); got != "1" {
			t.Fatalf("committed state %q, want 1", got)
		}
	})
}

// TestApplyFirstCandidateDeadCommitsSeparately: sv1 is down, so the
// binding's first request fails there and lands on sv2 — WITHOUT the carry:
// the use lists still name sv1, and nothing may commit at sv2 before the
// repair has named it. The repair runs after the invoke, and the commit is
// a one-phase Prepare message of its own; by the time it is sent Sv no
// longer lists sv1.
func TestApplyFirstCandidateDeadCommitsSeparately(t *testing.T) {
	onBothCarriers(t, func(t *testing.T, carrier arjuna.Option) {
		sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(1), carrier)
		cl := clientT(t, sys, "c1", arjuna.ClientFastBind(), arjuna.ClientRetry(1, 0))
		ctx, obj := context.Background(), sys.Objects()[0]
		if err := sys.Crash("sv1"); err != nil {
			t.Fatal(err)
		}
		var carried []object.Carry
		sys.Faults().OnRequest(-1, transport.ToMethod("sv2", object.ServiceName, object.MethodInvoke), func(req transport.Request) {
			var q object.InvokeReq
			if err := rpc.Decode(req.Payload, &q); err != nil {
				t.Errorf("undecodable invoke: %v", err)
			}
			carried = append(carried, q.Carry)
		})
		var svAtCommit [][]transport.Addr
		sys.Faults().OnRequest(-1, transport.ToMethod("sv2", object.ServiceName, object.MethodPrepare), func(transport.Request) {
			sv, err := sys.ServerView(ctx, obj)
			if err != nil {
				t.Errorf("ServerView: %v", err)
			}
			svAtCommit = append(svAtCommit, sv)
		})
		out, rep, err := cl.Apply(ctx, obj, "add", []byte("1"))
		if err != nil || string(out) != "1" {
			t.Fatalf("Apply = %q, %v", out, err)
		}
		if !slices.Equal(rep.BrokenServers, []transport.Addr{"sv1"}) || !rep.OnePhase {
			t.Fatalf("report = %+v; want sv1 broken and a one-phase commit", rep)
		}
		if !slices.Equal(carried, []object.Carry{object.CarryNone}) {
			t.Fatalf("sv2 got invokes carrying %v; want one, carrying nothing", carried)
		}
		if len(svAtCommit) != 1 || !slices.Equal(svAtCommit[0], []transport.Addr{"sv2"}) {
			t.Fatalf("Sv when Prepare was sent: %v; want one message, after sv1 was removed", svAtCommit)
		}
		// With Sv repaired the next Apply is back to one carrying request.
		carried, svAtCommit = nil, nil
		if _, _, err := cl.Apply(ctx, obj, "add", []byte("1")); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(carried, []object.Carry{object.CarryCommit}) || len(svAtCommit) != 0 {
			t.Fatalf("second Apply: carried %v, %d Prepare messages; want the commit carried", carried, len(svAtCommit))
		}
		_ = sys.World().FlushEnds(ctx) // the last action-end waits in its binder
		if !sys.World().DB.Quiescent(obj) {
			t.Fatal("use counts did not drain")
		}
	})
}

// TestApplyMethodErrorAborts: a method that fails carries nothing — no store
// hears of the action — and Apply aborts it, which restores the snapshot and
// frees the object for the next action.
func TestApplyMethodErrorAborts(t *testing.T) {
	onBothCarriers(t, func(t *testing.T, carrier arjuna.Option) {
		sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(1), carrier)
		cl := clientT(t, sys, "c1", arjuna.ClientFastBind())
		ctx, obj := context.Background(), sys.Objects()[0]
		if _, _, err := cl.Apply(ctx, obj, "add", []byte("5")); err != nil {
			t.Fatal(err)
		}
		var storeCalls atomic.Int64
		sys.Faults().OnRequest(-1, transport.ToService("st1", store.ServiceName), func(transport.Request) { storeCalls.Add(1) })
		_, rep, err := cl.Apply(ctx, obj, "add", []byte("not a number"))
		if !errors.Is(err, arjuna.ErrAborted) || errors.Is(err, arjuna.ErrOutcomeUnknown) || rep.Committed {
			t.Fatalf("err = %v, report %+v; want a plain abort", err, rep)
		}
		if n := storeCalls.Load(); n != 0 {
			t.Fatalf("the store was called %d times for an action whose method failed", n)
		}
		out, _, err := cl.Apply(ctx, obj, "add", []byte("1"))
		if err != nil || string(out) != "6" {
			t.Fatalf("Apply after the abort = %q, %v; want 6", out, err)
		}
	})
}

// TestReadOnlyClientRefusesWrite: a ClientReadOnly client binds outside the
// use lists, so a write through it is refused before any server hears of it
// — through Apply and through Atomic alike — as a plain abort. Its reads,
// solo ones included, run as ever.
func TestReadOnlyClientRefusesWrite(t *testing.T) {
	net := &countingNet{Network: transport.NewMem(transport.MemOptions{}, nil), from: "c1"}
	sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(1), arjuna.WithNetwork(net))
	ro := clientT(t, sys, "c1", arjuna.ClientReadOnly())
	ctx, obj := context.Background(), sys.Objects()[0]
	past := func() int64 { return net.calls.Load() - net.db.Load() } // the client's calls to anything but the database
	before := past()

	_, rep, err := ro.Apply(ctx, obj, "add", []byte("1"))
	if !errors.Is(err, arjuna.ErrAborted) || errors.Is(err, arjuna.ErrOutcomeUnknown) || rep.Committed || rep.Attempts != 1 {
		t.Fatalf("Apply(add) on a read-only client: err = %v, report %+v; want one aborted attempt", err, rep)
	}
	_, err = ro.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	})
	if !errors.Is(err, arjuna.ErrAborted) {
		t.Fatalf("Atomic+Invoke(add) on a read-only client: err = %v, want ErrAborted", err)
	}
	if n := past() - before; n != 0 {
		t.Fatalf("%d of the client's calls went past the database for refused writes", n)
	}
	if got := counterValue(t, sys, obj); got != "0" {
		t.Fatalf("committed state %q, want 0", got)
	}

	// A solo read is run-and-release in its one request, and its bind left
	// nothing at the database to end: bind, invoke.
	ro.Apply(ctx, obj, "get", nil) // warm-up
	calls := net.calls.Load()
	out, rep, err := ro.Apply(ctx, obj, "get", nil)
	if err != nil || string(out) != "0" || rep.ReadOnlyVoters != 1 || rep.CommitVoters != 0 {
		t.Fatalf("Apply(get) = %q, %v, report %+v", out, err, rep)
	}
	if n := net.calls.Load() - calls; n != 2 {
		t.Fatalf("a solo read issued %d calls, want 2", n)
	}
}
