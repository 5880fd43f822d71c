package arjuna_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/pkg/arjuna"
)

// onBothCarriers runs a fault test over the in-memory carrier and over
// loopback sockets behind the same fault pipeline.
func onBothCarriers(t *testing.T, test func(t *testing.T, carrier arjuna.Option)) {
	t.Run("mem", func(t *testing.T) { test(t, arjuna.WithMemNetwork(transport.MemOptions{})) })
	t.Run("mux", func(t *testing.T) {
		test(t, arjuna.WithNetwork(transport.NewFaulty(transport.NewTCPMux(), nil)))
	})
}

func addOne(ctx context.Context, cl *arjuna.Client, sys *arjuna.System) (*arjuna.CommitReport, error) {
	return cl.Atomic(ctx, func(tx *arjuna.Txn) error {
		_, err := tx.Object(sys.Objects()[0]).Invoke(ctx, "add", []byte("1"))
		return err
	})
}

// TestFirstInvokeFailoverAfterServerCrash: a server crashes between two
// actions. Nothing probes it at bind time any more, so the next action's
// first invoke finds it dead and lands on the next candidate — the action
// commits in one attempt, and its report names the dead server. Under the
// enhanced schemes the repair took that server out of Sv, so later actions
// do not meet it and the use lists are empty afterwards; under the
// standard scheme Sv is static and every later action probes it again.
func TestFirstInvokeFailoverAfterServerCrash(t *testing.T) {
	onBothCarriers(t, func(t *testing.T, carrier arjuna.Option) {
		for _, scheme := range []core.Scheme{core.SchemeStandard, core.SchemeIndependent, core.SchemeNestedTopLevel} {
			sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(2), carrier)
			cl := clientT(t, sys, "c1", arjuna.ClientScheme(scheme), arjuna.ClientFastBind(), arjuna.ClientRetry(1, 0))
			ctx := context.Background()
			if _, err := addOne(ctx, cl, sys); err != nil {
				t.Fatal(err)
			}
			if err := sys.Crash("sv1"); err != nil {
				t.Fatal(err)
			}
			probes := 0
			for round := 0; round < 3; round++ {
				rep, err := addOne(ctx, cl, sys)
				if err != nil {
					t.Fatalf("%v round %d: the action aborted instead of failing over: %v", scheme, round, err)
				}
				if len(rep.BrokenServers) > 0 && !slices.Equal(rep.BrokenServers, []transport.Addr{"sv1"}) {
					t.Fatalf("%v round %d: BrokenServers = %v", scheme, round, rep.BrokenServers)
				}
				probes += len(rep.BrokenServers)
			}
			sv, err := sys.ServerView(ctx, sys.Objects()[0])
			if err != nil {
				t.Fatal(err)
			}
			wantProbes, wantSv := 1, []transport.Addr{"sv2"}
			if scheme == core.SchemeStandard {
				wantProbes, wantSv = 3, []transport.Addr{"sv1", "sv2"}
			}
			if probes != wantProbes || !slices.Equal(sv, wantSv) {
				t.Fatalf("%v: %d probes over three actions, Sv = %v; want %d and %v", scheme, probes, sv, wantProbes, wantSv)
			}
			_ = sys.World().FlushEnds(ctx) // the last action-end waits in its binder
			if !sys.World().DB.Quiescent(sys.Objects()[0]) {
				t.Fatalf("%v: use counts did not drain", scheme)
			}
			if got := counterValue(t, sys, sys.Objects()[0]); got != "4" {
				t.Fatalf("%v: committed state %q, want 4", scheme, got)
			}
		}
	})
}

// TestFirstInvokeReplyLostAbortsTheAction: the first invoke ran at sv1 and
// its reply was lost. The action aborts — it must not run the operation at
// a second server — with the class a mid-action crash has always had; Sv
// and the use lists are as if the action had never bound.
func TestFirstInvokeReplyLostAbortsTheAction(t *testing.T) {
	onBothCarriers(t, func(t *testing.T, carrier arjuna.Option) {
		sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(1), carrier)
		cl := clientT(t, sys, "c1", arjuna.ClientFastBind(), arjuna.ClientRetry(1, 0))
		ctx := context.Background()
		obj := sys.Objects()[0]
		sys.Faults().DropReplies(1, transport.ToMethod("sv1", object.ServiceName, object.MethodInvoke))
		rep, err := addOne(ctx, cl, sys)
		if !errors.Is(err, arjuna.ErrAborted) || !errors.Is(err, arjuna.ErrNoServers) {
			t.Fatalf("err = %v, want ErrAborted and ErrNoServers", err)
		}
		if !slices.Equal(rep.BrokenServers, []transport.Addr{"sv1"}) {
			t.Fatalf("BrokenServers = %v, want [sv1]", rep.BrokenServers)
		}
		st, err := object.ServerRef{Client: sys.World().Cluster.Node("c1").Client(), Node: "sv2", UID: obj}.Status(ctx)
		if err != nil || st.Active {
			t.Fatalf("sv2 status = %+v, %v: the operation was taken to a second server", st, err)
		}
		if got := counterValue(t, sys, obj); got != "0" {
			t.Fatalf("committed state after the abort = %q, want 0", got)
		}
		_ = sys.World().FlushEnds(ctx) // the last action-end waits in its binder
		if !sys.World().DB.Quiescent(obj) {
			t.Fatal("use counts did not drain")
		}
		if sv, err := sys.ServerView(ctx, obj); err != nil || len(sv) != 2 {
			t.Fatalf("Sv = %v, %v: an ambiguous failure must not remove a server", sv, err)
		}
	})
}

// TestActivationSeesCommitPinnedAsIntention: a committed action's
// phase-two message never reaches st1 — the server's relay and the
// client's direct retry are both lost — so st1 holds the acknowledged
// version only as a prepared intention and a plain read of it still
// returns the version before. A server activated after that (here sv2,
// once sv1 is gone) loads from st1, the first store of the view; it must
// have the store apply what its coordinator has decided first, or it
// serves — and leases — a state older than one already acknowledged.
func TestActivationSeesCommitPinnedAsIntention(t *testing.T) {
	onBothCarriers(t, func(t *testing.T, carrier arjuna.Option) {
		sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(2), carrier)
		cl := clientT(t, sys, "c1", arjuna.ClientFastBind(), arjuna.ClientRetry(1, 0))
		ctx := context.Background()
		sys.Faults().DropRequests(2, transport.ToMethod("st1", store.ServiceName, store.MethodCommit))
		if _, err := addOne(ctx, cl, sys); err != nil {
			t.Fatal(err)
		}
		if data, _, err := sys.StoreState("st1", sys.Objects()[0]); err != nil || string(data) != "0" {
			t.Fatalf("st1 = %q, %v: the test needs the commit still pinned there", data, err)
		}
		if err := sys.Crash("sv1"); err != nil {
			t.Fatal(err)
		}
		var got []byte
		if _, err := cl.Atomic(ctx, func(tx *arjuna.Txn) (err error) {
			got, err = tx.Object(sys.Objects()[0]).Read(ctx, "get", nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if string(got) != "1" {
			t.Fatalf("read after the failover = %q, want the acknowledged 1", got)
		}
	})
}

// TestServerRestartUnderActionLosesNoWrite: a server restarts between an
// action's write and its commit, and another client's request re-activates
// the object there in between — so the prepare finds a server for the object,
// one that has never heard of the action, and answers "clean". That is not a
// read-only vote: the write is gone, and a transfer that took it for one
// committed its other leg alone (the new read-checking chaos workload found
// this at the parent, 3 runs in 20 of one seed). The handle knows it wrote;
// the action aborts as for the crash it is, both legs undone.
func TestServerRestartUnderActionLosesNoWrite(t *testing.T) {
	for _, stores := range []int{1, 3} {
		sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(stores), arjuna.WithObjects(2), arjuna.WithClients(2))
		cl := clientT(t, sys, "c1", arjuna.ClientFastBind(), arjuna.ClientRetry(1, 0))
		other := clientT(t, sys, "c2", arjuna.ClientFastBind())
		ctx, a, b := context.Background(), sys.Objects()[0], sys.Objects()[1]
		sv1 := sys.World().Cluster.Node("sv1")
		for _, legs := range []int{1, 2} {
			rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
				if _, err := tx.Object(a).Invoke(ctx, "add", []byte("-3")); err != nil {
					return err
				}
				sv1.Crash()
				sv1.Recover(nil)
				if _, err := other.Atomic(ctx, func(tx *arjuna.Txn) error {
					_, err := tx.Object(a).Read(ctx, "get", nil)
					return err
				}); err != nil {
					t.Errorf("the other client's read: %v", err)
				}
				if legs == 1 {
					return nil
				}
				_, err := tx.Object(b).Invoke(ctx, "add", []byte("3"))
				return err
			})
			if !errors.Is(err, arjuna.ErrAborted) || !errors.Is(err, arjuna.ErrNoServers) || rep.Committed {
				t.Fatalf("%d stores, %d legs: err = %v, report %+v; want an abort for a lost server", stores, legs, err, rep)
			}
			if va, vb := counterValue(t, sys, a), counterValue(t, sys, b); va != "0" || vb != "0" {
				t.Fatalf("%d stores, %d legs: committed state %s and %s, want both untouched", stores, legs, va, vb)
			}
		}
	}
}
