package object

import (
	"context"
	"testing"

	"repro/internal/transport"
)

// active reports whether ref's node runs a server for the object.
func active(t *testing.T, ref ServerRef) bool {
	t.Helper()
	st, err := ref.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st.Active
}

func TestPassivateQuiescentSweep(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	// Find the manager: newWorld created one per sv node but did not keep
	// it; re-create a manager view via a fresh one on a new node instead.
	n := w.cluster.Add("svP")
	mgr := NewManager(n, w.reg)
	refP := ServerRef{Client: w.cluster.Node("client").Client(), Node: "svP", UID: w.id}
	if _, err := activate(ctx, refP, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	if !active(t, refP) {
		t.Fatal("not active after activation")
	}

	// A user is active: the sweep must skip the instance.
	if _, err := call(ctx, refP, "a1", "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	rep := mgr.PassivateQuiescent()
	if len(rep.Passivated) != 0 || rep.Busy != 1 {
		t.Fatalf("sweep with user = %+v", rep)
	}
	if !active(t, refP) {
		t.Fatal("busy instance passivated")
	}

	// After the action ends the object is quiescent and is swept. The
	// action's new state must be checkpointed (Prepare) before Commit so
	// that passivation does not lose it.
	if _, err := refP.Prepare(ctx, "a1", []transport.Addr{"st1", "st2"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := refP.Commit(ctx, "a1"); err != nil {
		t.Fatal(err)
	}
	rep = mgr.PassivateQuiescent()
	if len(rep.Passivated) != 1 || rep.Passivated[0] != w.id {
		t.Fatalf("sweep after commit = %+v", rep)
	}
	if active(t, refP) {
		t.Fatal("instance survived sweep")
	}

	// Re-activation works afterwards (state still in the stores).
	if _, err := activate(ctx, refP, "counter", "st1", "st2"); err != nil || !active(t, refP) {
		t.Fatalf("re-activate: %v", err)
	}
	got, err := call(ctx, refP, "a2", "get", nil)
	if err != nil || string(got) != "1" {
		t.Fatalf("state after passivation cycle = %q %v", got, err)
	}
	if _, err := refP.Commit(ctx, "a2"); err != nil {
		t.Fatal(err)
	}
}
