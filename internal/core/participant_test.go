package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// TestGroupIsTheParticipant: an action's bindings at one database are one
// participant, their group. Two objects written at one server are one commit
// voter to the action, which commits them in two phases with its outcome
// logged — a group of two is never a one-phase participant — while the
// client's report counts the votes per object, two. One object alone is
// still committed in one phase.
func TestGroupIsTheParticipant(t *testing.T) {
	sys, err := arjuna.Open(arjuna.WithShards(1), arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithObjects(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	ctx := context.Background()
	w := sys.World()
	cl, err := sys.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	// The binder pkg/arjuna's clients bind through, driven here directly, so
	// that the action's own report is seen.
	b := w.Binder("c1", core.SchemeIndependent, replica.SingleCopyPassive, 0)
	for _, c := range []struct {
		name     string
		ids      []uid.UID
		onePhase bool
	}{
		{"one object", w.Objects[:1], true},
		{"two objects", w.Objects[:2], false},
	} {
		act := w.Mgrs["c1"].BeginTop()
		for _, id := range c.ids {
			bd, err := b.Bind(ctx, act, id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := act.Commit(ctx)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.CommitVoters != 1 || rep.ReadOnlyVoters != 0 || rep.OnePhase != c.onePhase || rep.OutcomeLogged == c.onePhase {
			t.Errorf("%s: the action's report %+v, want one commit voter, one-phase %v", c.name, rep, c.onePhase)
		}
		crep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
			for _, id := range c.ids {
				if _, err := tx.Object(id).Invoke(ctx, "add", []byte("1")); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if crep.CommitVoters != len(c.ids) || crep.ReadOnlyVoters != 0 || crep.OnePhase != c.onePhase || crep.OutcomeLogged == c.onePhase {
			t.Errorf("%s: the client's report %+v, want %d commit voters, one-phase %v", c.name, crep, len(c.ids), c.onePhase)
		}
	}
}
