package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/uid"
)

// TestGroupExcludesInOneMessage: two objects of one action at one database,
// each with a store that refuses its write at prepare — st2 missed a commit
// of the first, st3 one of the second. The action's group sends the database
// one Exclude naming both, and each object loses its own failed store from St
// and nothing else.
func TestGroupExcludesInOneMessage(t *testing.T) {
	ctx := context.Background()
	w := newWorld(t, 1, 3, 1)
	other := w.secondObject()
	behind := map[uid.UID]transport.Addr{w.id: "st2", other: "st3"}
	for id, missed := range behind {
		for _, st := range w.sts {
			if st != missed {
				w.cluster.Node(st).Store().Put(id, []byte("5"), 2)
			}
		}
	}
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	sent := dbOps(w, "c1")
	act := b.Actions.BeginTop()
	bds := make(map[uid.UID]*Binding)
	for _, id := range []uid.UID{w.id, other} {
		bd, err := b.Bind(ctx, act, id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
			t.Fatal(err)
		}
		bds[id] = bd
	}
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for id, bd := range bds {
		if got := bd.FailedStores(); !slices.Equal(got, []transport.Addr{behind[id]}) {
			t.Fatalf("%v: failed stores %v, want [%s]", id, got, behind[id])
		}
	}
	var excludes []string
	for _, msg := range sent(act.ID()) {
		for _, op := range msg {
			if strings.HasPrefix(op, "Exclude(") {
				excludes = append(excludes, op)
			}
		}
	}
	if len(excludes) != 1 {
		t.Fatalf("the action sent the database %d Excludes %v, want one for both objects", len(excludes), excludes)
	}
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	check := b.Actions.BeginTop()
	defer func() { _ = cli.EndAction(ctx, check.ID(), true) }()
	for id, missed := range behind {
		view, _, err := cli.GetView(ctx, check.ID(), id)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.DeleteFunc(slices.Clone(w.sts), func(st transport.Addr) bool { return st == missed })
		if !slices.Equal(view, want) {
			t.Errorf("%v: St = %v, want %v", id, view, want)
		}
	}
}
