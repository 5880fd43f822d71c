package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// secondObject registers another counter over the world's nodes.
func (w *world) secondObject() uid.UID {
	w.t.Helper()
	id := uid.NewGenerator("obj", 2).New()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	if err := CreateObject(context.Background(), cli, w.mgrs["c1"], id, "counter", []byte("0"), w.svs, w.sts); err != nil {
		w.t.Fatalf("CreateObject: %v", err)
	}
	return id
}

// dbOps records, per message, the operation kinds one client sends the
// database.
func dbOps(w *world, client transport.Addr) func() [][]OpKind {
	var mu sync.Mutex
	var sent [][]OpKind
	w.cluster.Faults().OnRequest(-1,
		func(req transport.Request) bool { return req.From == client && req.Service == ServiceName },
		func(req transport.Request) {
			var q BatchReq
			if err := rpc.Decode(req.Payload, &q); err != nil {
				w.t.Errorf("undecodable database message: %v", err)
			}
			kinds := make([]OpKind, len(q.Ops))
			for i, op := range q.Ops {
				kinds[i] = op.Kind
			}
			mu.Lock()
			sent = append(sent, kinds)
			mu.Unlock()
		})
	return func() [][]OpKind {
		mu.Lock()
		defer mu.Unlock()
		out := sent
		sent = nil
		return out
	}
}

// TestReadOnlyBindConversations pins what a ReadOnly binder says to the
// database. The first object an action binds is bound unpinned — the St read
// joins the bind action and the committed read sends nothing more; a second
// object pins the first (one GetView under the client action) and is bound
// pinned, and the one EndAction the hook sends ends both. A lease holder, an
// active or coordinator-cohort binder and the standard scheme keep the
// conversations they had.
func TestReadOnlyBindConversations(t *testing.T) {
	ctx := context.Background()
	read := func(t *testing.T, b *Binder, ids ...uid.UID) {
		t.Helper()
		act := b.Actions.BeginTop()
		for _, id := range ids {
			bd, err := b.Bind(ctx, act, id)
			if err != nil {
				t.Fatal(err)
			}
			if out, err := bd.Invoke(ctx, "get", nil); err != nil || string(out) != "0" {
				t.Fatalf("get = %q, %v", out, err)
			}
		}
		if _, err := act.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	unpinnedBind := []OpKind{OpSelect, OpGetView, OpEndAction}
	for _, c := range []struct {
		name  string
		tweak func(b *Binder)
		two   bool
		want  [][]OpKind
	}{
		{"one object", func(*Binder) {}, false, [][]OpKind{unpinnedBind}},
		{"two objects", func(*Binder) {}, true, [][]OpKind{unpinnedBind, {OpGetView}, unpinnedBind, {OpEndAction}}},
		{"lease holder", func(b *Binder) { b.LeaseHolder = "c1" }, false, [][]OpKind{unpinnedBind, {OpEndAction}}},
		{"coordinator-cohort", func(b *Binder) { b.Policy = replica.CoordinatorCohort }, false, [][]OpKind{unpinnedBind, {OpEndAction}}},
		{"active", func(b *Binder) { b.Policy = replica.Active }, false, [][]OpKind{{OpGetServer, OpGetView, OpEndAction}, {OpEndAction}}},
		{"standard", func(b *Binder) { b.Scheme = SchemeStandard }, false, [][]OpKind{{OpGetServer, OpGetView}, {OpEndAction}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 2, 1, 1)
			ids := []uid.UID{w.id}
			if c.two {
				ids = append(ids, w.secondObject())
			}
			b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
			b.ReadOnly = true
			c.tweak(b)
			sent := dbOps(w, "c1")
			read(t, b, ids...)
			if got := sent(); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("the database was sent %v, want %v", got, c.want)
			}
			if n := w.lockHolders(); n != 0 {
				t.Fatalf("%d lock holders left", n)
			}
		})
	}
}

// TestIncludeWaitsForPinnedBindingsOnly: a recovering store's Include takes
// the St write lock, and what it waits for is every action that may copy a
// state back to the view it read (§4.2) — a read-write action — and every
// action holding several objects' views together — a read-only one that has
// gone on to a second object, whose first binding is pinned by then. A
// read-only action of one object copies nothing back and holds nothing
// together: the Include goes through under it.
func TestIncludeWaitsForPinnedBindingsOnly(t *testing.T) {
	ctx := context.Background()
	w := newWorld(t, 1, 2, 1)
	other := w.secondObject()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	include := func() error {
		ictx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel()
		_, err := cli.Include(ictx, "recovery", w.id, "st2")
		_ = cli.EndAction(ctx, "recovery", err == nil)
		return err
	}
	for _, c := range []struct {
		name     string
		readOnly bool
		ids      []uid.UID
		through  bool
	}{
		{"read-write", false, []uid.UID{w.id}, false},
		{"read-only, one object", true, []uid.UID{w.id}, true},
		{"read-only, two objects", true, []uid.UID{w.id, other}, false},
	} {
		b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
		b.FastBind, b.ReadOnly = !c.readOnly, c.readOnly
		act := b.Actions.BeginTop()
		for _, id := range c.ids {
			bd, err := b.Bind(ctx, act, id)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if _, err := bd.Invoke(ctx, "get", nil); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		err := include()
		if c.through && err != nil {
			t.Fatalf("%s: Include under the open action: %v", c.name, err)
		}
		if !c.through && rpc.CodeOf(err) != CodeLockRefused {
			t.Fatalf("%s: Include under the open action: %v, want it refused", c.name, err)
		}
		if _, err := act.Commit(ctx); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := include(); err != nil {
			t.Fatalf("%s: Include after the action ended: %v", c.name, err)
		}
		if n := w.lockHolders() + len(w.db.locks.HolderModes(stKey(other))); n != 0 {
			t.Fatalf("%s: %d lock holders left", c.name, n)
		}
	}
}

// TestPinOnEndedActionTakesNoLock: the lock a pin takes is released by the
// action's resolve hook and by nothing else, so a pin that cannot register
// the hook — the action has started to end — must fail before it locks
// anything. (A pin first written inside Binding.Prepare leaked the St lock
// exactly so.)
func TestPinOnEndedActionTakesNoLock(t *testing.T) {
	ctx := context.Background()
	w := newWorld(t, 1, 1, 1)
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	b.ReadOnly = true
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if bd.dbState != nil {
		t.Fatal("the first binding of a read-only action was bound pinned")
	}
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := bd.pin(ctx); !errors.Is(err, action.ErrNotRunning) {
		t.Fatalf("pin on a committed action: %v, want ErrNotRunning", err)
	}
	if n := w.lockHolders(); n != 0 {
		t.Fatalf("the refused pin left %d lock holders", n)
	}
}

// TestPinFindsObjectGone: the object was deregistered (moved away) between
// the bind and the pin. The second bind fails with ErrPinStale, without the
// unknown-object code a placement binder would take for the second object's.
func TestPinFindsObjectGone(t *testing.T) {
	ctx := context.Background()
	w := newWorld(t, 1, 1, 1)
	other := w.secondObject()
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	b.ReadOnly = true
	act := b.Actions.BeginTop()
	if _, err := b.Bind(ctx, act, w.id); err != nil {
		t.Fatal(err)
	}
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	if _, _, err := cli.Deregister(ctx, "move", w.id); err != nil {
		t.Fatalf("Deregister under an unpinned binding: %v", err)
	}
	if err := cli.EndAction(ctx, "move", true); err != nil {
		t.Fatal(err)
	}
	_, err := b.Bind(ctx, act, other)
	if !errors.Is(err, ErrPinStale) || rpc.CodeOf(err) != "" {
		t.Fatalf("second bind = %v (code %q), want ErrPinStale and no code", err, rpc.CodeOf(err))
	}
	if err := act.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(w.db.locks.HolderModes(stKey(other))) + len(w.db.locks.HolderModes(svKey(other))); n != 0 {
		t.Fatalf("%d lock holders left on the second object", n)
	}
}
