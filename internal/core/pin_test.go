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
	if err := CreateObject(context.Background(), cli, id, "counter", []byte("0"), w.svs, w.sts); err != nil {
		w.t.Fatalf("CreateObject: %v", err)
	}
	return id
}

// opNames spells the operation kinds in conversation goldens.
var opNames = [...]string{OpRegister: "Register", OpDeregister: "Deregister", OpGetServer: "GetServer",
	OpInsert: "Insert", OpRemove: "Remove", OpIncrement: "Increment", OpDecrement: "Decrement",
	OpGetView: "GetView", OpInclude: "Include", OpExclude: "Exclude", OpEndAction: "EndAction",
	OpBind: "Bind", OpSelect: "Select"}

// dbOps records, per message, the operations one client sends the database,
// and renders each as its kind and the action it runs under, given the
// client action's ID: the message's own ("own"), the client action
// ("client") or another named one ("repair"). A write-locked read adds
// ", update".
func dbOps(w *world, client transport.Addr) func(clientAct string) [][]string {
	var mu sync.Mutex
	var sent [][]Op
	w.cluster.Faults().OnRequest(-1,
		func(req transport.Request) bool { return req.From == client && req.Service == ServiceName },
		func(req transport.Request) {
			var q BatchReq
			if err := rpc.Decode(req.Payload, &q); err != nil {
				w.t.Errorf("undecodable database message: %v", err)
			}
			mu.Lock()
			sent = append(sent, q.Ops)
			mu.Unlock()
		})
	return func(clientAct string) [][]string {
		mu.Lock()
		defer mu.Unlock()
		out := make([][]string, len(sent))
		for i, ops := range sent {
			for _, op := range ops {
				owner := "repair"
				switch op.Action {
				case "":
					owner = "own"
				case clientAct:
					owner = "client"
				}
				if op.ForUpdate {
					owner += ", update"
				}
				out[i] = append(out[i], opNames[op.Kind]+"("+owner+")")
			}
		}
		sent = nil
		return out
	}
}

// TestReadOnlyBindConversations pins every op list a binder sends the
// database, one action per row, each message a line of ops.
//
// The enhanced schemes' bind runs Figure 7's short action as the bind
// message's own, and the action-end runs the Decrement as its message's
// own, after the client action's EndAction: a FastBind writer and a classic
// one differ in Bind's lock alone. An action of two objects at one database
// ends there in one message, each object's Decrement beside the other's. A
// repair spans two messages, so it runs under an action the client names.
//
// A ReadOnly binder's first object is bound unpinned — the St read joins
// the bind message's own action and the committed read sends nothing more;
// a second object pins the first (one GetView under the client action) and
// is bound pinned, and the one EndAction the hook sends ends both. A lease
// holder and a coordinator-cohort binder bind pinned; an active one spreads
// over Sv, which it reads with GetServer. The standard scheme (Figure 6)
// reads both views under the client action and ends it.
func TestReadOnlyBindConversations(t *testing.T) {
	ctx := context.Background()
	run := func(t *testing.T, b *Binder, ids ...uid.UID) string {
		t.Helper()
		method, args := "get", []byte(nil)
		if !b.ReadOnly {
			method, args = "add", []byte("1")
		}
		act := b.Actions.BeginTop()
		for _, id := range ids {
			bd, err := b.Bind(ctx, act, id)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := bd.Invoke(ctx, replica.Call{Method: method, Args: args})
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			// Every row starts from a fresh world: a reader sees the
			// committed initial state through whatever its bind pinned.
			if b.ReadOnly && string(resp.Result) != "0" {
				t.Fatalf("get = %q, want \"0\"", resp.Result)
			}
		}
		if _, err := act.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		return act.ID()
	}
	reader := func(b *Binder) { b.ReadOnly = true }
	unpinnedBind := []string{"Select(own)", "GetView(own)"}
	pinnedBind := []string{"Select(own)", "GetView(client)"}
	end := []string{"EndAction(client)"}
	bind := []string{"Bind(own)", "GetView(client)"}
	endAndDecrement := []string{"EndAction(client)", "Decrement(own)"}
	for _, c := range []struct {
		name      string
		tweak     func(b *Binder)
		two, dead bool
		want      [][]string
	}{
		{"one object", reader, false, false, [][]string{unpinnedBind}},
		{"two objects", reader, true, false, [][]string{unpinnedBind, {"GetView(client)"}, pinnedBind, end}},
		{"lease holder", func(b *Binder) { reader(b); b.LeaseHolder = "c1" }, false, false, [][]string{pinnedBind, end}},
		{"coordinator-cohort", func(b *Binder) { reader(b); b.Policy = replica.CoordinatorCohort }, false, false, [][]string{pinnedBind, end}},
		{"active", func(b *Binder) { reader(b); b.Policy = replica.Active }, false, false, [][]string{{"GetServer(own)", "GetView(client)"}, end}},
		{"standard", func(b *Binder) { reader(b); b.Scheme = SchemeStandard }, false, false, [][]string{{"GetServer(client)", "GetView(client)"}, end}},
		{"writer, fast bind", func(b *Binder) { b.FastBind = true }, false, false, [][]string{bind, endAndDecrement}},
		{"writer, classic bind", func(*Binder) {}, false, false, [][]string{{"Bind(own, update)", "GetView(client)"}, endAndDecrement}},
		{"writer, standard", func(b *Binder) { b.Scheme = SchemeStandard }, false, false, [][]string{{"GetServer(client)", "GetView(client)"}, end}},
		{"writer, two objects", func(b *Binder) { b.FastBind = true }, true, false, [][]string{bind, bind, {"EndAction(client)", "Decrement(own)", "Decrement(own)"}}},
		{"writer, repair", func(b *Binder) { b.FastBind = true }, false, true, [][]string{
			bind, {"GetServer(repair, update)"}, {"Remove(repair)", "Increment(repair)", "EndAction(repair)"}, endAndDecrement}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 2, 1, 1)
			ids := []uid.UID{w.id}
			if c.two {
				ids = append(ids, w.secondObject())
			}
			if c.dead {
				w.cluster.Node("sv1").Crash()
			}
			b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
			c.tweak(b)
			sent := dbOps(w, "c1")
			if got := sent(run(t, b, ids...)); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("the database was sent\n %v\nwant\n %v", got, c.want)
			}
			if n := w.lockHolders(); n != 0 {
				t.Fatalf("%d lock holders left", n)
			}
			if !w.db.Quiescent(w.id) {
				t.Fatal("use counts did not drain")
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
			if _, err := bd.Invoke(ctx, replica.Call{Method: "get"}); err != nil {
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
	if bd.group.tracked {
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
