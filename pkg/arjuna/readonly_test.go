package arjuna_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// fromClient matches every request the named node sends.
func fromClient(name transport.Addr) transport.FaultRule {
	return func(req transport.Request) bool { return req.From == name }
}

// sentLog records, in order, the objsrv requests one client node sends:
// "Invoke/<carry>" for an invocation, "Invoke/check" for a method-less one
// under an action and "Invoke/activate" for one under none,
// "Prepare/one-phase" for a one-phase prepare, the bare method name for the
// rest.
type sentLog struct {
	mu   sync.Mutex
	sent []string
}

func watchServerCalls(t *testing.T, sys *arjuna.System, client transport.Addr) *sentLog {
	t.Helper()
	log := &sentLog{}
	sys.Faults().OnRequest(-1, fromClient(client), func(req transport.Request) {
		if req.Service != object.ServiceName {
			return
		}
		entry := req.Method
		switch req.Method {
		case object.MethodInvoke:
			var q object.InvokeReq
			if err := rpc.Decode(req.Payload, &q); err != nil {
				t.Errorf("undecodable invoke: %v", err)
			}
			switch {
			case q.Method != "":
				entry = fmt.Sprintf("Invoke/%d", q.Carry)
			case q.Action != "":
				entry = "Invoke/check"
			default:
				entry = "Invoke/activate"
			}
		case object.MethodPrepare:
			var q object.PrepareReq
			if err := rpc.Decode(req.Payload, &q); err != nil {
				t.Errorf("undecodable prepare: %v", err)
			}
			if q.OnePhase {
				entry = "Prepare/one-phase"
			}
		}
		log.mu.Lock()
		log.sent = append(log.sent, entry)
		log.mu.Unlock()
	})
	return log
}

// take returns what was sent since the last take.
func (l *sentLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.sent
	l.sent = nil
	return out
}

func readOne(ctx context.Context, cl *arjuna.Client, id uid.UID) (string, *arjuna.CommitReport, error) {
	var got []byte
	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) (err error) {
		got, err = tx.Object(id).Read(ctx, "get", nil)
		return err
	})
	return string(got), rep, err
}

// userCount asks a server how many actions it still holds the object for.
func userCount(t *testing.T, sys *arjuna.System, sv transport.Addr, id uid.UID) int {
	t.Helper()
	st, err := object.ServerRef{Client: sys.World().Cluster.Node("c1").Client(), Node: sv, UID: id}.Status(context.Background())
	if err != nil {
		t.Fatalf("status of %v at %s: %v", id, sv, err)
	}
	return st.Users
}

// TestReadOnlyClientReadsItsNodesWrites: a ClientReadOnly client reads what
// the writers of its own node last had acknowledged, whichever node it is.
// Spreading read-only clients over Sv by name (right under active
// replication) activated, under single-copy passive, a second copy beside
// the writers' that nothing ever refreshed: c1 and c3 read 1 for ever.
func TestReadOnlyClientReadsItsNodesWrites(t *testing.T) {
	for _, topo := range []struct {
		name string
		opts []arjuna.Option
	}{
		{"3-shards", []arjuna.Option{arjuna.WithShards(3), arjuna.WithServers(2), arjuna.WithStores(1)}},
		{"1-group-2sv-3st", []arjuna.Option{arjuna.WithShards(1), arjuna.WithServers(2), arjuna.WithStores(3)}},
	} {
		t.Run(topo.name, func(t *testing.T) {
			sys := openT(t, append(topo.opts, arjuna.WithClients(4))...)
			ctx, obj := context.Background(), sys.Objects()[0]
			want := 0
			for _, node := range []string{"c1", "c2", "c3", "c4"} {
				rw := clientT(t, sys, node, arjuna.ClientFastBind())
				ro := clientT(t, sys, node, arjuna.ClientReadOnly())
				for i := 0; i < 3; i++ {
					if _, _, err := rw.Apply(ctx, obj, "add", []byte("1")); err != nil {
						t.Fatal(err)
					}
					want++
					got, _, err := readOne(ctx, ro, obj)
					if err != nil {
						t.Fatal(err)
					}
					if got != strconv.Itoa(want) {
						t.Fatalf("%s read %s after %d acknowledged adds", node, got, want)
					}
				}
			}
		})
	}
}

// TestReadOnlyTwoReadsRevalidate: the first read of a ClientReadOnly action
// is carried — the server released its lock as it answered — so an action
// that goes on to a second object re-checks the first under a held lock
// before it commits, by the rule a leased read is re-checked: one method-less
// Invoke more than a two-read action that carries nothing (bind, invoke, bind,
// invoke, one Prepare naming both objects at their one server), and nothing
// else. A writer that commits the first object in between fails the check:
// one ErrLeaseStale, and the retry carries nothing and commits with both
// locks held.
func TestReadOnlyTwoReadsRevalidate(t *testing.T) {
	for _, stores := range []int{1, 3} {
		sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(stores), arjuna.WithObjects(2), arjuna.WithClients(2))
		ro := clientT(t, sys, "c1", arjuna.ClientReadOnly())
		rw := clientT(t, sys, "c2", arjuna.ClientFastBind())
		ctx, a, b := context.Background(), sys.Objects()[0], sys.Objects()[1]
		carry := object.CarryCommit
		if stores > 1 {
			carry = object.CarryPrepare
		}
		first := fmt.Sprintf("Invoke/%d", carry)
		sent := watchServerCalls(t, sys, "c1")

		var gotA, gotB string
		twoReads := func(between func()) (*arjuna.CommitReport, error) {
			attempt := 0
			return ro.Atomic(ctx, func(tx *arjuna.Txn) error {
				attempt++
				va, err := tx.Object(a).Read(ctx, "get", nil)
				if err != nil {
					return err
				}
				if attempt == 1 && between != nil {
					between()
				}
				vb, err := tx.Object(b).Read(ctx, "get", nil)
				gotA, gotB = string(va), string(vb)
				return err
			})
		}

		rep, err := twoReads(nil)
		if err != nil || rep.Attempts != 1 || rep.LeaseStale != 0 || rep.ReadOnlyVoters != 2 || rep.LeaseReads != 0 {
			t.Fatalf("%d stores: quiet two-read action: %v, report %+v", stores, err, rep)
		}
		calls := sent.take()
		if want := []string{first, "Invoke/0", "Invoke/check", "Prepare"}; !slices.Equal(calls, want) {
			t.Fatalf("%d stores: a quiet two-read action sent its servers %v, want %v", stores, calls, want)
		}

		rep, err = twoReads(func() {
			if _, _, err := rw.Apply(ctx, a, "add", []byte("5")); err != nil {
				t.Error(err)
			}
		})
		if err != nil || rep.Attempts != 2 || rep.LeaseStale != 1 {
			t.Fatalf("%d stores: a writer between the reads: %v, report %+v; want one stale attempt and a commit", stores, err, rep)
		}
		if gotA != "5" || gotB != "0" {
			t.Fatalf("%d stores: the committed attempt read A=%s B=%s, want 5 and 0", stores, gotA, gotB)
		}
		calls = sent.take()
		if calls[0] != first || !slices.Contains(calls[:4], "Invoke/check") {
			t.Fatalf("%d stores: the stale attempt sent %v; want a carried read and its re-check", stores, calls)
		}
		retry := calls[slices.Index(calls, "Abort")+1:]
		for len(retry) > 0 && retry[0] == "Abort" {
			retry = retry[1:]
		}
		if want := []string{"Invoke/0", "Invoke/0", "Prepare"}; !slices.Equal(retry, want) {
			t.Fatalf("%d stores: the retry sent %v, want %v: a retry never carries", stores, retry, want)
		}
		for _, id := range []uid.UID{a, b} {
			if n := userCount(t, sys, "sv1", id); n != 0 {
				t.Fatalf("%d stores: sv1 still holds %v for %d actions", stores, id, n)
			}
		}
	}
}

// TestReadOnlySameObjectTwiceIsRepeatable: the second read of one object in
// one action goes through the handle whose first read was carried. The lock
// was released in between, so a writer may have got in: the action either
// sees one value twice or fails its re-check and retries with the lock held.
func TestReadOnlySameObjectTwiceIsRepeatable(t *testing.T) {
	sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(1), arjuna.WithClients(2))
	ro := clientT(t, sys, "c1", arjuna.ClientReadOnly())
	rw := clientT(t, sys, "c2", arjuna.ClientFastBind())
	ctx, obj := context.Background(), sys.Objects()[0]
	for _, interfere := range []bool{false, true} {
		attempt := 0
		var v1, v2 string
		rep, err := ro.Atomic(ctx, func(tx *arjuna.Txn) error {
			attempt++
			o := tx.Object(obj)
			r1, err := o.Read(ctx, "get", nil)
			if err != nil {
				return err
			}
			if interfere && attempt == 1 {
				if _, _, err := rw.Apply(ctx, obj, "add", []byte("1")); err != nil {
					t.Error(err)
				}
			}
			r2, err := o.Read(ctx, "get", nil)
			v1, v2 = string(r1), string(r2)
			return err
		})
		if err != nil || v1 != v2 {
			t.Fatalf("interfere=%v: %v, reads %s then %s in the committed attempt", interfere, err, v1, v2)
		}
		wantAttempts, wantStale := 1, 0
		if interfere {
			wantAttempts, wantStale = 2, 1
		}
		if rep.Attempts != wantAttempts || rep.LeaseStale != wantStale {
			t.Fatalf("interfere=%v: report %+v, want %d attempts, %d stale", interfere, rep, wantAttempts, wantStale)
		}
		if n := userCount(t, sys, "sv1", obj); n != 0 {
			t.Fatalf("interfere=%v: sv1 still holds the object for %d actions", interfere, n)
		}
	}
}

// TestCarriedReadReplyLost: the one server message of a read-only client's
// read loses its reply. A read has no effects to be in doubt about: the
// failure has the class a lost plain Invoke reply has — the binding breaks,
// the action aborts, nothing says ErrOutcomeUnknown — and because the
// request that ran the method also released the action, the server holds no
// lock for it afterwards, where a plain invoke whose reply was lost leaves
// its holder behind until the object is next repaired.
func TestCarriedReadReplyLost(t *testing.T) {
	onBothCarriers(t, func(t *testing.T, carrier arjuna.Option) {
		for _, stores := range []int{1, 3} {
			sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(stores), carrier)
			ro := clientT(t, sys, "c1", arjuna.ClientReadOnly(), arjuna.ClientRetry(1, 0))
			rw := clientT(t, sys, "c1", arjuna.ClientFastBind(), arjuna.ClientRetry(1, 0))
			ctx, obj := context.Background(), sys.Objects()[0]
			lose := func() {
				sys.Faults().DropReplies(1, transport.ToMethod("sv1", object.ServiceName, object.MethodInvoke))
			}

			// The reference: a plain invoke (a writer's read) losing its reply.
			lose()
			_, plainRep, plainErr := readOne(ctx, rw, obj)
			if n := userCount(t, sys, "sv1", obj); n != 1 {
				t.Fatalf("%d stores: the reference holds %d users at sv1, want the orphan", stores, n)
			}
			if _, err := (object.ServerRef{Client: sys.World().Cluster.Node("c1").Client(), Node: "sv1", UID: obj}).Passivate(ctx, true); err != nil {
				t.Fatal(err)
			}

			lose()
			_, rep, err := readOne(ctx, ro, obj)
			if err == nil || errors.Is(err, arjuna.ErrOutcomeUnknown) {
				t.Fatalf("%d stores: a carried read that lost its reply: err = %v", stores, err)
			}
			for _, class := range []error{arjuna.ErrAborted, arjuna.ErrNoServers, arjuna.ErrLockRefused, arjuna.ErrOverloaded, arjuna.ErrPeerUnavailable, arjuna.ErrUnreachable} {
				if errors.Is(err, class) != errors.Is(plainErr, class) {
					t.Fatalf("%d stores: carried read failed with %v, a plain invoke with %v: they differ on %v", stores, err, plainErr, class)
				}
			}
			if !slices.Equal(rep.BrokenServers, plainRep.BrokenServers) || rep.Committed {
				t.Fatalf("%d stores: report %+v, the plain invoke's %+v", stores, rep, plainRep)
			}
			if n := userCount(t, sys, "sv1", obj); n != 0 {
				t.Fatalf("%d stores: sv1 holds the object for %d actions after a carried read", stores, n)
			}
			if sv2, err := (object.ServerRef{Client: sys.World().Cluster.Node("c1").Client(), Node: "sv2", UID: obj}).Status(ctx); err != nil || sv2.Active {
				t.Fatalf("%d stores: sv2 status = %+v, %v: the read was taken to a second server", stores, sv2, err)
			}
			// Nothing is wedged: a write gets the lock at once.
			if _, _, err := rw.Apply(ctx, obj, "add", []byte("1")); err != nil {
				t.Fatalf("%d stores: write after the lost read: %v", stores, err)
			}
		}
	})
}

// TestApplyReadReplyLostIsAborted: Apply of a read-only method is a solo
// request too, and used to report ErrOutcomeUnknown when its reply was lost
// — for an operation with no effects. It aborts, as any failed read does.
func TestApplyReadReplyLostIsAborted(t *testing.T) {
	onBothCarriers(t, func(t *testing.T, carrier arjuna.Option) {
		for _, stores := range []int{1, 3} {
			sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(stores), carrier)
			rw := clientT(t, sys, "c1", arjuna.ClientFastBind(), arjuna.ClientRetry(1, 0))
			ctx, obj := context.Background(), sys.Objects()[0]
			sys.Faults().DropReplies(1, transport.ToMethod("sv1", object.ServiceName, object.MethodInvoke))
			_, rep, err := rw.Apply(ctx, obj, "get", nil)
			if !errors.Is(err, arjuna.ErrAborted) || errors.Is(err, arjuna.ErrOutcomeUnknown) || rep.Committed {
				t.Fatalf("%d stores: Apply(get) that lost its reply: err = %v, report %+v; want a plain abort", stores, err, rep)
			}
			if n := userCount(t, sys, "sv1", obj); n != 0 {
				t.Fatalf("%d stores: sv1 holds the object for %d actions", stores, n)
			}
			if out, _, err := rw.Apply(ctx, obj, "add", []byte("1")); err != nil || string(out) != "1" {
				t.Fatalf("%d stores: Apply(add) afterwards = %q, %v", stores, out, err)
			}
		}
	})
}

// TestCarriedReadFirstCandidateDead: with the writers' server down the
// read-only binding's first request fails there and lands on the next
// candidate without the carry (a handle with a broken candidate never
// carries), so that server holds the read lock until the one-phase Prepare
// that follows — and the read is not one to re-check.
func TestCarriedReadFirstCandidateDead(t *testing.T) {
	onBothCarriers(t, func(t *testing.T, carrier arjuna.Option) {
		sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(1), carrier)
		ro := clientT(t, sys, "c1", arjuna.ClientReadOnly(), arjuna.ClientRetry(1, 0))
		ctx, obj := context.Background(), sys.Objects()[0]
		if err := sys.Crash("sv1"); err != nil {
			t.Fatal(err)
		}
		sent := watchServerCalls(t, sys, "c1")
		got, rep, err := readOne(ctx, ro, obj)
		if err != nil || got != "0" || !slices.Equal(rep.BrokenServers, []transport.Addr{"sv1"}) {
			t.Fatalf("read = %q, %v, report %+v", got, err, rep)
		}
		if calls, want := sent.take(), []string{"Invoke/2", "Invoke/0", "Prepare/one-phase"}; !slices.Equal(calls, want) {
			t.Fatalf("the client sent its servers %v, want %v", calls, want)
		}
		if n := userCount(t, sys, "sv2", obj); n != 0 {
			t.Fatalf("sv2 holds the object for %d actions", n)
		}
	})
}

// TestLeasedClientNeverCarries: with a lease cache the read goes out as it
// always did — asking for a lease, carrying nothing, released by its own
// one-phase Prepare — because a grant in a request that also released the read
// lock would break the ordering the writers' fence leans on. The grant is
// harvested and the next read is served from it.
func TestLeasedClientNeverCarries(t *testing.T) {
	sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(1), arjuna.WithReadLeases(30*time.Second))
	ro := clientT(t, sys, "c1", arjuna.ClientReadOnly())
	ctx, obj := context.Background(), sys.Objects()[0]
	var leaseAsked []string
	sys.Faults().OnRequest(-1, transport.ToMethod("sv1", object.ServiceName, object.MethodInvoke), func(req transport.Request) {
		var q object.InvokeReq
		if err := rpc.Decode(req.Payload, &q); err != nil {
			t.Errorf("undecodable invoke: %v", err)
		}
		leaseAsked = append(leaseAsked, q.LeaseHolder)
	})
	sent := watchServerCalls(t, sys, "c1")
	_, rep, err := readOne(ctx, ro, obj)
	if err != nil || rep.LeaseReads != 0 {
		t.Fatalf("first read: %v, report %+v", err, rep)
	}
	if calls, want := sent.take(), []string{"Invoke/0", "Prepare/one-phase"}; !slices.Equal(calls, want) || !slices.Equal(leaseAsked, []string{"c1"}) {
		t.Fatalf("a leased client's read sent %v asking leases for %v; want %v and c1", calls, leaseAsked, want)
	}
	_, rep, err = readOne(ctx, ro, obj)
	if err != nil || rep.LeaseReads != 1 || len(sent.take()) != 0 {
		t.Fatalf("second read: %v, report %+v; want it served from the harvested lease", err, rep)
	}
}

// TestCarriedReadActiveDegrades: active replication never carries — one
// replica voting ahead of the others would diverge them — so a read-only
// client's read there is a plain invoke at its one replica (outside the
// group's order, see replica.Config.ReadOnly) and the prepare it always was.
func TestCarriedReadActiveDegrades(t *testing.T) {
	sys := openT(t, arjuna.WithServers(2), arjuna.WithStores(1))
	ro := clientT(t, sys, "c1", arjuna.ClientPolicy(arjuna.Active), arjuna.ClientReadOnly())
	ctx, obj := context.Background(), sys.Objects()[0]
	sent := watchServerCalls(t, sys, "c1")
	got, rep, err := readOne(ctx, ro, obj)
	if err != nil || got != "0" || rep.ReadOnlyVoters != 1 {
		t.Fatalf("read = %q, %v, report %+v", got, err, rep)
	}
	calls := sent.take()
	plain := fmt.Sprintf("Invoke/%d", object.CarryNone)
	if slices.ContainsFunc(calls, func(c string) bool {
		return c != "Invoke/activate" && c != plain && c != "Prepare" && c != "Prepare/one-phase"
	}) {
		t.Fatalf("an active read sent its servers %v: no solo invoke, and the release is its own message", calls)
	}
	if !slices.Contains(calls, "Prepare") && !slices.Contains(calls, "Prepare/one-phase") {
		t.Fatalf("an active read sent its servers %v and never released the action", calls)
	}
}

// TestReadOnlyTwoObjectsAcrossMove: a ClientReadOnly action's first binding
// holds no St lock, so the object can be rebalanced away under it — which is
// harmless only while the action stays with that one object. Here it reads
// a; a is moved to a third shard and written there, b is written; it reads
// b. Binding b pins a first, the pin finds a gone from the database it was
// bound at, and the attempt fails in the class Atomic retries (without the
// pin the attempt's re-check asks a's left-behind server copy, which still
// says the old version, and old-a commits beside new-b). The retry binds
// afresh and reads both new values.
func TestReadOnlyTwoObjectsAcrossMove(t *testing.T) {
	sys := openT(t, arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithObjects(8), arjuna.WithClients(2))
	ro := clientT(t, sys, "c1", arjuna.ClientReadOnly())
	rw := clientT(t, sys, "c2", arjuna.ClientFastBind())
	ctx := context.Background()
	a, b := crossShardPair(t, sys)
	target := 6 - sys.ShardOf(a) - sys.ShardOf(b) // of shards 1–3, the one neither is on

	attempt := 0
	var gotA, gotB string
	rep, err := ro.Atomic(ctx, func(tx *arjuna.Txn) error {
		attempt++
		va, err := tx.Object(a).Read(ctx, "get", nil)
		if err != nil {
			return err
		}
		if attempt == 1 {
			mctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			err := sys.Rebalance(mctx, a, target)
			cancel()
			if err != nil {
				t.Errorf("rebalance under a one-object read-only action: %v", err)
			}
			for _, w := range []struct {
				id    uid.UID
				delta string
			}{{a, "5"}, {b, "7"}} {
				if _, _, err := rw.Apply(ctx, w.id, "add", []byte(w.delta)); err != nil {
					t.Error(err)
				}
			}
		}
		vb, err := tx.Object(b).Read(ctx, "get", nil)
		gotA, gotB = string(va), string(vb)
		return err
	})
	if err != nil || rep.Attempts != 2 || rep.LeaseStale != 1 {
		t.Fatalf("err = %v, report %+v (A=%s B=%s); want one stale attempt, then a commit", err, rep, gotA, gotB)
	}
	if gotA != "5" || gotB != "7" {
		t.Fatalf("the committed attempt read A=%s B=%s, want 5 and 7", gotA, gotB)
	}
	if s := sys.ShardOf(a); s != target {
		t.Fatalf("a is on shard %d, want %d", s, target)
	}
}

// TestReadOnlyOneObjectAcrossMove: a one-object ClientReadOnly action held
// open does not hold a rebalance off — nothing of it is at the database. It
// commits what it read, which was current when it bound; the next read binds
// at the target and sees what was written there.
func TestReadOnlyOneObjectAcrossMove(t *testing.T) {
	sys := openT(t, arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(2))
	ro := clientT(t, sys, "c1", arjuna.ClientReadOnly())
	rw := clientT(t, sys, "c2", arjuna.ClientFastBind())
	ctx, obj := context.Background(), sys.Objects()[0]
	target := sys.ShardOf(obj)%3 + 1
	if _, _, err := rw.Apply(ctx, obj, "add", []byte("3")); err != nil {
		t.Fatal(err)
	}
	var got string
	rep, err := ro.Atomic(ctx, func(tx *arjuna.Txn) error {
		v, err := tx.Object(obj).Read(ctx, "get", nil)
		if err != nil {
			return err
		}
		got = string(v)
		mctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		if err := sys.Rebalance(mctx, obj, target); err != nil {
			return fmt.Errorf("rebalance under the open read: %w", err)
		}
		_, _, err = rw.Apply(ctx, obj, "add", []byte("1"))
		return err
	})
	if err != nil || rep.Attempts != 1 || got != "3" {
		t.Fatalf("err = %v, report %+v, read %q; want the pre-move value committed in one attempt", err, rep, got)
	}
	if s := sys.ShardOf(obj); s != target {
		t.Fatalf("the object is on shard %d, want %d", s, target)
	}
	if got, _, err := readOne(ctx, ro, obj); err != nil || got != "4" {
		t.Fatalf("the next read = %q, %v; want the target's 4", got, err)
	}
}
