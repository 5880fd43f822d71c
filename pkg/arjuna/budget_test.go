package arjuna_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// countingNet counts the calls one node issues, and how many of them go
// to the group view database, and the calls anyone sends an object store;
// everything passes through to the carrier untouched.
type countingNet struct {
	transport.Network
	from              transport.Addr
	calls, db, stores atomic.Int64
}

func (n *countingNet) Call(ctx context.Context, req transport.Request) ([]byte, error) {
	if req.From == n.from {
		n.calls.Add(1)
		if req.Service == "groupview" {
			n.db.Add(1)
		}
	}
	if req.Service == "objectstore" {
		n.stores.Add(1)
	}
	return n.Network.Call(ctx, req)
}

// during runs op and returns how many calls the node issued meanwhile, how
// many of them to the database, and how many calls the stores were sent.
func (n *countingNet) during(op func()) (calls, db, stores int64) {
	calls, db, stores = n.calls.Load(), n.db.Load(), n.stores.Load()
	op()
	return n.calls.Load() - calls, n.db.Load() - db, n.stores.Load() - stores
}

// TestClientCallsPerAction pins, per action class, how many round trips
// the client itself issues for one committed action in the steady state
// (placement cached) — the count is deterministic, so tier-1 can gate on it
// where a latency could only be advisory. For an action that may write the
// database's share is its binds, one message per object: the action-end
// ([EndAction, Decrement × k], one per database) is no message of its own
// but rides the head of the client's next message to that database, so in
// the steady state it costs ops there and no call. No message goes to a
// server at bind time — the first invoke activates — and an Apply's invoke
// carries the action's phase one. Each row derives its count below. The
// binders' pending ends are flushed before each measured action, so a bound
// that passed during the warm-up cannot send one inside the count; the
// measured action's own end waits for the next one. The idle row waits
// instead, until the bound passes with no message to carry the end and it
// goes alone: one database call more. A ClientReadOnly client's read is
// sent the same way as an Apply — the read-only vote rides the invoke
// whatever the store count — and its bind is unpinned, so there is no
// action-end at all. The counts are exact, not ceilings: a message saved
// that nobody meant to save is as much news as one added.
func TestClientCallsPerAction(t *testing.T) {
	// stores, when set, is the count of calls the stores are sent.
	type budget struct{ calls, db, stores int64 }
	for _, c := range []struct {
		name        string
		opts        []arjuna.Option
		cross       func(t *testing.T, sys *arjuna.System) (a, b uid.UID)
		writeBudget int64
		crossBudget budget
		// threeBudget, when set, prices an action of three objects, the
		// deployment's first three.
		threeBudget budget
	}{
		// One store per shard: a write is bind · invoke carrying the
		// one-phase commit, 2 calls, 1 to the database. A cross-shard pair is
		// 2 binds (one per database) · 2 invokes · a Prepare and a Commit at
		// each server, 8 calls, 2 to the databases.
		{"3-shards", []arjuna.Option{arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1)}, crossShardPair, 2, budget{8, 2, 0}, budget{}},
		// Three stores: one-phase commit is not eligible, so a write is bind
		// · invoke carrying the prepare · Commit, 3 calls, 1 to the
		// database. A pair at one server and one database is 2 binds · 2
		// invokes · one Prepare and one Commit naming both, 6 calls, 2 to
		// the database; three objects are 3 binds · 3 invokes · Prepare ·
		// Commit, 8 calls, 3 to the database. Each store gets one Prepare
		// and one Commit for the whole action: 6 store calls for two objects
		// as for three.
		{"1-group-2sv-3st", []arjuna.Option{arjuna.WithShards(1), arjuna.WithServers(2), arjuna.WithStores(3)},
			func(_ *testing.T, sys *arjuna.System) (a, b uid.UID) { return sys.Objects()[0], sys.Objects()[1] }, 3, budget{6, 2, 6}, budget{8, 3, 6}},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := &countingNet{Network: transport.NewMem(transport.MemOptions{}, nil), from: "c1"}
			sys := openT(t, append(c.opts, arjuna.WithObjects(8), arjuna.WithNetwork(net))...)
			rw := clientT(t, sys, "c1", arjuna.ClientFastBind())
			ro := clientT(t, sys, "c1", arjuna.ClientReadOnly())
			a, b := c.cross(t, sys)
			ctx := context.Background()
			write := func() {
				if _, _, err := rw.Apply(ctx, a, "add", []byte("1")); err != nil {
					t.Fatal(err)
				}
			}
			// idle is a write after which the client sends nothing: its
			// action-end goes alone once the bound has passed.
			idle := func() {
				sent := net.db.Load() + 2 // the bind, then the end
				write()
				for deadline := time.Now().Add(5 * time.Second); net.db.Load() < sent; time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatal("the idle client's action-end was never sent")
					}
				}
			}
			read := func() {
				if _, err := ro.Atomic(ctx, func(tx *arjuna.Txn) error {
					_, err := tx.Object(a).Read(ctx, "get", nil)
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			addTo := func(ids ...uid.UID) func() {
				return func() {
					if _, err := rw.Atomic(ctx, func(tx *arjuna.Txn) error {
						for _, id := range ids {
							if _, err := tx.Object(id).Invoke(ctx, "add", []byte("1")); err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			classes := []struct {
				name string
				op   func()
				budget
			}{
				{"write", write, budget{c.writeBudget, 1, 0}},
				{"idle", idle, budget{c.writeBudget + 1, 2, 0}},
				{"read", read, budget{2, 1, 0}},
				{"cross", addTo(a, b), c.crossBudget},
			}
			if c.threeBudget != (budget{}) {
				classes = append(classes, struct {
					name string
					op   func()
					budget
				}{"three", addTo(sys.Objects()[:3]...), c.threeBudget})
			}
			for _, class := range classes {
				class.op() // warm-up: placement cache
				if err := sys.World().FlushEnds(ctx); err != nil {
					t.Fatal(err)
				}
				calls, db, stores := net.during(class.op)
				if calls != class.calls || db != class.db {
					t.Errorf("%s: the client issued %d calls (%d to the database) for one committed action, want %d (%d)",
						class.name, calls, db, class.calls, class.db)
				}
				if class.stores != 0 && stores != class.stores {
					t.Errorf("%s: the stores were sent %d calls for one committed action, want %d", class.name, stores, class.stores)
				}
			}
		})
	}
}

// TestReadOnlyClientCallsPerAction pins what TestClientCallsPerAction's one
// read row leaves out. A ClientReadOnly action that goes on to a second
// object pays for the first one's pin: bind · carried read · pin · bind ·
// read · a method-less Invoke (the carried read re-checked under a held
// lock) · a Prepare at each server, naming every object it holds; the
// action-end the pin's hook queues, one per database, rides the client's
// next message there. So 8 calls (3 to the databases: a bind at each, the
// pin at the first) across two shards, and 7 (3: two binds and the pin) in
// one group, where one server holds both objects. And the clients whose
// first bind stays pinned keep their conversations, the end carried: with a
// lease cache (Move's lease fence leans on the write-locked entries to stop
// new grants) bind · invoke · one-phase Prepare, 3 (1); under active
// replication (the binding is probed at bind time, before anything could
// pin it) the same behind a method-less activation Invoke, 4 (1); under the
// standard scheme (Figure 6 holds GetServer's and GetView's locks to the
// action's end alike, and its end is sent at once) bind · carried read ·
// action-end, 3 (2). The binders' pending ends are flushed before each
// measured action, as in TestClientCallsPerAction.
//
// The measured action's own end is queued as the action ends, and goes alone
// once the bound (1 ms) passes with no message to ride. A slow run — the
// race detector, a loaded host — can let the bound pass before the action
// returns, and the end would then fall inside the count. So the count closes
// with the end flushed: whichever of the bound or the flush sends it, the
// window holds it once, as ends messages (one per database the end waits
// at), which are taken away. Where the action returned within the bound, the
// end cannot have gone yet, and the calls before the flush must be the
// pinned ones exactly.
func TestReadOnlyClientCallsPerAction(t *testing.T) {
	ctx := context.Background()
	flush := func(t *testing.T, sys *arjuna.System) {
		if err := sys.World().FlushEnds(ctx); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(t *testing.T, sys *arjuna.System, net *countingNet, op func(), calls, db, ends int64) {
		t.Helper()
		flush(t, sys)
		var opCalls, opDB int64
		var took time.Duration
		c, d, _ := net.during(func() {
			start := time.Now()
			opCalls, opDB, _ = net.during(op)
			took = time.Since(start)
			flush(t, sys)
		})
		if c-ends != calls || d-ends != db {
			t.Errorf("the client issued %d calls (%d to the database) for one committed action, and %d for its end, want %d (%d) and %d",
				c-ends, d-ends, ends, calls, db, ends)
		}
		if took < time.Millisecond && (opCalls != calls || opDB != db) {
			t.Errorf("the client issued %d calls (%d to the database) in %v, before its end was due, want %d (%d)", opCalls, opDB, took, calls, db)
		}
	}
	newNet := func() *countingNet {
		return &countingNet{Network: transport.NewMem(transport.MemOptions{}, nil), from: "c1"}
	}
	// ends is the number of databases the measured action's end waits at.
	for _, c := range []struct {
		name            string
		opts            []arjuna.Option
		pair            func(t *testing.T, sys *arjuna.System) (a, b uid.UID)
		calls, db, ends int64
	}{
		{"two-object/3-shards", []arjuna.Option{arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1)}, crossShardPair, 8, 3, 2},
		{"two-object/1-group-2sv-3st", []arjuna.Option{arjuna.WithShards(1), arjuna.WithServers(2), arjuna.WithStores(3)},
			func(_ *testing.T, sys *arjuna.System) (a, b uid.UID) { return sys.Objects()[0], sys.Objects()[1] }, 7, 3, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := newNet()
			sys := openT(t, append(c.opts, arjuna.WithObjects(8), arjuna.WithNetwork(net))...)
			ro := clientT(t, sys, "c1", arjuna.ClientReadOnly())
			a, b := c.pair(t, sys)
			twoReads := func() {
				rep, err := ro.Atomic(ctx, func(tx *arjuna.Txn) error {
					if _, err := tx.Object(a).Read(ctx, "get", nil); err != nil {
						return err
					}
					_, err := tx.Object(b).Read(ctx, "get", nil)
					return err
				})
				if err != nil || rep.Attempts != 1 {
					t.Fatalf("two-object read: %v, report %+v", err, rep)
				}
			}
			twoReads() // warm-up: placement cache
			measure(t, sys, net, twoReads, c.calls, c.db, c.ends)
		})
	}
	// The standard scheme's end is among its calls: it waits nowhere.
	for _, c := range []struct {
		name            string
		opts            []arjuna.Option
		client          []arjuna.ClientOption
		calls, db, ends int64
	}{
		{"pinned/read-leases", []arjuna.Option{arjuna.WithReadLeases(30 * time.Second)}, nil, 3, 1, 1},
		{"pinned/active", nil, []arjuna.ClientOption{arjuna.ClientPolicy(arjuna.Active)}, 4, 1, 1},
		{"pinned/standard", nil, []arjuna.ClientOption{arjuna.ClientScheme(arjuna.SchemeStandard)}, 3, 2, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := newNet()
			sys := openT(t, append(c.opts, arjuna.WithServers(2), arjuna.WithStores(1), arjuna.WithObjects(2), arjuna.WithNetwork(net))...)
			ro := clientT(t, sys, "c1", append(c.client, arjuna.ClientReadOnly())...)
			// Each object is read once: a second read of one would be served
			// from the lease the first harvested.
			if _, _, err := readOne(ctx, ro, sys.Objects()[1]); err != nil {
				t.Fatal(err)
			}
			measure(t, sys, net, func() {
				if _, _, err := readOne(ctx, ro, sys.Objects()[0]); err != nil {
					t.Fatal(err)
				}
			}, c.calls, c.db, c.ends)
		})
	}
}
