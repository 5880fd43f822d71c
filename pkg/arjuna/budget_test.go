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
// database's share is one message per conversation, on either topology: bind
// and action-end (2), and one bind per object beside one action-end per
// database for an action of several. No message goes to a server at bind
// time — the first invoke activates — and an Apply's invoke carries the
// action's phase one, so a write is bind · invoke · action-end, 3 calls, and
// over three stores 4, because one-phase commit is not eligible there: the
// invoke carries the prepare and the server still gets a Commit. A
// ClientReadOnly client's read is sent the same way — the read-only vote
// rides the invoke whatever the store count — and its bind is unpinned: the
// St read joined the bind action, so nothing of the client action's is left at
// the database and there is no action-end to send. Its read is bind · invoke,
// 2 calls, 1 to the database. Actions a client that may write runs through
// Atomic + Invoke never send a solo request, and each commit phase sends each
// server one message naming every object of the action it holds: a
// two-object action across shards is 2 binds, 2 invokes, Prepare and Commit
// at each server and an action-end at each database, 10; in one group, where
// both objects are at one server and one database, it is 2 binds, 2 invokes,
// one Prepare, one Commit and one action-end, 7, and a three-object action
// there 9. The server writes the objects of a phase back together, too:
// each of the group's three stores gets one Prepare and one Commit for the
// whole action, 6 store calls for two objects as for three. The counts are
// exact, not ceilings: a message saved that nobody meant to save is as much
// news as one added.
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
		{"3-shards", []arjuna.Option{arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1)}, crossShardPair, 3, budget{10, 4, 0}, budget{}},
		{"1-group-2sv-3st", []arjuna.Option{arjuna.WithShards(1), arjuna.WithServers(2), arjuna.WithStores(3)},
			func(_ *testing.T, sys *arjuna.System) (a, b uid.UID) { return sys.Objects()[0], sys.Objects()[1] }, 4, budget{7, 3, 6}, budget{9, 4, 6}},
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
			}{{"write", write, budget{c.writeBudget, 2, 0}}, {"read", read, budget{2, 1, 0}}, {"cross", addTo(a, b), c.crossBudget}}
			if c.threeBudget != (budget{}) {
				classes = append(classes, struct {
					name string
					op   func()
					budget
				}{"three", addTo(sys.Objects()[:3]...), c.threeBudget})
			}
			for _, class := range classes {
				class.op() // warm-up: placement cache
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
// lock) · a Prepare at each server, naming every object it holds · the
// action-end the pin's hook sends — one per database, so 10 calls (5 to the
// databases) across two shards and 8 (4) in one group, where one server holds
// both objects. And the clients whose first bind stays pinned keep
// the counts they had: with a lease cache (Move's lease fence leans on the
// write-locked entries to stop new grants) bind · invoke · one-phase
// Prepare · action-end; under active replication (the binding is probed at
// bind time, before anything could pin it) the same behind a method-less
// activation Invoke; under the standard scheme (Figure 6 holds GetServer's
// and GetView's locks to the action's end alike) bind · carried read ·
// action-end.
func TestReadOnlyClientCallsPerAction(t *testing.T) {
	ctx := context.Background()
	measure := func(t *testing.T, net *countingNet, op func(), calls, db int64) {
		t.Helper()
		if c, d, _ := net.during(op); c != calls || d != db {
			t.Errorf("the client issued %d calls (%d to the database) for one committed action, want %d (%d)", c, d, calls, db)
		}
	}
	newNet := func() *countingNet {
		return &countingNet{Network: transport.NewMem(transport.MemOptions{}, nil), from: "c1"}
	}
	for _, c := range []struct {
		name      string
		opts      []arjuna.Option
		pair      func(t *testing.T, sys *arjuna.System) (a, b uid.UID)
		calls, db int64
	}{
		{"two-object/3-shards", []arjuna.Option{arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1)}, crossShardPair, 10, 5},
		{"two-object/1-group-2sv-3st", []arjuna.Option{arjuna.WithShards(1), arjuna.WithServers(2), arjuna.WithStores(3)},
			func(_ *testing.T, sys *arjuna.System) (a, b uid.UID) { return sys.Objects()[0], sys.Objects()[1] }, 8, 4},
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
			measure(t, net, twoReads, c.calls, c.db)
		})
	}
	for _, c := range []struct {
		name      string
		opts      []arjuna.Option
		client    []arjuna.ClientOption
		calls, db int64
	}{
		{"pinned/read-leases", []arjuna.Option{arjuna.WithReadLeases(30 * time.Second)}, nil, 4, 2},
		{"pinned/active", nil, []arjuna.ClientOption{arjuna.ClientPolicy(arjuna.Active)}, 5, 2},
		{"pinned/standard", nil, []arjuna.ClientOption{arjuna.ClientScheme(arjuna.SchemeStandard)}, 3, 2},
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
			measure(t, net, func() {
				if _, _, err := readOne(ctx, ro, sys.Objects()[0]); err != nil {
					t.Fatal(err)
				}
			}, c.calls, c.db)
		})
	}
}
