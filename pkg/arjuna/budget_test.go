package arjuna_test

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// countingNet counts the calls one node issues, and how many of them go
// to the group view database; everything passes through to the carrier
// untouched.
type countingNet struct {
	transport.Network
	from      transport.Addr
	calls, db atomic.Int64
}

func (n *countingNet) Call(ctx context.Context, req transport.Request) ([]byte, error) {
	if req.From == n.from {
		n.calls.Add(1)
		if req.Service == "groupview" {
			n.db.Add(1)
		}
	}
	return n.Network.Call(ctx, req)
}

// TestClientCallsPerAction pins, per action class, how many round trips
// the client itself issues for one committed action in the steady state
// (placement cached) — the count is deterministic, so tier-1 can gate on it
// where a latency could only be advisory. The database's share is one
// message per conversation, on either topology: bind and action-end (2),
// whether the action writes or reads, and the same per binding of a
// two-object action (4). No message goes to a server at bind time — the
// first invoke activates — and an Apply's invoke carries the action's phase
// one, so a write is bind · invoke · action-end, 3 calls, and over three
// stores 4, because one-phase commit is not eligible there: the invoke
// carries the prepare and the server still gets a Commit. A ClientReadOnly
// client's read is sent the same way — the read-only vote rides the invoke
// whatever the store count — so it is bind · invoke · EndAction, 3. Actions a
// client that may write runs through Atomic + Invoke never send a solo
// request and are as they were: a two-object action is 2 binds, 2 invokes,
// Prepare and Commit at each server and 2 action-ends, 10. The counts are
// exact, not ceilings: a message saved that nobody meant to save is as much
// news as one added.
func TestClientCallsPerAction(t *testing.T) {
	for _, c := range []struct {
		name        string
		opts        []arjuna.Option
		cross       func(t *testing.T, sys *arjuna.System) (a, b uid.UID)
		writeBudget int64
	}{
		{"3-shards", []arjuna.Option{arjuna.WithShards(3), arjuna.WithServers(1), arjuna.WithStores(1)}, crossShardPair, 3},
		{"1-group-2sv-3st", []arjuna.Option{arjuna.WithShards(1), arjuna.WithServers(2), arjuna.WithStores(3)},
			func(_ *testing.T, sys *arjuna.System) (a, b uid.UID) { return sys.Objects()[0], sys.Objects()[1] }, 4},
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
			cross := func() {
				if _, err := rw.Atomic(ctx, func(tx *arjuna.Txn) error {
					if _, err := tx.Object(a).Invoke(ctx, "add", []byte("-1")); err != nil {
						return err
					}
					_, err := tx.Object(b).Invoke(ctx, "add", []byte("1"))
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			for _, class := range []struct {
				name       string
				op         func()
				budget, db int64
			}{{"write", write, c.writeBudget, 2}, {"read", read, 3, 2}, {"cross", cross, 10, 4}} {
				class.op() // warm-up: placement cache
				calls, db := net.calls.Load(), net.db.Load()
				class.op()
				calls, db = net.calls.Load()-calls, net.db.Load()-db
				if calls != class.budget || db != class.db {
					t.Errorf("%s: the client issued %d calls (%d to the database) for one committed action, want %d (%d)",
						class.name, calls, db, class.budget, class.db)
				}
			}
		})
	}
}
