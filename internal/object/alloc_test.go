//go:build !race

package object

import (
	"context"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/lease"
	"repro/internal/metrics"
)

// The allocation pins are built without the race runtime, which allocates
// on its own account.

// TestInvokeAllocs pins exactly what one request through ServerRef.Invoke
// costs over the Mem transport, client and server together, once the
// object is active and the action bound: a read names a method and runs it
// under the read lock; a check names none and takes the same lock. Each
// allocation, in call order: the object's name rendered for the request,
// the request payload, the server's one copy of the request's strings, the
// reply frame and — a read only — the result bytes the client decodes. The
// records themselves are values (9 and 8 while Invoke and Method reached
// the codec through pointer methods, which put the request and the reply on
// the heap on each side).
func TestInvokeAllocs(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		req  InvokeReq
		want float64
	}{
		{"read", InvokeReq{Action: "a1", Method: "get"}, 5},
		{"check", InvokeReq{Action: "a1"}, 4},
	} {
		call := func() {
			if _, err := ref.Invoke(ctx, c.req); err != nil {
				t.Fatal(err)
			}
		}
		call() // binds the action and creates the node pair's metric handles
		if got := testing.AllocsPerRun(200, call); got != c.want {
			t.Errorf("%s: %.0f allocations per request, want %.0f", c.name, got, c.want)
		}
	}
}

// TestLeaseFenceAllocs pins what one commit fence to one live lease holder
// costs over the Mem transport, server and holder together. A kill-only
// fence: the object's name rendered into the Inval record and its payload,
// the fence's list of holders, and the one DeliverBatch frame to the
// holder's lease mailbox — its item list, request and reply on both sides,
// the mailbox's copy of the record's name, the caller's result. 15 while
// the frame's item carried a message ID nothing reads; 38 (and 8 in the
// grant's Put for a Join) while each grant enrolled its holder in a group
// of its own, the record went through that group's sequencer and the
// holder left the group from a goroutine of its own. The fence of the
// server's own commit, moving the holder's lease forward, adds the
// holder's copy of the state the record carries, its new cache entry and
// the server's copy of the holder's Kept answer.
func TestLeaseFenceAllocs(t *testing.T) {
	w := newWorld(t)
	m := NewManager(w.cluster.Add("sv3"), w.reg)
	m.EnableLeases(time.Minute)
	holder := w.cluster.Add("holder")
	cache := lease.NewCache(group.NewHost(holder.Server(), holder.Client()), &metrics.Registry{})
	ctx := context.Background()
	if _, err := activate(ctx, w.ref("sv3"), "counter", "st1"); err != nil {
		t.Fatal(err)
	}
	in, _ := m.lookup(w.id)
	fences := m.stats.Counter("lease.invalidations")
	fence := func(own bool) func() {
		return func() {
			in.mu.Lock()
			if own {
				in.seq++ // the version the commit made
			} else {
				in.leaseHolders["holder"] = time.Now().Add(time.Minute)
			}
			in.mu.Unlock()
			before := fences.Value()
			if err := m.leaseCommitFence(ctx, in, time.Now(), own); err != nil || fences.Value() != before+1 {
				t.Fatalf("fence: %v, holder confirmed: %v", err, fences.Value() == before+1)
			}
		}
	}
	kill := fence(false)
	kill() // creates the node pair's metric handles
	if got := testing.AllocsPerRun(200, kill); got != 14 {
		t.Errorf("a kill-only fence to one holder allocated %.0f objects, pinned at 14", got)
	}

	in.mu.Lock()
	in.graceUntil = time.Now() // the first-commit grace is over
	in.leaseSeq = in.seq
	in.leaseHolders["holder"] = time.Now().Add(time.Minute)
	in.mu.Unlock()
	cache.Put(lease.Snapshot{UID: w.id, Seq: in.seq, Expiry: time.Now().Add(time.Minute)})
	update := fence(true)
	update()
	if got := testing.AllocsPerRun(200, update); got != 17 {
		t.Errorf("an updating fence to one holder allocated %.0f objects, pinned at 17", got)
	}
	if e, ok := cache.Get(w.id, time.Now()); !ok || e.Snap.Seq != in.seq {
		t.Fatal("the updating fences did not keep the holder's lease at the latest version")
	}
}
