package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/uid"
)

// TestSoakRandomCrashesPreserveInvariants drives a seeded random workload
// — actions, server/store crashes, recoveries, janitor sweeps — and
// asserts the paper's core invariant throughout: every store named in the
// St view holds the same committed version, and that version reflects
// exactly the committed actions.
func TestSoakRandomCrashesPreserveInvariants(t *testing.T) {
	for _, scheme := range []Scheme{SchemeStandard, SchemeIndependent} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			soak(t, scheme, 1)
		})
	}
}

func soak(t *testing.T, scheme Scheme, seed int64) {
	t.Helper()
	w := newWorld(t, 2, 3, 2)
	rng := rand.New(rand.NewSource(seed))
	janitor := NewJanitor(w.db)
	committedTotal := 0

	crashed := map[transport.Addr]bool{}
	crashables := append(append([]transport.Addr{}, w.svs...), w.sts...)

	recoverNode := func(name transport.Addr) {
		node := w.cluster.Node(name)
		node.Recover(nil)
		w.flushEnds() // recovery waits for quiescence
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		var err error
		if name[0] == 's' && name[1] == 't' {
			err = RecoverStoreNode(ctx, node, "db", []uid.UID{w.id})
		} else {
			err = RecoverServerNode(ctx, node, "db", []uid.UID{w.id})
		}
		if err != nil {
			t.Fatalf("recover %s: %v", name, err)
		}
		delete(crashed, name)
	}

	for step := 0; step < 60; step++ {
		switch roll := rng.Intn(10); {
		case roll < 6: // run an action
			client := w.cluster.Nodes()[0].Name() // unused; pick real client below
			_ = client
			c := []transport.Addr{"c1", "c2"}[rng.Intn(2)]
			b := w.binder(c, scheme, replica.SingleCopyPassive, 1)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			act := b.Actions.BeginTop()
			bd, err := b.Bind(ctx, act, w.id)
			if err != nil {
				_ = act.Abort(context.Background())
				cancel()
				continue
			}
			if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
				_ = act.Abort(context.Background())
				cancel()
				continue
			}
			if _, err := act.Commit(ctx); err == nil {
				committedTotal++
			}
			cancel()
		case roll < 8: // crash something (keep at least one sv and one st up)
			candidates := make([]transport.Addr, 0, len(crashables))
			upSv, upSt := 0, 0
			for _, n := range crashables {
				if !crashed[n] {
					if n[1] == 'v' {
						upSv++
					} else {
						upSt++
					}
				}
			}
			for _, n := range crashables {
				if crashed[n] {
					continue
				}
				if n[1] == 'v' && upSv <= 1 {
					continue
				}
				if n[1] == 't' && upSt <= 1 {
					continue
				}
				candidates = append(candidates, n)
			}
			if len(candidates) == 0 {
				continue
			}
			victim := candidates[rng.Intn(len(candidates))]
			w.cluster.Node(victim).Crash()
			crashed[victim] = true
		case roll < 9: // recover something
			for name := range crashed {
				recoverNode(name)
				break
			}
		default: // janitor sweep
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			janitor.Sweep(ctx)
			cancel()
		}

		// Invariant check after every step: all stores in the St view that
		// are up agree on the committed version.
		checkStInvariant(t, w, step)
	}

	// Recover everything and verify the final value equals the committed
	// count exactly (failure atomicity: aborted actions left no trace).
	for name := range crashed {
		recoverNode(name)
	}
	checkStInvariant(t, w, -1)
	view := mustView(t, w)
	if len(view) == 0 {
		t.Fatal("empty final St view")
	}
	v, err := w.cluster.Node(view[0]).Store().Read(w.id)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Data) != itoa(committedTotal) {
		t.Fatalf("final value %q != committed count %d", v.Data, committedTotal)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func mustView(t *testing.T, w *world) []transport.Addr {
	t.Helper()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	act := w.mgrs["c1"].BeginTop()
	view, _, err := cli.GetView(ctx, act.ID(), w.id)
	_ = cli.EndAction(ctx, act.ID(), true)
	_, _ = act.Commit(ctx)
	if err != nil {
		t.Fatalf("GetView: %v", err)
	}
	return view
}

func checkStInvariant(t *testing.T, w *world, step int) {
	t.Helper()
	view := mustView(t, w)
	var ref uint64
	first := true
	for _, st := range view {
		n := w.cluster.Node(st)
		if !n.Up() {
			continue // down nodes are excluded at the next commit
		}
		seq, ok := n.Store().SeqOf(w.id)
		if !ok {
			t.Fatalf("step %d: %s in view but has no state", step, st)
		}
		if first {
			ref, first = seq, false
		} else if seq != ref {
			t.Fatalf("step %d: stores in view disagree: %s has %d, expected %d", step, st, seq, ref)
		}
	}
}
