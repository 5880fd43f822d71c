package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// TestViewsAreReadOnly: the Sv, St and candidate lists a bind is answered
// with are shared, not copied — in process with the database's entries, and
// once decoded with the other lists of their message, which are carved from
// one block — so each is a read-only value with cap == len. An append to one
// reallocates, and a change to a decoded one stays in it: neither may reach
// the database's entry or a sibling list. The last part reads views while
// the entries are replaced under it, for the race detector.
func TestViewsAreReadOnly(t *testing.T) {
	w := newWorld(t, 2, 2, 1)
	ctx := context.Background()
	sv, st := slices.Clone(w.svs), slices.Clone(w.sts)
	entries := func(t *testing.T) {
		t.Helper()
		w.db.mu.Lock()
		defer w.db.mu.Unlock()
		if got := w.db.servers[w.id].Nodes; !slices.Equal(got, sv) {
			t.Errorf("Sv entry = %v, want %v", got, sv)
		}
		if got := w.db.states[w.id].Nodes; !slices.Equal(got, st) {
			t.Errorf("St entry = %v, want %v", got, st)
		}
	}
	bind := func(t *testing.T) (candidates, counted, view []transport.Addr) {
		t.Helper()
		resp, err := w.db.batch(ctx, "c1", BatchReq{Ops: []Op{BindOp("", w.id, "c1", 1, false), GetViewOp("", w.id)}})
		if err != nil {
			t.Fatal(err)
		}
		// The count goes again, so that Insert finds the object quiescent.
		if _, err := w.db.batch(ctx, "c1", BatchReq{Ops: []Op{DecrementOp("", w.id, "c1", resp.Results[0].Hosts)}}); err != nil {
			t.Fatal(err)
		}
		return resp.Results[0].Nodes, resp.Results[0].Hosts, resp.Results[1].Nodes
	}
	lists := func(t *testing.T, candidates, counted, view []transport.Addr) {
		t.Helper()
		if !slices.Equal(candidates, sv) || !slices.Equal(counted, sv[:1]) || !slices.Equal(view, st) {
			t.Fatalf("bind = %v, %v, %v; want %v, %v, %v", candidates, counted, view, sv, sv[:1], st)
		}
		for _, l := range [][]transport.Addr{candidates, counted, view} {
			if cap(l) != len(l) {
				t.Errorf("%v has cap %d: an append would write into memory another list reads", l, cap(l))
			}
		}
	}

	t.Run("in-process", func(t *testing.T) {
		candidates, counted, view := bind(t)
		lists(t, candidates, counted, view)
		// counted is candidates' first element: appending to it must not
		// overwrite the second.
		_ = append(counted, "x")
		_ = append(candidates, "x")
		_ = append(view, "x")
		if !slices.Equal(candidates, sv) {
			t.Errorf("candidates = %v after an append to the counted hosts, want %v", candidates, sv)
		}
		entries(t)
	})

	t.Run("decoded", func(t *testing.T) {
		var resp BatchResp
		sent := BatchResp{Results: make([]OpResult, 2)}
		sent.Results[0].Nodes, sent.Results[0].Hosts, sent.Results[1].Nodes = bind(t)
		frame, err := rpc.Encode(&sent)
		if err != nil {
			t.Fatal(err)
		}
		if err := rpc.Decode(frame, &resp); err != nil {
			t.Fatal(err)
		}
		candidates, counted, view := resp.Results[0].Nodes, resp.Results[0].Hosts, resp.Results[1].Nodes
		lists(t, candidates, counted, view)
		// The three lists are neighbours in one block.
		candidates = append(candidates, "x")
		counted[0] = "y"
		view = append(view, "z")
		if !slices.Equal(resp.Results[0].Nodes, sv) || !slices.Equal(view[:len(st)], st) || !slices.Equal(candidates[:len(sv)], sv) {
			t.Errorf("decoded lists = %v, %v, %v after appending to and changing siblings, want %v, %v, %v",
				resp.Results[0].Nodes, counted, view, sv, []transport.Addr{"y"}, st)
		}
		entries(t)
	})

	t.Run("binding", func(t *testing.T) {
		b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
		act := b.Actions.BeginTop()
		bd, err := b.Bind(ctx, act, w.id)
		if err != nil {
			t.Fatal(err)
		}
		view := bd.handle.StNodes()
		if !slices.Equal(view, st) || cap(view) != len(view) {
			t.Fatalf("the binding's St view = %v (cap %d), want %v", view, cap(view), st)
		}
		view[0] = "x"
		_ = append(view, "y")
		if err := act.Abort(ctx); err != nil {
			t.Fatal(err)
		}
		w.flushEnds()
		entries(t)
		_, _, again := bind(t)
		if !slices.Equal(again, st) {
			t.Errorf("the next bind's St view = %v, want %v", again, st)
		}
	})

	t.Run("replaced-under-readers", func(t *testing.T) {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := w.db.batch(ctx, "c1", BatchReq{Ops: []Op{SelectOp("", w.id), GetViewOp("", w.id)}})
					if err != nil {
						t.Error(err)
						return
					}
					// What the reply's encoder does, after db.mu is let go.
					if _, err := rpc.Encode(&resp); err != nil {
						t.Error(err)
						return
					}
					_ = append(resp.Results[0].Nodes, "x")
				}
			}()
		}
		for range 50 {
			for _, ops := range [][]Op{
				{RemoveOp("", w.id, sv[1]), ExcludeOp("", []ExcludePair{{UID: w.id, Hosts: st[1:]}}, false)},
				{InsertOp("", w.id, sv[1]), IncludeOp("", w.id, st[1])},
			} {
				if _, err := w.db.batch(ctx, "c1", BatchReq{Ops: ops}); err != nil {
					t.Fatal(err)
				}
			}
		}
		close(stop)
		wg.Wait()
		entries(t)
	})
}
