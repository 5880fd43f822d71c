package replica

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/object"
	"repro/internal/transport"
	"repro/internal/uid"
)

// secondHandle registers another counter at every store and returns a
// single-copy-passive handle on it over the world's servers and stores.
func (w *world) secondHandle(t *testing.T) (*Handle, uid.UID) {
	t.Helper()
	id := uid.NewGenerator("t", 2).New()
	for _, st := range w.sts {
		w.cluster.Node(st).Store().Put(id, []byte("0"), 1)
	}
	h, err := New(Config{UID: id, Class: "counter", Policy: SingleCopyPassive, Servers: w.svs, StNodes: w.sts,
		Client: w.cluster.Node("client").Client(), Pool: &w.pool})
	if err != nil {
		t.Fatal(err)
	}
	return h, id
}

// TestGroupedReplyLostFailsEveryMember: the reply to a request naming two
// objects is lost. Each handle is left where a lost reply of its own request
// leaves it: a lost Prepare reply breaks the binding and fails the handle's
// phase one; a lost Commit reply breaks it and has the handle commit at the
// stores directly, so the commit stands for both objects.
func TestGroupedReplyLostFailsEveryMember(t *testing.T) {
	for _, method := range []string{object.MethodPrepare, object.MethodCommit} {
		t.Run(method, func(t *testing.T) {
			w := newWorld(t, 1, 3)
			ctx := context.Background()
			h1 := w.handle(t, SingleCopyPassive)
			h2, id2 := w.secondHandle(t)
			hs := []*Handle{h1, h2}
			a := w.mgr.BeginTop()
			for _, h := range hs {
				if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("4")}); err != nil {
					t.Fatal(err)
				}
			}
			sent := 0
			w.cluster.Faults().OnRequest(-1, transport.ToMethod("sv1", object.ServiceName, method), func(transport.Request) { sent++ })
			w.cluster.Faults().DropReplies(1, transport.ToMethod("sv1", object.ServiceName, method))
			out := make([]Outcome, len(hs))
			Prepare(ctx, a.ID(), hs, false, out)
			if method == object.MethodPrepare {
				for i, o := range out {
					if !errors.Is(o.Err, ErrNoServers) || !slices.Equal(hs[i].Broken(), []transport.Addr{"sv1"}) {
						t.Fatalf("handle %d: phase one = %v, broken %v; want a failure and sv1 broken", i, o.Err, hs[i].Broken())
					}
				}
				Abort(ctx, a.ID(), hs, out)
			} else {
				for i, o := range out {
					if o.Err != nil {
						t.Fatalf("handle %d: phase one = %v", i, o.Err)
					}
				}
				Commit(ctx, a.ID(), hs, out)
				for i, o := range out {
					if o.Err != nil || !slices.Equal(hs[i].Broken(), []transport.Addr{"sv1"}) {
						t.Fatalf("handle %d: phase two = %v, broken %v; want the commit and sv1 broken", i, o.Err, hs[i].Broken())
					}
				}
				for _, id := range []uid.UID{w.id, id2} {
					for _, st := range w.sts {
						if v, err := w.cluster.Node(st).Store().Read(id); err != nil || string(v.Data) != "4" || v.Seq != 2 {
							t.Fatalf("%s holds %v at %q seq %d (%v), want 4 at seq 2", st, id, v.Data, v.Seq, err)
						}
					}
				}
			}
			if sent != 1 {
				t.Fatalf("sv1 was sent %d %s requests, want one naming both objects", sent, method)
			}
		})
	}
}
