package store

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

var gen = uid.NewGenerator("test", 1)

func TestReadUnknownObject(t *testing.T) {
	s := New("beta")
	_, err := s.Read(gen.New())
	if !errors.Is(err, ErrNoState) {
		t.Fatalf("err = %v, want ErrNoState", err)
	}
}

func TestPutReadRoundTrip(t *testing.T) {
	s := New("beta")
	id := gen.New()
	s.Put(id, []byte("state-1"), 7)
	v, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Data) != "state-1" || v.Seq != 7 {
		t.Fatalf("version = %+v", v)
	}
	// Mutating the returned data must not affect the store.
	v.Data[0] = 'X'
	v2, _ := s.Read(id)
	if string(v2.Data) != "state-1" {
		t.Fatal("Read aliases internal buffer")
	}
}

func TestPrepareCommitApplies(t *testing.T) {
	s := New("beta")
	id := gen.New()
	s.Put(id, []byte("v0"), 1)
	if err := s.Prepare("tx1", []Write{{UID: id, Data: []byte("v1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	// Not yet visible — but the read says an intention is pending.
	if v, _ := s.Read(id); string(v.Data) != "v0" || !v.Pinned {
		t.Fatalf("read under a prepared write = %q pinned=%v, want v0 pinned", v.Data, v.Pinned)
	}
	if err := s.Commit("tx1"); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Read(id)
	if string(v.Data) != "v1" || v.Seq != 2 || v.TxID != "tx1" || v.Pinned {
		t.Fatalf("after commit: %+v", v)
	}
	if len(s.PendingTxs()) != 0 {
		t.Fatal("intention not cleared after commit")
	}
}

func TestPrepareAbortDiscards(t *testing.T) {
	s := New("beta")
	id := gen.New()
	s.Put(id, []byte("v0"), 1)
	if err := s.Prepare("tx1", []Write{{UID: id, Data: []byte("v1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort("tx1"); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Read(id)
	if string(v.Data) != "v0" {
		t.Fatalf("abort leaked write: %q", v.Data)
	}
	// The pin is released: another tx may prepare.
	if err := s.Prepare("tx2", []Write{{UID: id, Data: []byte("v2"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
}

func TestConflictingPrepareRefused(t *testing.T) {
	s := New("beta")
	id := gen.New()
	if err := s.Prepare("tx1", []Write{{UID: id, Data: []byte("a"), Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	err := s.Prepare("tx2", []Write{{UID: id, Data: []byte("b"), Seq: 1}})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	// Same tx re-prepare is allowed (idempotent retry).
	if err := s.Prepare("tx1", []Write{{UID: id, Data: []byte("a2"), Seq: 1}}); err != nil {
		t.Fatalf("re-prepare: %v", err)
	}
}

func TestPrepareStaleVersionRefused(t *testing.T) {
	s := New("beta")
	id := gen.New()
	s.Put(id, []byte("v5"), 5)
	// Extending the chain by one is accepted.
	if err := s.Prepare("tx-good", []Write{{UID: id, Data: []byte("v6"), Seq: 6}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort("tx-good"); err != nil {
		t.Fatal(err)
	}
	// A write that does not extend the chain by one is refused, and the
	// refusal says who is behind: the writer (seq at or below ours) or this
	// store (seq skipping past ours).
	for _, seq := range []uint64{2, 5, 8} {
		err := s.Prepare("tx-stale", []Write{{UID: id, Data: []byte("x"), Seq: seq}})
		if !errors.Is(err, ErrStaleVersion) {
			t.Fatalf("seq %d: err = %v, want ErrStaleVersion", seq, err)
		}
		if got, want := errors.Is(err, ErrStoreBehind), seq > 6; got != want {
			t.Fatalf("seq %d: ErrStoreBehind = %v, want %v (%v)", seq, got, want, err)
		}
	}
	// Unknown objects accept any starting seq.
	if err := s.Prepare("tx-new", []Write{{UID: gen.New(), Data: []byte("a"), Seq: 3}}); err != nil {
		t.Fatal(err)
	}
}

func TestRemotePrepareStaleVersionCode(t *testing.T) {
	net := transport.NewMem(transport.MemOptions{}, nil)
	srv := rpc.NewServer()
	s := New("beta")
	RegisterService(srv, s)
	net.Register("beta", srv.Handler())
	remote := RemoteStore{Client: rpc.Client{Net: net, From: "alpha"}, Node: "beta"}
	ctx := context.Background()
	id := gen.New()
	s.Put(id, []byte("v5"), 5)
	err := remote.Prepare(ctx, "tx", []Write{{UID: id, Data: []byte("x"), Seq: 9}}, false)
	if !errors.Is(err, ErrStaleVersion) || !errors.Is(err, ErrStoreBehind) {
		t.Fatalf("remote err for a write past the chain = %v, want stale version with the store behind", err)
	}
	err = remote.Prepare(ctx, "tx", []Write{{UID: id, Data: []byte("x"), Seq: 5}}, false)
	if !errors.Is(err, ErrStaleVersion) || errors.Is(err, ErrStoreBehind) {
		t.Fatalf("remote err for a write behind the chain = %v, want stale version, writer behind", err)
	}
}

func TestCommitAbortUnknownTxNoOp(t *testing.T) {
	s := New("beta")
	if err := s.Commit("ghost"); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort("ghost"); err != nil {
		t.Fatal(err)
	}
}

type mapLog map[string]Outcome

func (m mapLog) Lookup(tx string) Outcome { return m[tx] }

func TestRecoverPresumedAbort(t *testing.T) {
	s := New("beta")
	idA, idB := gen.New(), gen.New()
	s.Put(idA, []byte("a0"), 1)
	s.Put(idB, []byte("b0"), 1)
	if err := s.Prepare("committed-tx", []Write{{UID: idA, Data: []byte("a1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare("undecided-tx", []Write{{UID: idB, Data: []byte("b1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	applied, aborted := s.Recover(mapLog{"committed-tx": OutcomeCommitted})
	if len(applied) != 1 || applied[0] != "committed-tx" {
		t.Fatalf("applied = %v", applied)
	}
	if len(aborted) != 1 || aborted[0] != "undecided-tx" {
		t.Fatalf("aborted = %v", aborted)
	}
	if v, _ := s.Read(idA); string(v.Data) != "a1" {
		t.Fatalf("committed tx not applied: %q", v.Data)
	}
	if v, _ := s.Read(idB); string(v.Data) != "b0" {
		t.Fatalf("undecided tx applied: %q", v.Data)
	}
}

func TestRecoverNilLogAbortsAll(t *testing.T) {
	s := New("beta")
	id := gen.New()
	if err := s.Prepare("tx", []Write{{UID: id, Data: []byte("x"), Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	applied, aborted := s.Recover(nil)
	if len(applied) != 0 || len(aborted) != 1 {
		t.Fatalf("applied=%v aborted=%v", applied, aborted)
	}
}

func TestObjectsSorted(t *testing.T) {
	s := New("beta")
	a := uid.UID{Origin: "n", Epoch: 1, Seq: 2}
	b := uid.UID{Origin: "n", Epoch: 1, Seq: 1}
	s.Put(a, nil, 1)
	s.Put(b, nil, 1)
	got := s.Objects()
	if len(got) != 2 || got[0] != b {
		t.Fatalf("objects = %v", got)
	}
	s.Remove(a)
	if got := s.Objects(); len(got) != 1 {
		t.Fatalf("after remove: %v", got)
	}
}

func TestRemoteStoreOverRPC(t *testing.T) {
	net := transport.NewMem(transport.MemOptions{}, nil)
	srv := rpc.NewServer()
	s := New("beta")
	RegisterService(srv, s)
	net.Register("beta", srv.Handler())

	remote := RemoteStore{Client: rpc.Client{Net: net, From: "alpha"}, Node: "beta"}
	ctx := context.Background()
	id := gen.New()

	if _, err := remote.Read(ctx, id); !errors.Is(err, ErrNoState) {
		t.Fatalf("remote read missing: %v", err)
	}
	if err := remote.Put(ctx, id, []byte("s0"), 1); err != nil {
		t.Fatal(err)
	}
	v, err := remote.Read(ctx, id)
	if err != nil || string(v.Data) != "s0" || v.Seq != 1 {
		t.Fatalf("remote read: %+v err=%v", v, err)
	}
	if err := remote.Prepare(ctx, "tx9", []Write{{UID: id, Data: []byte("s1"), Seq: 2}}, false); err != nil {
		t.Fatal(err)
	}
	if v, err := remote.Read(ctx, id); err != nil || !v.Pinned || v.Seq != 1 {
		t.Fatalf("remote read under a prepared write: %+v err=%v, want seq 1 pinned", v, err)
	}
	// Conflicting remote prepare maps to CodeConflict.
	err = remote.Prepare(ctx, "other", []Write{{UID: id, Data: []byte("zz"), Seq: 2}}, false)
	if rpc.CodeOf(err) != rpc.CodeConflict {
		t.Fatalf("conflict code = %q (%v)", rpc.CodeOf(err), err)
	}
	if err := remote.Commit(ctx, "tx9"); err != nil {
		t.Fatal(err)
	}
	v, _ = remote.Read(ctx, id)
	if string(v.Data) != "s1" || v.Seq != 2 || v.Pinned {
		t.Fatalf("after remote commit: %+v", v)
	}
	if err := remote.Abort(ctx, "never-started"); err != nil {
		t.Fatal(err)
	}
}

// Property: a prepare followed by abort never changes committed state; a
// prepare followed by commit installs exactly the prepared data and seq.
func TestPropertyPrepareCommitAbort(t *testing.T) {
	f := func(initial, next []byte, commit bool) bool {
		s := New("n")
		id := uid.UID{Origin: "p", Epoch: 1, Seq: 1}
		s.Put(id, initial, 1)
		if err := s.Prepare("t", []Write{{UID: id, Data: next, Seq: 2}}); err != nil {
			return false
		}
		if commit {
			if err := s.Commit("t"); err != nil {
				return false
			}
			v, err := s.Read(id)
			return err == nil && string(v.Data) == string(next) && v.Seq == 2
		}
		if err := s.Abort("t"); err != nil {
			return false
		}
		v, err := s.Read(id)
		return err == nil && string(v.Data) == string(initial) && v.Seq == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommitOnePhaseApplies(t *testing.T) {
	s := New("beta")
	id := gen.New()
	s.Put(id, []byte("v0"), 1)
	if err := s.CommitOnePhase("tx1", []Write{{UID: id, Data: []byte("v1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Read(id)
	if string(v.Data) != "v1" || v.Seq != 2 || v.TxID != "tx1" {
		t.Fatalf("after one-phase commit: %+v", v)
	}
	if len(s.PendingTxs()) != 0 {
		t.Fatal("one-phase commit must leave nothing pending")
	}
}

func TestCommitOnePhaseChecksAdmission(t *testing.T) {
	s := New("beta")
	id := gen.New()
	s.Put(id, []byte("v0"), 1)
	// Stale chain refused.
	if err := s.CommitOnePhase("tx1", []Write{{UID: id, Data: []byte("v9"), Seq: 9}}); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("err = %v, want ErrStaleVersion", err)
	}
	if v, _ := s.Read(id); string(v.Data) != "v0" {
		t.Fatal("failed one-phase commit must not change state")
	}
	// Pinned by another tx refused.
	if err := s.Prepare("other", []Write{{UID: id, Data: []byte("v1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitOnePhase("tx1", []Write{{UID: id, Data: []byte("v1"), Seq: 2}}); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
}

func TestCommitOnePhaseMergesOwnIntentions(t *testing.T) {
	// A one-phase commit for a tx that already prepared writes (merge
	// semantics) applies both the old intentions and the new writes.
	s := New("beta")
	a, b := gen.New(), gen.New()
	s.Put(a, []byte("a0"), 1)
	s.Put(b, []byte("b0"), 1)
	if err := s.Prepare("tx1", []Write{{UID: a, Data: []byte("a1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitOnePhase("tx1", []Write{{UID: b, Data: []byte("b1"), Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	va, _ := s.Read(a)
	vb, _ := s.Read(b)
	if string(va.Data) != "a1" || string(vb.Data) != "b1" {
		t.Fatalf("after merge commit: a=%q b=%q", va.Data, vb.Data)
	}
	if len(s.PendingTxs()) != 0 {
		t.Fatal("intentions not cleared")
	}
}

func TestRemoteCommitOnePhase(t *testing.T) {
	net := transport.NewMem(transport.MemOptions{}, nil)
	srv := rpc.NewServer()
	s := New("beta")
	RegisterService(srv, s)
	net.Register("beta", srv.Handler())
	cli := rpc.Client{Net: net, From: "alpha"}
	id := gen.New()
	s.Put(id, []byte("v0"), 1)
	r := RemoteStore{Client: cli, Node: "beta"}
	if err := r.Prepare(context.Background(), "tx1", []Write{{UID: id, Data: []byte("v1"), Seq: 2}}, true); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Read(id)
	if string(v.Data) != "v1" || v.Seq != 2 || len(s.PendingTxs()) != 0 {
		t.Fatalf("after remote one-phase commit: %+v, pending %v", v, s.PendingTxs())
	}
	// Stale refusal maps back to the sentinel.
	if err := r.Prepare(context.Background(), "tx2", []Write{{UID: id, Data: []byte("vX"), Seq: 9}}, true); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("err = %v, want ErrStaleVersion", err)
	}
}

// TestServiceRefusesNonCanonicalUID: the service keys the image with the
// request's UID string itself, so a string that parses to a UID but is not
// that UID's canonical form ("obj:01:1" for obj:1:1) is refused, not
// stored under a second key.
func TestServiceRefusesNonCanonicalUID(t *testing.T) {
	net := transport.NewMem(transport.MemOptions{}, nil)
	srv := rpc.NewServer()
	s := New("beta")
	RegisterService(srv, s)
	net.Register("beta", srv.Handler())
	c, ctx := rpc.Client{Net: net, From: "alpha"}, context.Background()
	for _, bad := range []string{"obj:01:1", "obj:1:+1", "nope"} {
		if _, err := rpc.Invoke[PutReq, rpc.Empty](ctx, c, "beta", ServiceName, MethodPut, PutReq{UID: bad, Data: []byte("x"), Seq: 1}); err == nil {
			t.Fatalf("put of %q accepted", bad)
		}
		req := PrepareReq{Tx: "tx", Writes: []WriteRec{{UID: bad, Data: []byte("x"), Seq: 1}}, OnePhase: true}
		if _, err := rpc.Invoke[PrepareReq, rpc.Empty](ctx, c, "beta", ServiceName, MethodPrepare, req); err == nil {
			t.Fatalf("one-phase write of %q accepted", bad)
		}
	}
	if objs := s.Objects(); len(objs) != 0 {
		t.Fatalf("refused writes left objects %v", objs)
	}
}
