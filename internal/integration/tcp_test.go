// Package integration runs cross-module tests over the real-socket mux
// transport, demonstrating that the protocol stack (stores, two-phase
// commit, outcome-log recovery, group multicast) is transport-agnostic —
// the same code paths the in-memory experiments use, over loopback TCP.
package integration

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/action"
	"repro/internal/group"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// tcpNode bundles a TCP endpoint with its RPC server and store.
type tcpNode struct {
	name transport.Addr
	srv  *rpc.Server
	st   *store.Store
}

func newTCPNode(net *transport.TCPMux, name transport.Addr) *tcpNode {
	n := &tcpNode{name: name, srv: rpc.NewServer(), st: store.New(string(name))}
	store.RegisterService(n.srv, n.st)
	net.Register(name, n.srv.Handler())
	return n
}

func TestTwoPhaseCommitOverTCP(t *testing.T) {
	net := transport.NewTCPMux()
	defer net.Close()
	alpha := newTCPNode(net, "alpha")
	beta := newTCPNode(net, "beta")

	gen := uid.NewGenerator("tcp", 1)
	id := gen.New()
	alpha.st.Put(id, []byte("v0"), 1)
	beta.st.Put(id, []byte("v0"), 1)

	mgr := action.NewManager("client", nil)
	cli := rpc.Client{Net: net, From: "client"}
	act := mgr.BeginTop()
	for _, node := range []*tcpNode{alpha, beta} {
		part := storeParticipant{
			remote: store.RemoteStore{Client: cli, Node: node.name},
			writes: []store.Write{{UID: id, Data: []byte("v1"), Seq: 2}},
		}
		if err := act.Enlist(part); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := act.Commit(context.Background())
	if err != nil {
		t.Fatalf("2PC over TCP: %v", err)
	}
	if len(rep.PhaseTwoErrors) != 0 {
		t.Fatalf("phase-2 errors: %v", rep.PhaseTwoErrors)
	}
	for _, node := range []*tcpNode{alpha, beta} {
		v, err := node.st.Read(id)
		if err != nil || string(v.Data) != "v1" || v.Seq != 2 {
			t.Fatalf("%s: %+v %v", node.name, v, err)
		}
	}
}

// storeParticipant drives one store through two-phase commit with a fixed
// write set.
type storeParticipant struct {
	remote store.RemoteStore
	writes []store.Write
}

func (p storeParticipant) Name() string { return string(p.remote.Node) }
func (p storeParticipant) Prepare(ctx context.Context, tx string) (action.Vote, error) {
	return action.VoteCommit, p.remote.Prepare(ctx, tx, p.writes, false)
}
func (p storeParticipant) Commit(ctx context.Context, tx string) error {
	return p.remote.Commit(ctx, tx)
}
func (p storeParticipant) Abort(ctx context.Context, tx string) error { return p.remote.Abort(ctx, tx) }

// witnessParticipant does nothing: enlisting it gives an action a second
// participant, so the commit runs both phases instead of the one-phase
// shortcut a lone store participant takes.
type witnessParticipant struct{}

func (witnessParticipant) Name() string { return "witness" }
func (witnessParticipant) Prepare(context.Context, string) (action.Vote, error) {
	return action.VoteCommit, nil
}
func (witnessParticipant) Abort(context.Context, string) error  { return nil }
func (witnessParticipant) Commit(context.Context, string) error { return nil }

func TestCrashBeforePhaseTwoRecoversOverTCP(t *testing.T) {
	mux := transport.NewTCPMux()
	defer mux.Close()
	beta := newTCPNode(mux, "beta")
	coordNode := newTCPNode(mux, "coord")
	// Beta crashes after the commit point, as its phase-two message is on
	// its way: the hook takes beta's endpoint down before the carrier looks
	// it up, so the Commit is never delivered. (Phase two runs its
	// participants in parallel, so a crash staged from another participant's
	// Commit would race the message it is meant to pre-empt.)
	net := transport.NewFaulty(mux, nil)
	net.Faults().OnRequest(1, transport.ToMethod("beta", store.ServiceName, store.MethodCommit), func(transport.Request) {
		mux.Unregister("beta")
	})

	gen := uid.NewGenerator("tcp", 1)
	id := gen.New()
	beta.st.Put(id, []byte("v0"), 1)

	mgr := action.NewManager("client", nil)
	action.RegisterLogService(coordNode.srv, mgr.Log())
	cli := rpc.Client{Net: net, From: "client"}

	act := mgr.BeginTop()
	if err := act.Enlist(witnessParticipant{}); err != nil {
		t.Fatal(err)
	}
	part := storeParticipant{
		remote: store.RemoteStore{Client: cli, Node: "beta"},
		writes: []store.Write{{UID: id, Data: []byte("v1"), Seq: 2}},
	}
	if err := act.Enlist(part); err != nil {
		t.Fatal(err)
	}
	rep, err := act.Commit(context.Background())
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if len(rep.PhaseTwoErrors) != 1 {
		t.Fatalf("phase-2 errors = %v, want exactly one (beta unreachable)", rep.PhaseTwoErrors)
	}
	// Beta's state is still old, with a pending intention.
	if v, _ := beta.st.Read(id); string(v.Data) != "v0" {
		t.Fatal("beta should not have applied yet")
	}
	if got := beta.st.PendingTxs(); len(got) != 1 {
		t.Fatalf("pending txs = %v", got)
	}
	// "Recovery": beta comes back and resolves its intention against the
	// coordinator's outcome log — over TCP.
	net.Register("beta", beta.srv.Handler())
	rlog := action.RemoteLog{Client: rpc.Client{Net: net, From: "beta"}, Node: "coord"}
	applied, aborted := beta.st.Recover(rlog)
	if len(applied) != 1 || len(aborted) != 0 {
		t.Fatalf("recover applied=%v aborted=%v", applied, aborted)
	}
	if v, _ := beta.st.Read(id); string(v.Data) != "v1" || v.Seq != 2 {
		t.Fatalf("beta after recovery: %+v", v)
	}
}

func TestOrderedMulticastOverTCP(t *testing.T) {
	net := transport.NewTCPMux()
	defer net.Close()
	type memberState struct {
		mu  sync.Mutex
		log []string
	}
	members := map[transport.Addr]*memberState{}
	var addrs []transport.Addr
	for _, name := range []transport.Addr{"m1", "m2", "m3"} {
		srv := rpc.NewServer()
		host := group.NewHost(srv, rpc.Client{Net: net, From: name})
		ms := &memberState{}
		members[name] = ms
		host.Join("G", func(_ context.Context, msg group.Delivered) ([]byte, error) {
			ms.mu.Lock()
			defer ms.mu.Unlock()
			ms.log = append(ms.log, string(msg.Payload))
			return []byte("ok"), nil
		})
		net.Register(name, srv.Handler())
		addrs = append(addrs, name)
	}
	g := group.Group{ID: "G", Members: addrs}
	cli := rpc.Client{Net: net, From: "sender"}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		res, err := group.Multicast(ctx, cli, g, "op", []byte{byte('a' + i)})
		if err != nil {
			t.Fatalf("multicast %d over TCP: %v", i, err)
		}
		if len(res.Replies) != 3 {
			t.Fatalf("replies = %d", len(res.Replies))
		}
	}
	ref := ""
	for name, ms := range members {
		ms.mu.Lock()
		h := strings.Join(ms.log, ",")
		ms.mu.Unlock()
		if ref == "" {
			ref = h
		} else if h != ref {
			t.Fatalf("member %s history %q != %q", name, h, ref)
		}
	}
	if ref != "a,b,c,d,e" {
		t.Fatalf("history = %q", ref)
	}
}
