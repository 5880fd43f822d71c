package object

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// holdNet is an in-memory network whose handlers hold the requests hold
// matches once they are delivered, before the handler runs, until release
// is closed: a node that crashes meanwhile is one that crashed while it was
// handling the request.
type holdNet struct {
	transport.Network
	mu      sync.Mutex
	hold    func(transport.Request) bool
	held    chan struct{}
	release chan struct{}
}

func (n *holdNet) Register(addr transport.Addr, h transport.Handler) {
	n.Network.Register(addr, func(ctx context.Context, req transport.Request) ([]byte, error) {
		n.mu.Lock()
		hold := n.hold != nil && n.hold(req)
		n.mu.Unlock()
		if hold {
			n.held <- struct{}{}
			<-n.release
		}
		return h(ctx, req)
	})
}

// holdOnce holds the next request to addr, and returns once it is held.
func (n *holdNet) holdOnce(addr transport.Addr, send func()) {
	n.mu.Lock()
	n.hold = func(req transport.Request) bool { return req.To == addr }
	n.held, n.release = make(chan struct{}), make(chan struct{})
	n.mu.Unlock()
	go send()
	<-n.held
	n.mu.Lock()
	n.hold = nil
	n.mu.Unlock()
}

// TestCrashedIncarnationSendsNoReply: an object server's Invoke and a
// store's Prepare are each held inside the node that handles them while
// the node crashes and recovers. The incarnation that took the request is
// dead, so no reply comes from it: each fails as transport.ErrReplyLost,
// and the recovered incarnation answers the next request.
func TestCrashedIncarnationSendsNoReply(t *testing.T) {
	net := &holdNet{Network: transport.NewMem(transport.MemOptions{}, nil)}
	cluster := sim.NewClusterOn(net)
	reg := NewRegistry()
	reg.Register(counterClass())
	NewManager(cluster.Add("sv1"), reg)
	cluster.Add("st1")
	cluster.Add("client")
	id := uid.NewGenerator("test", 1).New()
	cluster.Node("st1").Store().Put(id, []byte("0"), 1)
	ctx := context.Background()
	ref := ServerRef{Client: cluster.Node("client").Client(), Node: "sv1", UID: id, Class: "counter", StNodes: []transport.Addr{"st1"}}
	prepare := func(tx string) error {
		st := store.RemoteStore{Client: cluster.Node("client").Client(), Node: "st1"}
		return st.Prepare(ctx, tx, []store.Write{{UID: id, Data: []byte("7"), Seq: 2}}, false)
	}

	for _, c := range []struct {
		node transport.Addr
		send func() error
	}{
		{"sv1", func() error {
			_, err := ref.Invoke(ctx, InvokeReq{Action: "a1", Method: "add", Args: []byte("1")})
			return err
		}},
		{"st1", func() error { return prepare("tx1") }},
	} {
		done := make(chan error, 1)
		net.holdOnce(c.node, func() { done <- c.send() })
		node := cluster.Node(c.node)
		node.Crash()
		node.Recover(nil)
		close(net.release)
		if err := <-done; !errors.Is(err, transport.ErrReplyLost) {
			t.Fatalf("%s: a request its crashed incarnation held = %v, want %v", c.node, err, transport.ErrReplyLost)
		}
	}
	if _, err := ref.Invoke(ctx, InvokeReq{Action: "a2", Method: "get"}); err != nil {
		t.Fatalf("the recovered server: %v", err)
	}
	if err := prepare("tx2"); err != nil {
		t.Fatalf("the recovered store: %v", err)
	}
}
