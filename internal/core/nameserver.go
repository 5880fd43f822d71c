package core

import (
	"context"
	"sync"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/uid"
)

// NameServer is the §5 (concluding remarks) extension: a "traditional
// (non-atomic)" name server holding the available-server data Sv, with no
// lock-based concurrency control and no atomic actions. The paper proposes
// pairing it with the atomic Object State database, which then carries the
// whole burden of guaranteeing that clients bind only to mutually
// consistent, latest object states.
//
// What is lost relative to the Object Server database:
//   - no use lists, so no quiescence check: an Insert succeeds even while
//     clients are using the object;
//   - no action-scoped undo: updates are immediate and cannot abort;
//   - readers can observe concurrent updates mid-flight.
//
// Experiment E12 measures that state consistency nevertheless survives —
// it is guarded entirely by St maintenance at commit time.
type NameServer struct {
	mu      sync.Mutex
	entries map[uid.UID][]transport.Addr
}

// NameServiceName is the RPC service name of the non-atomic name server.
const NameServiceName = "nameserver"

// Name-server RPC methods.
const (
	NameMethodGet    = "Get"
	NameMethodSet    = "Set"
	NameMethodInsert = "Insert"
	NameMethodRemove = "Remove"
)

// NameGetReq fetches the server list for an object.
type NameGetReq struct{ UID uid.UID }

// NameGetResp carries the server list.
type NameGetResp struct{ Nodes []transport.Addr }

// NameUpdateReq mutates the server list.
type NameUpdateReq struct {
	UID   uid.UID
	Host  transport.Addr
	Nodes []transport.Addr // Set only
}

// NewNameServer installs a non-atomic name server on node.
func NewNameServer(node *sim.Node) *NameServer {
	ns := &NameServer{entries: make(map[uid.UID][]transport.Addr)}
	srv := node.Server()
	srv.Handle(NameServiceName, NameMethodGet, rpc.Method(func(ctx context.Context, from transport.Addr, req NameGetReq) (NameGetResp, error) {
		return NameGetResp{Nodes: ns.Get(req.UID)}, nil
	}))
	srv.Handle(NameServiceName, NameMethodSet, rpc.Method(func(ctx context.Context, from transport.Addr, req NameUpdateReq) (rpc.Empty, error) {
		ns.Set(req.UID, req.Nodes)
		return rpc.Empty{}, nil
	}))
	srv.Handle(NameServiceName, NameMethodInsert, rpc.Method(func(ctx context.Context, from transport.Addr, req NameUpdateReq) (rpc.Empty, error) {
		ns.Insert(req.UID, req.Host)
		return rpc.Empty{}, nil
	}))
	srv.Handle(NameServiceName, NameMethodRemove, rpc.Method(func(ctx context.Context, from transport.Addr, req NameUpdateReq) (rpc.Empty, error) {
		ns.Remove(req.UID, req.Host)
		return rpc.Empty{}, nil
	}))
	return ns
}

// Get returns the server list (a copy).
func (ns *NameServer) Get(id uid.UID) []transport.Addr {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return append([]transport.Addr(nil), ns.entries[id]...)
}

// Set replaces the server list.
func (ns *NameServer) Set(id uid.UID, nodes []transport.Addr) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.entries[id] = append([]transport.Addr(nil), nodes...)
}

// Insert adds a host (idempotent). Note: no quiescence check, by design.
func (ns *NameServer) Insert(id uid.UID, host transport.Addr) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, n := range ns.entries[id] {
		if n == host {
			return
		}
	}
	ns.entries[id] = append(ns.entries[id], host)
}

// Remove drops a host.
func (ns *NameServer) Remove(id uid.UID, host transport.Addr) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	var kept []transport.Addr
	for _, n := range ns.entries[id] {
		if n != host {
			kept = append(kept, n)
		}
	}
	ns.entries[id] = kept
}

// NSClient is a typed client for a remote NameServer.
type NSClient struct {
	RPC  rpc.Client
	Node transport.Addr
}

// Get fetches the server list.
func (c NSClient) Get(ctx context.Context, id uid.UID) ([]transport.Addr, error) {
	resp, err := rpc.Invoke[NameGetReq, NameGetResp](ctx, c.RPC, c.Node, NameServiceName, NameMethodGet, NameGetReq{UID: id})
	return resp.Nodes, err
}

// Set replaces the server list.
func (c NSClient) Set(ctx context.Context, id uid.UID, nodes []transport.Addr) error {
	return c.update(ctx, NameMethodSet, NameUpdateReq{UID: id, Nodes: nodes})
}

// Insert adds a host.
func (c NSClient) Insert(ctx context.Context, id uid.UID, host transport.Addr) error {
	return c.update(ctx, NameMethodInsert, NameUpdateReq{UID: id, Host: host})
}

// Remove drops a host.
func (c NSClient) Remove(ctx context.Context, id uid.UID, host transport.Addr) error {
	return c.update(ctx, NameMethodRemove, NameUpdateReq{UID: id, Host: host})
}

func (c NSClient) update(ctx context.Context, method string, req NameUpdateReq) error {
	_, err := rpc.Invoke[NameUpdateReq, rpc.Empty](ctx, c.RPC, c.Node, NameServiceName, method, req)
	return err
}
