package object

import (
	"context"
	"fmt"

	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// ServerRef is a typed client for the object server of one object at one
// node. Invoke is its one request for work under an action; the others
// checkpoint, passivate and report. An action's commit phases go through
// Server, which names every object of the action at the node.
type ServerRef struct {
	Client rpc.Client
	Node   transport.Addr
	UID    uid.UID
	// Name, when non-empty, is UID.String() as the caller already rendered
	// it: a binding renders its object's name once, not once per request.
	Name string
	// Class and StNodes, when Class is non-empty, ride Invoke: the server
	// activates the object on a miss instead of refusing with CodeNotActive.
	// A binding sets them on its first request, and a method-less invoke
	// carrying them is an activation and nothing more. StNodes alone rides
	// an invoke that carries phase one. Failover rides with Class: the
	// binding is here because a server it preferred did not answer (see
	// InvokeReq.Failover).
	Class    string
	StNodes  []transport.Addr
	Failover bool
}

// name returns the object's UID as requests carry it.
func (r ServerRef) name() string {
	if r.Name != "" {
		return r.Name
	}
	return r.UID.String()
}

// Invoke sends req — a method under req.Action, or a method-less request
// (see InvokeReq) — filling in the object and the ref's activation fields.
func (r ServerRef) Invoke(ctx context.Context, req InvokeReq) (InvokeResp, error) {
	req.UID = r.name()
	if r.Class != "" || req.Carry != CarryNone {
		req.Class, req.StNodes, req.Failover = r.Class, r.StNodes, r.Failover
	}
	return rpc.Invoke[InvokeReq, InvokeResp](ctx, r.Client, r.Node, ServiceName, MethodInvoke, req)
}

// Install pushes a committed state snapshot into the server, creating the
// instance if necessary.
func (r ServerRef) Install(ctx context.Context, class string, state []byte, seq uint64) error {
	_, err := rpc.Invoke[InstallReq, InstallResp](ctx, r.Client, r.Node, ServiceName, MethodInstall, InstallReq{
		UID:   r.name(),
		Class: class,
		State: state,
		Seq:   seq,
	})
	return err
}

// Passivate destroys the server instance if quiescent (or unconditionally
// with force).
func (r ServerRef) Passivate(ctx context.Context, force bool) (bool, error) {
	resp, err := rpc.Invoke[PassivateReq, PassivateResp](ctx, r.Client, r.Node, ServiceName, MethodPassivate, PassivateReq{UID: r.name(), Force: force})
	if err != nil {
		return false, err
	}
	return resp.Passivated, nil
}

// Status queries the server instance.
func (r ServerRef) Status(ctx context.Context) (StatusResp, error) {
	return rpc.Invoke[StatusReq, StatusResp](ctx, r.Client, r.Node, ServiceName, MethodStatus, StatusReq{UID: r.name()})
}

// Server is a typed client for the object servers at one node, for the
// requests of an action's commit, which name every object of the action the
// node holds (see PrepareReq). A reply answers each item in item order.
type Server struct {
	Client rpc.Client
	Node   transport.Addr
}

// Prepare sends phase one.
func (s Server) Prepare(ctx context.Context, req PrepareReq) (PrepareResp, error) {
	resp, err := rpc.Invoke[PrepareReq, PrepareResp](ctx, s.Client, s.Node, ServiceName, MethodPrepare, req)
	if err == nil && len(resp.Votes) != len(req.Items) {
		err = fmt.Errorf("object: %s answered %d prepare items with %d votes", s.Node, len(req.Items), len(resp.Votes))
	}
	return resp, err
}

// Commit sends phase two of a committed action.
func (s Server) Commit(ctx context.Context, req EndReq) (EndResp, error) {
	return s.end(ctx, MethodCommit, req)
}

// Abort sends phase two of an aborted action.
func (s Server) Abort(ctx context.Context, req EndReq) (EndResp, error) {
	return s.end(ctx, MethodAbort, req)
}

func (s Server) end(ctx context.Context, method string, req EndReq) (EndResp, error) {
	resp, err := rpc.Invoke[EndReq, EndResp](ctx, s.Client, s.Node, ServiceName, method, req)
	if err == nil && len(resp.Results) != len(req.Items) {
		err = fmt.Errorf("object: %s answered %d %s items with %d results", s.Node, len(req.Items), method, len(resp.Results))
	}
	return resp, err
}
