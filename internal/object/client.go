package object

import (
	"context"

	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/uid"
)

// ServerRef is a typed client for the object server of one object at one
// node. Invoke is its one request for work under an action; the others end
// actions, checkpoint, passivate and report.
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
		req.Class, req.StNodes, req.Failover = r.Class, addrsToStrings(r.StNodes), r.Failover
	}
	return rpc.Invoke[InvokeReq, InvokeResp](ctx, r.Client, r.Node, ServiceName, MethodInvoke, req)
}

// Prepare runs the server's commit-time state copy to stNodes (phase one).
// onePhase has the server commit it too, and release the action, with
// checkpointTo as Commit's (see PrepareReq.OnePhase).
func (r ServerRef) Prepare(ctx context.Context, action string, stNodes []transport.Addr, onePhase bool, checkpointTo ...transport.Addr) (PrepareResp, error) {
	req := PrepareReq{UID: r.name(), Action: action, StNodes: addrsToStrings(stNodes), OnePhase: onePhase}
	if len(checkpointTo) > 0 {
		req.CheckpointTo = addrsToStrings(checkpointTo)
	}
	return rpc.Invoke[PrepareReq, PrepareResp](ctx, r.Client, r.Node, ServiceName, MethodPrepare, req)
}

// Commit finishes the action at this server (phase two). checkpointTo, if
// non-empty, asks the server to push its committed state to those cohort
// nodes afterwards.
func (r ServerRef) Commit(ctx context.Context, action string, checkpointTo ...transport.Addr) (EndResp, error) {
	return rpc.Invoke[EndReq, EndResp](ctx, r.Client, r.Node, ServiceName, MethodCommit, EndReq{
		UID:          r.name(),
		Action:       action,
		CheckpointTo: addrsToStrings(checkpointTo),
	})
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

// Abort undoes the action at this server.
func (r ServerRef) Abort(ctx context.Context, action string) (EndResp, error) {
	return rpc.Invoke[EndReq, EndResp](ctx, r.Client, r.Node, ServiceName, MethodAbort, EndReq{UID: r.name(), Action: action})
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

func addrsToStrings(in []transport.Addr) []string {
	out := make([]string, len(in))
	for i, a := range in {
		out[i] = string(a)
	}
	return out
}
