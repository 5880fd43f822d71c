package object

import (
	"context"

	"repro/internal/transport"
)

// The commit phases for one object alone: requests naming this object only,
// the shape Server sends for an object alone at its server.

// Prepare runs the server's commit-time state copy of the object to stNodes
// (phase one); the error is the request's or the object's refusal. onePhase
// has the server commit it too, and release the action, with checkpointTo as
// Commit's (see PrepareReq.OnePhase).
func (r ServerRef) Prepare(ctx context.Context, action string, stNodes []transport.Addr, onePhase bool, checkpointTo ...transport.Addr) (Vote, error) {
	item := PrepareItem{UID: r.name(), StNodes: stNodes}
	if len(checkpointTo) > 0 {
		item.CheckpointTo = checkpointTo
	}
	resp, err := Server{Client: r.Client, Node: r.Node}.Prepare(ctx, PrepareReq{Action: action, Items: []PrepareItem{item}, OnePhase: onePhase})
	if err != nil {
		return Vote{}, err
	}
	return resp.Votes[0], resp.Votes[0].Err()
}

// Commit finishes the action at this server for this object alone (phase
// two). checkpointTo, if non-empty, asks the server to push its committed
// state to those cohort nodes afterwards.
func (r ServerRef) Commit(ctx context.Context, action string, checkpointTo ...transport.Addr) (EndResult, error) {
	return r.end(ctx, action, Server{Client: r.Client, Node: r.Node}.Commit, checkpointTo)
}

// Abort undoes the action at this server for this object alone.
func (r ServerRef) Abort(ctx context.Context, action string) (EndResult, error) {
	return r.end(ctx, action, Server{Client: r.Client, Node: r.Node}.Abort, nil)
}

// end sends a phase-two request naming this object alone.
func (r ServerRef) end(ctx context.Context, action string, send func(context.Context, EndReq) (EndResp, error), checkpointTo []transport.Addr) (EndResult, error) {
	resp, err := send(ctx, EndReq{Action: action, Items: []EndItem{{UID: r.name(), CheckpointTo: checkpointTo}}})
	if err != nil {
		return EndResult{}, err
	}
	return resp.Results[0], resp.Results[0].Err()
}
