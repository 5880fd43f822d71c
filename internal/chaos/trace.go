package chaos

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// callTrace is the network a WorkloadReadOnlyRegister schedule over the
// in-memory transport runs on: that transport, keeping each database
// message and each object-server invoke and prepare with its reply as they
// pass, for the I8 breadcrumbs (runner.breadcrumbs). It keeps the bytes and
// decodes nothing until a violation asks, so a run that breaks nothing pays
// one lock and one append per call.
type callTrace struct {
	*transport.Mem
	mu    sync.Mutex
	calls []tracedCall
}

// tracedCall is one call the trace kept: the request, and the reply frame
// or the error the caller got.
type tracedCall struct {
	req   transport.Request
	reply []byte
	err   error
}

// Call implements transport.Network.
func (t *callTrace) Call(ctx context.Context, req transport.Request) ([]byte, error) {
	reply, err := t.Mem.Call(ctx, req)
	if req.Service == core.ServiceName || req.Service == object.ServiceName && (req.Method == object.MethodInvoke || req.Method == object.MethodPrepare) {
		t.mu.Lock()
		t.calls = append(t.calls, tracedCall{req, reply, err})
		t.mu.Unlock()
	}
	return reply, err
}

// decodeReply decodes a traced reply frame — a status byte, then the
// record — or says why there is none.
func decodeReply[T rpc.Wire[T]](c tracedCall, v *T) error {
	if c.err != nil {
		return c.err
	}
	if len(c.reply) == 0 {
		return fmt.Errorf("empty reply")
	}
	if err := rpc.Decode(c.reply[1:], v); err != nil {
		return fmt.Errorf("error reply")
	}
	return nil
}

// tracedAction is what the trace holds of one action's dealings with one
// object.
type tracedAction struct {
	tx     string
	client transport.Addr
	// bind is what the client's last bind of the object read before the
	// action's first invoke there: a writer's Bind, a reader's Select.
	bind string
	// invokes are the action's invokes of the object, in order.
	invokes []string
	// committedTo is the St view a carried phase one or a Prepare named.
	committedTo []transport.Addr
	// result is the last answered invoke's result, which an Apply's record
	// matches by (runner.breadcrumbs).
	result string
	failed bool
}

// breadcrumbs renders, for object obj, every committed or uncertain action
// the trace saw invoke it, in the order of their first invokes: the client,
// what its bind read — the candidates the database selected from Sv by the
// use lists, the hosts it counted there, and the St view — the server each
// invoke ran at with the committed version it ran on (InvokeResp.Seq) and
// its result, and the St view the action committed to. An action is
// matched to the runner's record by its ID, or, for an Apply, whose ID the
// client does not see, by client and the value its invoke returned; an
// uncertain Apply matches the client's failed invokes of the object.
func (r *runner) breadcrumbs(obj int) string {
	if r.trace == nil {
		return "(not traced)"
	}
	r.trace.mu.Lock()
	calls := append([]tracedCall(nil), r.trace.calls...)
	r.trace.mu.Unlock()
	r.mu.Lock()
	ops := append([]opRec(nil), r.ops...)
	r.mu.Unlock()

	id := r.w.Objects[obj]
	name := id.String()
	type bindKey struct {
		client transport.Addr
		reader bool
	}
	lastBind := make(map[bindKey]string)
	var order []*tracedAction
	byTx := make(map[string]*tracedAction)
	for _, c := range calls {
		switch {
		case c.req.Service == core.ServiceName:
			var req core.BatchReq
			if rpc.Decode(c.req.Payload, &req) != nil {
				continue
			}
			var resp core.BatchResp
			rerr := decodeReply(c, &resp)
			var parts []string
			reader := false
			for i, op := range req.Ops {
				if op.UID != id {
					continue
				}
				var res core.OpResult
				if rerr == nil {
					res = resp.Results[i]
				}
				switch op.Kind {
				case core.OpBind:
					parts = append(parts, fmt.Sprintf("Bind candidates %v counted %v", res.Nodes, res.Hosts))
				case core.OpSelect:
					parts, reader = append(parts, fmt.Sprintf("Select candidates %v", res.Nodes)), true
				case core.OpGetServer:
					parts = append(parts, fmt.Sprintf("GetServer Sv %v use %v", res.Nodes, res.Use))
				case core.OpGetView:
					parts = append(parts, fmt.Sprintf("GetView St %v", res.Nodes))
				}
			}
			if len(parts) == 0 {
				continue
			}
			if rerr != nil {
				parts = append(parts, fmt.Sprintf("(%v)", rerr))
			}
			lastBind[bindKey{c.req.From, reader}] = strings.Join(parts, ", ")
		case c.req.Method == object.MethodInvoke:
			var req object.InvokeReq
			if rpc.Decode(c.req.Payload, &req) != nil || req.UID != name || req.Action == "" {
				continue
			}
			a := byTx[req.Action]
			if a == nil {
				a = &tracedAction{tx: req.Action, client: c.req.From, bind: lastBind[bindKey{c.req.From, req.Method == "get"}]}
				byTx[req.Action] = a
				order = append(order, a)
			}
			if req.Carry != object.CarryNone {
				a.committedTo = req.StNodes
			}
			var resp object.InvokeResp
			if err := decodeReply(c, &resp); err != nil {
				a.invokes = append(a.invokes, fmt.Sprintf("%s %q at %s: %v", req.Method, req.Args, c.req.To, err))
				a.failed = true
				continue
			}
			a.result = string(resp.Result)
			a.invokes = append(a.invokes, fmt.Sprintf("%s %q at %s: seq %d, result %q, carried %d", req.Method, req.Args, c.req.To, resp.Seq, resp.Result, resp.Carried))
		case c.req.Method == object.MethodPrepare:
			var req object.PrepareReq
			if rpc.Decode(c.req.Payload, &req) != nil {
				continue
			}
			for _, it := range req.Items {
				if a := byTx[req.Action]; a != nil && it.UID == name {
					a.committedTo = it.StNodes
				}
			}
		}
	}

	class := make(map[*tracedAction]outcomeClass)
	for _, op := range ops {
		if op.obj != obj && !(r.pairObject(obj) && r.pairObject(op.obj)) {
			continue
		}
		if op.tx != "" {
			if a := byTx[op.tx]; a != nil {
				class[a] = op.class
			}
			continue
		}
		for _, a := range order {
			if _, done := class[a]; done || a.client != op.client {
				continue
			}
			if op.class == opCommitted && a.result == fmt.Sprint(op.val) || op.class == opUncertain && a.failed {
				class[a] = op.class
				break
			}
		}
	}
	var b strings.Builder
	for _, a := range order {
		c, ok := class[a]
		if !ok || c == opAborted {
			continue
		}
		kind := "committed"
		if c == opUncertain {
			kind = "uncertain"
		}
		fmt.Fprintf(&b, "\n    %s %s %s; bind: %s; committed to St %v", a.tx, a.client, kind, a.bind, a.committedTo)
		for _, inv := range a.invokes {
			fmt.Fprintf(&b, "\n      %s", inv)
		}
	}
	if b.Len() == 0 {
		return "(none)"
	}
	return b.String()
}
