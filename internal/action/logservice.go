package action

import (
	"context"
	"strings"

	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// LogServiceName is the RPC service name for outcome-log lookups.
const LogServiceName = "outcomelog"

// LogMethodLookup is the lookup method name.
const LogMethodLookup = "Lookup"

// LookupReq asks for the outcome of a transaction.
type LookupReq struct{ Tx string }

// LookupResp carries an outcome.
type LookupResp struct{ Outcome store.Outcome }

// RegisterLogService exposes log lookups over RPC so that recovering store
// nodes can resolve their pending intentions (presumed abort). Pass the
// coordinator's *Manager (not its raw Log): the manager's Lookup answers
// OutcomeUnavailable for transactions whose commit processing is still
// in flight, so a restart racing a live commit cannot mistake the
// not-yet-written record for an affirmative abort.
func RegisterLogService(srv *rpc.Server, log store.OutcomeLog) {
	srv.Handle(LogServiceName, LogMethodLookup, rpc.Method(func(ctx context.Context, from transport.Addr, req LookupReq) (LookupResp, error) {
		return LookupResp{Outcome: log.Lookup(req.Tx)}, nil
	}))
}

// RemoteLog queries a log on another node. It implements store.OutcomeLog.
// Lookup failures are reported as OutcomeUnavailable — NOT as unknown: an
// unreachable coordinator may well hold a commit record, so the recovering
// participant must keep its intention pending rather than presume abort.
// Only an affirmative "no record" answer from the coordinator licenses the
// presumption.
type RemoteLog struct {
	Client rpc.Client
	Node   transport.Addr
}

var _ store.OutcomeLog = RemoteLog{}

// Lookup implements store.OutcomeLog.
func (r RemoteLog) Lookup(tx string) store.Outcome {
	resp, err := rpc.Invoke[LookupReq, LookupResp](context.Background(), r.Client, r.Node, LogServiceName, LogMethodLookup, LookupReq{Tx: tx})
	if err != nil {
		return store.OutcomeUnavailable
	}
	return resp.Outcome
}

// TxOrigin extracts the coordinator origin from an action identifier as
// minted by a Manager: the UID's origin. Everything from the first '/' on
// is cut first: recovery managers mint under "node/role" origins and run
// no outcome-log service, and the cut leaves such an ID with no origin, so
// a lookup presumes abort instead of waiting on an address nobody serves.
// It reports false for identifiers in no recognisable form.
func TxOrigin(tx string) (string, bool) {
	if i := strings.IndexByte(tx, '/'); i >= 0 {
		tx = tx[:i]
	}
	u, err := uid.Parse(tx)
	if err != nil || u.Origin == "" {
		return "", false
	}
	return u.Origin, true
}

// OriginLog is a store.OutcomeLog that answers each lookup by querying the
// outcome-log RPC service at the transaction's own coordinator, identified
// by the transaction ID's origin. It is the recovery-side half of the
// paper's presumed-abort commit protocol: a restarting participant with a
// prepared-but-undecided intention asks the coordinator for the recorded
// outcome. "No record" — the coordinator's affirmative answer, or an
// origin that names no coordinator at all — means abort: a transaction is
// only acknowledged as committed after its commit record is written. An
// UNREACHABLE coordinator is different: it may hold a commit record we
// cannot read right now, so the lookup reports OutcomeUnavailable and the
// intention stays pending until a later retry gets an answer.
type OriginLog struct {
	// Client issues the lookup RPCs (conventionally the recovering node's
	// own client).
	Client rpc.Client
	// Resolve maps a transaction origin to the coordinator's address. A nil
	// Resolve uses the origin verbatim as the address.
	Resolve func(origin string) (transport.Addr, bool)
}

var _ store.OutcomeLog = OriginLog{}

// Lookup implements store.OutcomeLog.
func (l OriginLog) Lookup(tx string) store.Outcome {
	origin, ok := TxOrigin(tx)
	if !ok {
		return store.OutcomeUnknown
	}
	addr := transport.Addr(origin)
	if l.Resolve != nil {
		if addr, ok = l.Resolve(origin); !ok {
			return store.OutcomeUnknown
		}
	}
	return RemoteLog{Client: l.Client, Node: addr}.Lookup(tx)
}
