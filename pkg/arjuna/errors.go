package arjuna

import (
	"errors"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/lockmgr"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// The package's typed error taxonomy. Every error returned by System,
// Client, Txn and Object is classified against these sentinels, so callers
// branch with errors.Is rather than matching message strings or rpc codes:
//
//	_, err := cl.Atomic(ctx, body)
//	switch {
//	case errors.Is(err, arjuna.ErrLockRefused):   // contention — retry later
//	case errors.Is(err, arjuna.ErrUnknownObject): // no such UID registered
//	case errors.Is(err, arjuna.ErrNoServers):     // no functioning server
//	}
//
// The underlying cause (e.g. the *rpc.AppError carrying the wire-level
// code) stays on the chain and remains reachable via errors.As.
var (
	// ErrAborted reports that an atomic action ended by aborting: the
	// closure returned an error, a bind or invoke failed, or two-phase
	// commit could not prepare. All effects of the action were undone. An
	// in-doubt commit (ErrOutcomeUnknown) is NOT an abort and never carries
	// this sentinel.
	ErrAborted = errors.New("arjuna: action aborted")
	// ErrOutcomeUnknown reports an action whose commit ended in doubt: the
	// one-phase commit round may have been applied at the store, but its
	// reply was lost and no participant could be reached to resolve the
	// doubt (the paper's Figure-1 ambiguity). The action is neither known
	// committed nor known aborted, so the error carries no ErrAborted and
	// Atomic never retries it — a retry could apply the effects twice. The
	// next activation of the object observes the true state.
	ErrOutcomeUnknown = errors.New("arjuna: action outcome unknown")
	// ErrLockRefused reports a refused database lock acquire or promotion
	// (the paper's §4.2.1 conflict); the action aborted and may be retried.
	ErrLockRefused = errors.New("arjuna: lock refused")
	// ErrOverloaded reports overload backpressure, and has one source: a
	// multiplexed connection (transport.NewTCPMux) already had its cap of
	// calls awaiting replies, so the call was refused before it was sent
	// (transport.ErrOverloaded). The action aborted; Atomic treats it as
	// retryable with jittered exponential backoff, shedding load instead
	// of queueing deeper behind a slow peer.
	ErrOverloaded = errors.New("arjuna: overloaded")
	// ErrUnknownObject reports an operation on a UID the group view
	// database has no entry for.
	ErrUnknownObject = errors.New("arjuna: unknown object")
	// ErrNoServers reports that no functioning server could be bound or
	// remained bound (§3.2) — the action must abort.
	ErrNoServers = errors.New("arjuna: no functioning servers")
	// ErrNotQuiescent reports an Insert attempted while the object's use
	// lists are non-empty (§4.1.3).
	ErrNotQuiescent = errors.New("arjuna: object not quiescent")
	// ErrUnreachable reports a node that could not be contacted at the
	// transport level (crashed, unregistered, or partitioned).
	ErrUnreachable = errors.New("arjuna: node unreachable")
	// ErrPeerUnavailable reports a call refused locally because the peer's
	// circuit breaker is open: recent calls to it failed, so the client
	// skipped the network round instead of burning another timeout. It is
	// a sub-case of ErrUnreachable (errors.Is matches both) with its own
	// identity so callers — and Atomic's retry policy — can tell "known
	// sick, degraded mode" from a fresh transport failure. The peer is
	// re-probed after a cooldown; recovery and partition heal close the
	// breaker immediately.
	ErrPeerUnavailable = errors.New("arjuna: peer unavailable (circuit breaker open)")
	// ErrUnknownMethod reports an invocation of a method the object's
	// class does not define.
	ErrUnknownMethod = errors.New("arjuna: unknown method")
	// ErrUnknownNode reports a node name the deployment does not contain.
	ErrUnknownNode = errors.New("arjuna: unknown node")
	// ErrLeaseStale reports a read the action can no longer vouch for: a
	// transaction mixing lease-served (or carried) reads with server-side
	// work found, at commit time, that what it read had been superseded,
	// invalidated or had expired — or a ClientReadOnly action going on to a
	// second object found its first moved to another shard since it bound
	// it. The action aborted; Atomic retries it, and the retry binds afresh
	// and re-reads through the servers (the stale cache entry is gone by
	// construction).
	ErrLeaseStale = errors.New("arjuna: leased read went stale before commit")
)

// taggedError glues a sentinel onto an underlying cause so that both
// errors.Is(err, sentinel) and errors.As against the cause's chain work.
type taggedError struct {
	tag   error
	cause error
}

func (e *taggedError) Error() string   { return e.tag.Error() + ": " + e.cause.Error() }
func (e *taggedError) Unwrap() []error { return []error{e.tag, e.cause} }

// tag attaches sentinel t to cause unless it is already on the chain.
func tag(t, cause error) error {
	if cause == nil {
		return t
	}
	if errors.Is(cause, t) {
		return cause
	}
	return &taggedError{tag: t, cause: cause}
}

// MapError classifies an error from the underlying protocol stack into the
// package's taxonomy, attaching the matching sentinel while preserving the
// original chain. Errors that already carry a sentinel, and errors that
// match no category, are returned unchanged.
func MapError(err error) error {
	if err == nil {
		return nil
	}
	// In doubt outranks every other category: whatever made the doubt
	// unresolvable (no servers, an open breaker) is on the chain too, and
	// classifying by it would file the action under a definite, even a
	// retryable, failure.
	if errors.Is(err, action.ErrOutcomeUnknown) {
		return tag(ErrOutcomeUnknown, err)
	}
	// A read-only action's first object was moved to another shard before the
	// action, going on to a second object, could pin it: what it read there
	// can no longer be vouched for, which is the class Atomic retries through
	// fresh binds. (A pin refused or unanswered keeps its own class, below.)
	if errors.Is(err, core.ErrPinStale) {
		return tag(ErrLeaseStale, err)
	}
	// A breaker fast-fail can sit below any of the aggregate categories
	// (e.g. ErrNoServers when every server's breaker is open), so the
	// sub-case sentinel is attached first, whatever else classifies.
	if errors.Is(err, rpc.ErrPeerUnavailable) {
		err = tag(ErrPeerUnavailable, err)
	}
	switch {
	case errors.Is(err, replica.ErrNoServers):
		return tag(ErrNoServers, err)
	case errors.Is(err, transport.ErrOverloaded):
		// The mux connection's pending-call cap: the one overload there is.
		return tag(ErrOverloaded, err)
	case errors.Is(err, transport.ErrUnreachable):
		// Breaker fast-fails land here too (a peerDownError unwraps to
		// transport.ErrUnreachable, so the exclusion paths below the
		// facade fire on them unchanged).
		return tag(ErrUnreachable, err)
	case errors.Is(err, lockmgr.ErrRefused):
		return tag(ErrLockRefused, err)
	}
	switch rpc.CodeOf(err) {
	case core.CodeLockRefused, rpc.CodeRefused:
		return tag(ErrLockRefused, err)
	case core.CodeUnknownObject, rpc.CodeNotFound:
		return tag(ErrUnknownObject, err)
	case core.CodeNotQuiescent:
		return tag(ErrNotQuiescent, err)
	case rpc.CodeNoSuchMethod:
		return tag(ErrUnknownMethod, err)
	}
	return err
}
