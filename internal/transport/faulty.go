package transport

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Faulty wraps any inner Network with a programmable Faults plan. Its Call
// is the repository's one fault pipeline: partitions and request drops
// before delivery, observer hooks, reorder holds, injected delays,
// duplicate deliveries, and reply drops after the handler has executed.
// Mem is Faulty over the in-process carrier; the chaos harness wraps the
// mux transport in it to run the same seeded nemesis schedules over real
// sockets.
//
// The plan is armed from the first rule, hook or partition installed in it
// until Clear. While it is not, Call is the inner call and two atomic
// loads; an installer arms the plan before it returns, so the next call to
// start runs the pipeline, and a call already past its request half still
// meets a rule installed meanwhile on its reply half. The seeded source is
// drawn from only when a probabilistic rule matches a request, which an
// empty plan never does: skipping the pipeline draws what walking it empty
// drew — nothing — and every seed replays as it did.
type Faulty struct {
	inner  Network
	faults *Faults
}

var _ Network = (*Faulty)(nil)

// NewFaulty wraps inner with plan (a fresh empty plan when nil).
func NewFaulty(inner Network, plan *Faults) *Faulty {
	if plan == nil {
		plan = NewFaults()
	}
	return &Faulty{inner: inner, faults: plan}
}

// Faults returns the wrapper's fault plan.
func (f *Faulty) Faults() *Faults { return f.faults }

// Inner returns the wrapped network (for transport-specific teardown).
func (f *Faulty) Inner() Network { return f.inner }

// Register implements Network.
func (f *Faulty) Register(addr Addr, h Handler) { f.inner.Register(addr, h) }

// Unregister implements Network.
func (f *Faulty) Unregister(addr Addr) { f.inner.Unregister(addr) }

// Call implements Network: the fault pipeline runs around the inner
// network's delivery. The plan's seeded source is consulted in this order
// and no other, so a seeded schedule draws its coin flips identically on
// every carrier.
func (f *Faulty) Call(ctx context.Context, req Request) ([]byte, error) {
	var overtaken chan struct{}
	var delay time.Duration
	if f.faults.armed.Load() {
		if f.faults.partitioned(req.From, req.To) {
			return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrUnreachable)
		}
		if f.faults.shouldDropRequest(req) {
			return nil, fmt.Errorf("%s -> %s %s.%s: %w", req.From, req.To, req.Service, req.Method, ErrRequestLost)
		}
		f.faults.runRequestHooks(req)
		var err error
		if overtaken, err = f.faults.holdForReorder(ctx, req); err != nil {
			return nil, err
		}
		delay = f.faults.requestDelay(req)
	}
	var resp []byte
	err := sleepCtx(ctx, delay)
	if err == nil {
		resp, err = f.inner.Call(ctx, req)
	}
	if overtaken != nil {
		// This request overtook a parked one, which may go only now: behind
		// this delivery, not racing it.
		close(overtaken)
	}
	if !f.faults.armed.Load() {
		return resp, err
	}
	if err != nil && (errors.Is(err, ErrUnreachable) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
		// No reply exists: the carrier never delivered the request, or the
		// caller stopped waiting for it. There is no execution to duplicate
		// and no reply to hold, observe or drop.
		return nil, err
	}
	if f.faults.shouldDuplicate(req) {
		// A duplicated network message: the request is delivered a second
		// time; the caller sees the first delivery's reply. Idempotent
		// handlers (the only sanctioned targets) make the second delivery a
		// no-op.
		_, _ = f.inner.Call(ctx, req)
	}
	// The handler HAS executed by now, so a caller whose deadline dies in a
	// gray-failure hold is in exactly the Figure-1 ambiguity — effects
	// durable, outcome unobserved.
	if derr := sleepCtx(ctx, f.faults.replyDelay(req)); derr != nil {
		return nil, derr
	}
	f.faults.runReplyHooks(req)
	if f.faults.shouldDropReply(req) {
		return nil, fmt.Errorf("%s -> %s %s.%s: %w", req.From, req.To, req.Service, req.Method, ErrReplyLost)
	}
	return resp, err
}
