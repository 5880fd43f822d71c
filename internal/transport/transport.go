// Package transport provides the message-passing substrate for the
// simulated distributed system.
//
// The paper (§2.1) assumes fail-silent nodes connected by a local-area
// network, with operation invocation performed via RPC (§2.2). This package
// supplies the RPC carrier with exactly the failure modes the paper's
// protocols must tolerate:
//
//   - an unreachable callee (node crashed, unregistered, or partitioned),
//   - a lost request (the callee never executes the operation), and
//   - a lost reply (the callee DID execute the operation but the caller
//     cannot tell — the scenario of the paper's Figure 1).
//
// Two carriers are provided: an in-process one (reached through Mem) and
// TCPMux (mux.go), real loopback sockets with one multiplexed connection
// per node pair, demonstrating that the protocol stack is
// transport-agnostic. Fault injection is not a carrier's job: Faulty
// (faulty.go) runs the one fault pipeline around whichever carrier it
// wraps, and Mem is exactly that wrapper over the in-process carrier — the
// deterministic network all experiments use.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Addr names an endpoint, conventionally the node name (e.g. "alpha").
type Addr string

// Request is one RPC request. Service and Method select the handler-side
// dispatch; Payload is an opaque encoded argument record.
type Request struct {
	From    Addr
	To      Addr
	Service string
	Method  string
	Payload []byte
}

// Handler processes a request at the callee and returns an encoded reply.
type Handler func(ctx context.Context, req Request) ([]byte, error)

// Network is the carrier abstraction: endpoints register a handler under
// an address; Call performs a synchronous RPC.
type Network interface {
	// Register installs h as the handler for addr. Registering an address
	// twice replaces the handler.
	Register(addr Addr, h Handler)
	// Unregister removes the handler for addr; subsequent calls to it fail
	// with ErrUnreachable. Unregistering an unknown address is a no-op.
	Unregister(addr Addr)
	// Call sends req and waits for the reply or a failure.
	Call(ctx context.Context, req Request) ([]byte, error)
}

// Sentinel errors. Callers distinguish "operation certainly did not happen"
// (ErrUnreachable, ErrRequestLost) from "operation may have happened"
// (ErrReplyLost, context deadline) exactly as the paper's commit protocols
// must.
var (
	// ErrUnreachable reports that the destination has no live endpoint:
	// the node is crashed, never registered, or partitioned away.
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrRequestLost reports that the request was dropped before delivery;
	// the remote operation did not execute.
	ErrRequestLost = errors.New("transport: request lost")
	// ErrReplyLost reports that the remote operation executed but its reply
	// was dropped — the caller cannot observe the outcome.
	ErrReplyLost = errors.New("transport: reply lost")
	// ErrOverloaded reports client-side backpressure: the connection to
	// the destination already carries its maximum number of in-flight
	// calls. The request was never sent — the operation certainly did not
	// happen — and the caller should back off and retry rather than pile
	// more load onto the saturated link.
	ErrOverloaded = errors.New("transport: connection overloaded")
)

// FaultRule inspects a request and decides whether a fault fires for it.
type FaultRule func(req Request) bool

// Faults is a programmable fault plan, applied by Faulty (and so by Mem)
// around every call. All methods are safe for concurrent use.
//
// Two rule families coexist. The deterministic rules (DropRequests,
// DropReplies, Partition) fire whenever they match, exactly as the
// hand-built experiment scenarios need. The probabilistic rules
// (DropRequestsP, DelayRequests, DuplicateRequests, ReorderRequests, …)
// additionally flip a coin drawn from a seeded source, which is what a
// randomized chaos schedule needs: the installed plan is fully determined
// by the seed, and the coin flips are reproducible in message-arrival
// order. Observer hooks (OnRequest/OnReply) let a nemesis react to traffic
// — e.g. crash a node the moment its prepare acknowledgement leaves —
// without perturbing it.
type Faults struct {
	// armed is set, under mu, by whatever installs a rule, hook or
	// partition, and reset by Clear; Faulty.Call reads it without mu.
	armed        atomic.Bool
	mu           sync.Mutex
	rng          *rand.Rand
	dropRequests []*faultEntry
	dropReplies  []*faultEntry
	delays       []*faultEntry
	replyDelays  []*faultEntry
	duplicates   []*faultEntry
	reorders     []*faultEntry
	reqHooks     []*faultEntry
	replyHooks   []*faultEntry
	partitions   map[[2]Addr]bool
	// healHook, when set, observes Heal(a, b) calls and Clear (as two empty
	// addresses). The simulation layer uses it to reset circuit breakers
	// when the fault plan heals, so a breaker opened by an injected fault
	// does not outlive the fault itself.
	healHook func(a, b Addr)
}

type faultEntry struct {
	rule      FaultRule
	remaining int     // -1 = unlimited
	p         float64 // firing probability in [0, 1]; deterministic rules use 1
	delay     time.Duration
	hook      func(Request)
	// parked is the release channel of a request held back by a reorder
	// rule, nil when none is waiting. Closing it releases the request.
	parked chan struct{}
}

// NewFaults returns an empty fault plan. Probabilistic rules draw from a
// source seeded with 0; use NewFaultsSeeded or Reseed for chaos schedules.
func NewFaults() *Faults {
	return NewFaultsSeeded(0)
}

// NewFaultsSeeded returns an empty fault plan whose probabilistic rules
// draw from a source seeded with seed.
func NewFaultsSeeded(seed int64) *Faults {
	return &Faults{
		rng:        rand.New(rand.NewSource(seed)),
		partitions: make(map[[2]Addr]bool),
	}
}

// Reseed resets the source behind the probabilistic rules, so a chaos
// schedule replayed from the same seed draws the same coin flips (in
// message-arrival order).
func (f *Faults) Reseed(seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = rand.New(rand.NewSource(seed))
}

// DropRequests installs a rule that drops matching requests. count limits
// how many times the rule fires; count < 0 means unlimited.
func (f *Faults) DropRequests(count int, rule FaultRule) {
	f.addEntry(&f.dropRequests, &faultEntry{rule: rule, remaining: count, p: 1})
}

// DropRequestsP installs a rule that drops matching requests with
// probability p per match. count < 0 means unlimited.
func (f *Faults) DropRequestsP(p float64, count int, rule FaultRule) {
	f.addEntry(&f.dropRequests, &faultEntry{rule: rule, remaining: count, p: p})
}

// DropReplies installs a rule that drops the reply of matching requests
// after the handler has executed. count < 0 means unlimited.
func (f *Faults) DropReplies(count int, rule FaultRule) {
	f.addEntry(&f.dropReplies, &faultEntry{rule: rule, remaining: count, p: 1})
}

// DropRepliesP installs a rule that drops the reply of matching requests
// with probability p per match, after the handler has executed. count < 0
// means unlimited.
func (f *Faults) DropRepliesP(p float64, count int, rule FaultRule) {
	f.addEntry(&f.dropReplies, &faultEntry{rule: rule, remaining: count, p: p})
}

// DelayRequests installs a rule that adds an extra delay, drawn uniformly
// from [0, max), to the request leg of matching requests with probability
// p per match. count < 0 means unlimited.
func (f *Faults) DelayRequests(p float64, count int, max time.Duration, rule FaultRule) {
	f.addEntry(&f.delays, &faultEntry{rule: rule, remaining: count, p: p, delay: max})
}

// DelayReplies installs a rule that holds the reply of matching requests
// back for exactly hold, with probability p per match, AFTER the handler
// has executed. count < 0 means unlimited. Unlike DelayRequests the hold
// is deterministic, not drawn from [0, hold): the rule models a gray
// failure — a node that accepts connections and executes operations but
// is too sick to answer in time — where the defining property is that the
// caller's deadline expires while the operation's side effects stand.
func (f *Faults) DelayReplies(p float64, count int, hold time.Duration, rule FaultRule) {
	f.addEntry(&f.replyDelays, &faultEntry{rule: rule, remaining: count, p: p, delay: hold})
}

// DuplicateRequests installs a rule that delivers matching requests twice
// — the handler executes a second time after the first delivery, modelling
// a duplicated network message — with probability p per match. The caller
// receives the first reply. Target only methods that are idempotent by
// contract (store prepare/commit/abort, sequenced group deliveries);
// duplicating a non-idempotent method is the fault being tested for, not a
// harness feature. count < 0 means unlimited.
func (f *Faults) DuplicateRequests(p float64, count int, rule FaultRule) {
	f.addEntry(&f.duplicates, &faultEntry{rule: rule, remaining: count, p: p})
}

// ReorderRequests installs a rule that reorders matching requests: a
// matching request is parked until the next matching request has been
// delivered ahead of it or until hold elapses, whichever is first. With concurrent
// traffic this swaps delivery order pairwise. count < 0 means unlimited;
// count is consumed per parked request.
func (f *Faults) ReorderRequests(p float64, count int, hold time.Duration, rule FaultRule) {
	f.addEntry(&f.reorders, &faultEntry{rule: rule, remaining: count, p: p, delay: hold})
}

// OnRequest installs an observer hook invoked (outside the fault plan's
// lock) for matching requests before delivery. count < 0 means unlimited.
func (f *Faults) OnRequest(count int, rule FaultRule, hook func(Request)) {
	f.addEntry(&f.reqHooks, &faultEntry{rule: rule, remaining: count, p: 1, hook: hook})
}

// OnReply installs an observer hook invoked (outside the fault plan's
// lock) for matching requests after the handler has executed — i.e. the
// callee's side effects are durable at that point — and before the reply
// is delivered or dropped. count < 0 means unlimited.
func (f *Faults) OnReply(count int, rule FaultRule, hook func(Request)) {
	f.addEntry(&f.replyHooks, &faultEntry{rule: rule, remaining: count, p: 1, hook: hook})
}

func (f *Faults) addEntry(list *[]*faultEntry, e *faultEntry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	*list = append(*list, e)
	f.armed.Store(true)
}

// Partition blocks all traffic between a and b (both directions) until
// Heal is called for the pair.
func (f *Faults) Partition(a, b Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partitions[pairKey(a, b)] = true
	f.armed.Store(true)
}

// Heal removes a partition between a and b.
func (f *Faults) Heal(a, b Addr) {
	f.mu.Lock()
	delete(f.partitions, pairKey(a, b))
	hook := f.healHook
	f.mu.Unlock()
	if hook != nil {
		hook(a, b)
	}
}

// SetHealHook installs fn, invoked (outside the plan's lock) after every
// Heal(a, b) with that pair and after Clear with two empty addresses. A
// nil fn removes the hook.
func (f *Faults) SetHealHook(fn func(a, b Addr)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.healHook = fn
}

// Clear removes all rules, hooks and partitions (the heal hook stays —
// it belongs to the cluster wiring, not to any one fault plan). Requests
// parked by a reorder rule are released. The plan is disarmed: calls skip
// the pipeline again until the next rule, hook or partition re-arms it.
func (f *Faults) Clear() {
	f.mu.Lock()
	for _, e := range f.reorders {
		if e.parked != nil {
			close(e.parked)
			e.parked = nil
		}
	}
	f.dropRequests = nil
	f.dropReplies = nil
	f.delays = nil
	f.replyDelays = nil
	f.duplicates = nil
	f.reorders = nil
	f.reqHooks = nil
	f.replyHooks = nil
	f.partitions = make(map[[2]Addr]bool)
	f.armed.Store(false)
	hook := f.healHook
	f.mu.Unlock()
	if hook != nil {
		hook("", "")
	}
}

func pairKey(a, b Addr) [2]Addr {
	if a > b {
		a, b = b, a
	}
	return [2]Addr{a, b}
}

func (f *Faults) partitioned(a, b Addr) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.partitions[pairKey(a, b)]
}

// fires is the one place a rule is tested: e fires for req when it has
// uses left, its rule matches and its coin comes up, and firing consumes
// one use. The coin is drawn from the seeded source only on a match (and
// only for p < 1), so the draws happen in message-arrival order. f.mu must
// be held.
func (f *Faults) fires(e *faultEntry, req Request) bool {
	if e.remaining == 0 || !e.rule(req) {
		return false
	}
	if e.p < 1 && (e.p <= 0 || f.rng.Float64() >= e.p) {
		return false
	}
	if e.remaining > 0 {
		e.remaining--
	}
	return true
}

// anyFires reports whether some entry of list fires for req; entries after
// the first that fires are left untouched.
func (f *Faults) anyFires(list *[]*faultEntry, req Request) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range *list {
		if f.fires(e, req) {
			return true
		}
	}
	return false
}

func (f *Faults) shouldDropRequest(req Request) bool { return f.anyFires(&f.dropRequests, req) }
func (f *Faults) shouldDropReply(req Request) bool   { return f.anyFires(&f.dropReplies, req) }
func (f *Faults) shouldDuplicate(req Request) bool   { return f.anyFires(&f.duplicates, req) }

// requestDelay returns the extra delay the firing delay rules add to req's
// request leg, each drawn uniformly from [0, max) off the seeded source.
func (f *Faults) requestDelay(req Request) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	var d time.Duration
	for _, e := range f.delays {
		if f.fires(e, req) && e.delay > 0 {
			d += time.Duration(f.rng.Int63n(int64(e.delay)))
		}
	}
	return d
}

// replyDelay returns the extra hold the firing reply-delay rules add to
// req's reply leg. The holds are deterministic (see DelayReplies); only
// the p < 1 coin flips draw from the seeded source.
func (f *Faults) replyDelay(req Request) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	var d time.Duration
	for _, e := range f.replyDelays {
		if f.fires(e, req) {
			d += e.delay
		}
	}
	return d
}

// holdForReorder parks req if a reorder rule fires and no request is
// already parked on that rule; the parked request resumes once the next
// matching request has overtaken it, when hold elapses, when the plan is
// cleared, or when ctx dies. A second matching request proceeds immediately
// and is handed the parked one's release channel as overtaken: the caller
// closes it after delivering the request, so the parked request cannot race
// its overtaker to the handler.
func (f *Faults) holdForReorder(ctx context.Context, req Request) (overtaken chan struct{}, err error) {
	f.mu.Lock()
	var e *faultEntry
	for _, cand := range f.reorders {
		if cand.parked != nil && cand.rule(req) {
			// Overtake: this request goes through and releases the parked one
			// behind it. Releasing needs only a rule match, not remaining
			// budget — the budget was spent parking.
			overtaken, cand.parked = cand.parked, nil
			f.mu.Unlock()
			return overtaken, nil
		}
		if f.fires(cand, req) {
			e = cand
			break
		}
	}
	if e == nil {
		f.mu.Unlock()
		return nil, nil
	}
	release := make(chan struct{})
	e.parked = release
	hold := e.delay
	f.mu.Unlock()

	t := time.NewTimer(hold)
	defer t.Stop()
	select {
	case <-release:
	case <-t.C:
	case <-ctx.Done():
	}
	f.mu.Lock()
	if e.parked == release {
		e.parked = nil
	}
	f.mu.Unlock()
	return nil, ctx.Err()
}

// runHooks invokes the hooks of list that fire for req. They are collected
// under the lock and run outside it, so a hook may safely call back into
// the fault plan or crash a node.
func (f *Faults) runHooks(list *[]*faultEntry, req Request) {
	f.mu.Lock()
	var hooks []func(Request)
	for _, e := range *list {
		if f.fires(e, req) {
			hooks = append(hooks, e.hook)
		}
	}
	f.mu.Unlock()
	for _, h := range hooks {
		h(req)
	}
}

func (f *Faults) runRequestHooks(req Request) { f.runHooks(&f.reqHooks, req) }
func (f *Faults) runReplyHooks(req Request)   { f.runHooks(&f.replyHooks, req) }

// MemOptions configure a Mem network.
type MemOptions struct {
	// BaseLatency is added to every message leg (request and reply).
	BaseLatency time.Duration
	// Jitter, if positive, adds a uniformly distributed extra delay in
	// [0, Jitter) per leg, drawn from Seed for reproducibility.
	Jitter time.Duration
	// Seed seeds the jitter source; ignored when Jitter is zero.
	Seed int64
}

// Mem is the in-memory Network with programmable faults and latency: the
// Faulty wrapper over a bare in-process carrier. It is safe for concurrent
// use.
type Mem struct{ Faulty }

var _ Network = (*Mem)(nil)

// NewMem returns an in-memory network. faults may be nil, in which case a
// fresh empty fault plan, seeded from opts.Seed, is created (retrievable
// via Faults).
func NewMem(opts MemOptions, faults *Faults) *Mem {
	if faults == nil {
		faults = NewFaultsSeeded(opts.Seed)
	}
	carrier := &memCarrier{
		opts:     opts,
		handlers: make(map[Addr]Handler),
		rng:      rand.New(rand.NewSource(opts.Seed)),
	}
	return &Mem{Faulty{inner: carrier, faults: faults}}
}

// memCarrier is the in-process carrier under Mem: the handler table and
// the per-leg latency, nothing else. It knows no faults.
type memCarrier struct {
	opts MemOptions

	mu       sync.RWMutex
	handlers map[Addr]Handler

	rngMu sync.Mutex
	rng   *rand.Rand
}

// Register implements Network.
func (c *memCarrier) Register(addr Addr, h Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handlers[addr] = h
}

// Unregister implements Network.
func (c *memCarrier) Unregister(addr Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.handlers, addr)
}

func (c *memCarrier) lookup(addr Addr) (Handler, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.handlers[addr]
	return h, ok
}

func (c *memCarrier) delay() time.Duration {
	d := c.opts.BaseLatency
	if c.opts.Jitter > 0 {
		c.rngMu.Lock()
		d += time.Duration(c.rng.Int63n(int64(c.opts.Jitter)))
		c.rngMu.Unlock()
	}
	return d
}

// Call implements Network: request leg, handler, reply leg. The handler
// executes on the caller's goroutine after the request leg; a caller whose
// context dies on the reply leg has therefore still had its operation
// executed.
func (c *memCarrier) Call(ctx context.Context, req Request) ([]byte, error) {
	if err := sleepCtx(ctx, c.delay()); err != nil {
		return nil, err
	}
	h, ok := c.lookup(req.To)
	if !ok {
		return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrUnreachable)
	}
	resp, err := h(ctx, req)
	if derr := sleepCtx(ctx, c.delay()); derr != nil {
		return nil, derr
	}
	return resp, err
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// To returns a FaultRule matching requests destined for addr.
func To(addr Addr) FaultRule {
	return func(req Request) bool { return req.To == addr }
}

// Between returns a FaultRule matching requests from one specific sender to
// one specific receiver.
func Between(from, to Addr) FaultRule {
	return func(req Request) bool { return req.From == from && req.To == to }
}

// ToService returns a FaultRule matching requests for a service at an addr.
func ToService(addr Addr, service string) FaultRule {
	return func(req Request) bool { return req.To == addr && req.Service == service }
}

// ToMethod returns a FaultRule matching requests for one method of a
// service at an addr — the granularity per-method probabilistic chaos
// rules are written at.
func ToMethod(addr Addr, service, method string) FaultRule {
	return func(req Request) bool {
		return req.To == addr && req.Service == service && req.Method == method
	}
}
