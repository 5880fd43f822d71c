package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

// TCPMux is a Network implementation over real loopback sockets with ONE
// multiplexed connection per (from, to) node pair. Calls are pipelined:
// each request frame carries a caller-assigned ID, the peer answers frames
// in whatever order its handlers finish, and a per-connection reader
// goroutine demultiplexes replies to the waiting callers. Concurrent calls
// to the same node never block head-of-line behind one another, and the
// socket count is capped at one per node pair.
//
// Frames are length-prefixed (big-endian u32) so a torn write can never be
// half-executed: a request either arrives whole or the connection dies
// before the handler runs. A frame costs at most one write and one read. It
// is encoded, prefix and body, straight into its connection's muxOutbox
// (requests on the client side, replies on the server side); a sender that
// finds the outbox idle flushes it with one write, one that finds a flush
// in progress leaves its frame for the flusher's next write. A write is
// bounded by CallTimeout and, when the flusher is a caller, by that call's
// own deadline, past which the caller stops flushing. The bound costs a
// socket deadline only when the write would block: each batch is first
// written without waiting, and only what the socket would not take goes
// out under a write deadline, disarmed when it returns. Both read
// loops read through a per-connection buffer, so a frame and whatever is
// pipelined behind it arrive in one read. The server runs handlers on
// parked per-endpoint workers and spawns one only when none is idle: a slow
// call never stalls the calls behind it, and a request does not pay for a
// fresh goroutine's stack growth. Connection-state rules:
//
//   - A decode error or short read on the reply stream, or a failed write,
//     poisons the connection: the socket is closed and the next call dials
//     fresh (framing state is unrecoverable after a torn frame). Every call
//     whose request was wholly written may have executed and fails with
//     ErrReplyLost.
//   - A request is retried, once and on a fresh connection, only if the
//     failed write reported fewer bytes than the offset of the request's
//     last byte in its batch, or it was still queued: torn or never sent,
//     it cannot have executed.
//   - A context cancellation or per-call timeout does NOT poison the
//     connection. The caller abandons its pending slot; the late reply is
//     dropped by the demux when it arrives — the framing keeps byte-stream
//     state independent of any one call.
type TCPMux struct {
	// CallTimeout bounds each call when the caller's context carries no (or
	// a later) deadline: the call fails at the earlier of ctx's deadline and
	// now+CallTimeout. Without it a peer that accepts the connection and
	// then hangs mid-reply would pin the calling goroutine forever. Zero
	// selects DefaultCallTimeout; set it before issuing calls.
	CallTimeout time.Duration
	// MaxPending caps the in-flight calls per connection, and the frames
	// waiting behind a write in progress: a call that would exceed it
	// fast-fails with ErrOverloaded instead of growing the pending-reply map
	// or the outbox without bound. Zero selects DefaultMaxPending; the
	// field must be set before the first call.
	MaxPending int

	mu        sync.RWMutex
	listeners map[Addr]*muxEndpoint
	closed    bool

	connMu sync.Mutex
	conns  map[[2]Addr]*muxConn

	// calls is the free list of callers' parking slots (getCall), the
	// most recently used last. A slot is some 450 bytes, so the 256 it
	// keeps hold about 115 KiB; calls in flight past them make their own.
	callsMu sync.Mutex
	calls   []*muxCall

	// The monotonic counts behind Stats and Counters.
	dials, poisoned, requestFrames, replyFrames, writes, reads metrics.Counter

	// mangleReply, when set (tests only), rewrites a server-side reply
	// frame body (without its length prefix) before it is queued; returning
	// nil makes the server drop the connection instead — a torn frame.
	mangleReply func(body []byte) []byte
	// tearWrite, when set (tests only), sees every batch about to be
	// written; a return of n >= 0 writes only the first n bytes and fails
	// the write — a torn batch.
	tearWrite func(batch []byte) int
}

// MuxStats is a snapshot of a TCPMux's monotonic counters: fresh client
// dials, client connections poisoned (each once, whatever killed it: a
// broken stream, a failed write, KillConns, Unregister or Close), the write
// and read calls issued on sockets (both sides of every connection) and the
// frames those writes carried — frames ÷ writes is how much the outboxes
// coalesce.
type MuxStats struct {
	Dials, Poisoned, RequestFrames, ReplyFrames, Writes, Reads int64
}

// Stats returns the current counter values.
func (t *TCPMux) Stats() MuxStats {
	return MuxStats{t.dials.Value(), t.poisoned.Value(), t.requestFrames.Value(), t.replyFrames.Value(), t.writes.Value(), t.reads.Value()}
}

// Counters returns the live counters behind Stats by name, for a metrics
// registry to attach.
func (t *TCPMux) Counters() map[string]*metrics.Counter {
	return map[string]*metrics.Counter{
		"dials": &t.dials, "poisoned": &t.poisoned,
		"request_frames": &t.requestFrames, "reply_frames": &t.replyFrames,
		"writes": &t.writes, "reads": &t.reads,
	}
}

func (t *TCPMux) callTimeout() time.Duration {
	if t.CallTimeout > 0 {
		return t.CallTimeout
	}
	return DefaultCallTimeout
}

var _ Network = (*TCPMux)(nil)

// maxMuxFrame bounds a frame body; a length prefix beyond it poisons the
// connection instead of attempting a giant allocation.
const maxMuxFrame = 1 << 26

// muxHandlerGrace pads the propagated per-call deadline on the server
// side, guaranteeing the caller always times out strictly before the
// handler's context expires. See the frame-format comment above.
const muxHandlerGrace = 500 * time.Millisecond

// maxMuxDeadline clamps the propagated deadline: a larger value can only
// come from a corrupt or overflowed field.
const maxMuxDeadline = 24 * time.Hour

// muxWorkerIdle is the interval a parked server worker must see pass
// without work before it exits.
const muxWorkerIdle = 10 * time.Second

// DefaultCallTimeout is the per-call deadline applied when neither
// TCPMux.CallTimeout nor the context bounds the call. Generous on purpose:
// it exists to turn "hangs forever" into "fails eventually", not to race
// legitimate slow operations (long lock waits ride mux calls too).
const DefaultCallTimeout = 30 * time.Second

// DefaultMaxPending is the per-connection in-flight call cap when
// TCPMux.MaxPending is zero. Far above any healthy working set — the cap
// is a backstop against unbounded pending-map growth when a server stops
// draining, not a tuning knob.
const DefaultMaxPending = 1024

// NewTCPMux returns an empty multiplexed TCP network.
func NewTCPMux() *TCPMux {
	return &TCPMux{
		listeners: make(map[Addr]*muxEndpoint),
		conns:     make(map[[2]Addr]*muxConn),
	}
}

// --- frame codecs ---

// Request frame body: id, deadline (milliseconds from receipt, 0 = none),
// from, to, service, method, payload.
// Reply frame body: id, status byte (0 ok / 1 app error), payload, error
// string. Strings and byte fields are uvarint-length-prefixed, matching the
// rpc binary codec idiom.
//
// The deadline travels in the frame because the server must bound its
// handlers itself: unlike the in-memory transport, where the handler runs
// inside the caller's goroutine and unwinds when the caller's context
// expires, a mux handler runs on the server with no native link to the
// caller. Without the propagated deadline, a handler parked on a lock whose
// holder died with a crashed node would wait forever — and endpoint
// shutdown, which waits for handlers to drain, would wedge behind it.
//
// The server enforces the deadline plus a grace margin (muxHandlerGrace),
// never the raw value: the bound exists to stop unbounded parking, not to
// race the caller. The caller's own timer must always fire first, so that
// a call whose outcome the server is still deciding surfaces as the
// caller's ambiguous timeout (the Figure-1 uncertainty), never as a
// definite-looking "context expired" application error from a handler that
// aborted partway through applying state. The server's clock starts at
// frame receipt, so its expiry is always at least the grace margin after
// the caller has stopped listening.
//
// The bound is armed only when a handler waits on it (muxHandlerCtx): its
// context reports the deadline and the error from the clock and the
// endpoint's state, and becomes the context.WithDeadline child of the
// endpoint's context it stands for when Done or Value is first called.

func muxAppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func muxAppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendMuxRequest(dst []byte, id, deadlineMillis uint64, req Request) []byte {
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, deadlineMillis)
	dst = muxAppendString(dst, string(req.From))
	dst = muxAppendString(dst, string(req.To))
	dst = muxAppendString(dst, req.Service)
	dst = muxAppendString(dst, req.Method)
	return muxAppendBytes(dst, req.Payload)
}

func appendMuxReply(dst []byte, id uint64, payload []byte, errMsg string, hasErr bool) []byte {
	dst = binary.AppendUvarint(dst, id)
	if hasErr {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = muxAppendBytes(dst, payload)
	return muxAppendString(dst, errMsg)
}

var errMuxFrame = errors.New("transport: malformed mux frame")

// muxParser is a failure-recording cursor over a frame body.
type muxParser struct {
	b  []byte
	ok bool
}

func (p *muxParser) uvarint() uint64 {
	if !p.ok {
		return 0
	}
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.ok = false
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *muxParser) bytes() []byte {
	n := p.uvarint()
	if !p.ok || n > uint64(len(p.b)) {
		p.ok = false
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

func (p *muxParser) done() bool { return p.ok && len(p.b) == 0 }

// parseMuxRequest decodes a request frame body. The four routing strings
// go through names (nil: plain allocation); the payload aliases body.
func parseMuxRequest(body []byte, names muxInterner) (id, deadlineMillis uint64, req Request, err error) {
	p := muxParser{b: body, ok: true}
	id = p.uvarint()
	deadlineMillis = p.uvarint()
	req.From = Addr(names.str(p.bytes()))
	req.To = Addr(names.str(p.bytes()))
	req.Service = names.str(p.bytes())
	req.Method = names.str(p.bytes())
	req.Payload = p.bytes()
	if !p.done() {
		return 0, 0, Request{}, errMuxFrame
	}
	if len(req.Payload) == 0 {
		req.Payload = nil
	}
	return id, deadlineMillis, req, nil
}

func parseMuxReply(body []byte) (id uint64, res muxResult, err error) {
	p := muxParser{b: body, ok: true}
	id = p.uvarint()
	status := p.bytes1()
	res.payload = p.bytes()
	res.errMsg = string(p.bytes())
	if !p.done() || status > 1 {
		return 0, muxResult{}, errMuxFrame
	}
	res.hasErr = status == 1
	if len(res.payload) == 0 {
		res.payload = nil
	}
	return id, res, nil
}

func (p *muxParser) bytes1() byte {
	if !p.ok || len(p.b) < 1 {
		p.ok = false
		return 0xff
	}
	b := p.b[0]
	p.b = p.b[1:]
	return b
}

// --- client side ---

// muxResult is what a parked caller receives: a decoded reply or, if the
// connection died under the call, connErr — with unsent set when the
// request was not wholly written and so cannot have executed.
type muxResult struct {
	payload []byte
	errMsg  string
	hasErr  bool
	connErr error
	unsent  bool
}

// muxCall is a caller's parking slot: the channel its result arrives on
// (capacity 1; sent to at most once per call, under the connection's mu, as
// the call leaves the pending map) and the timer bounding its wait. Slots
// are reused, and go back with the channel empty and the timer stopped.
type muxCall struct {
	ch    chan muxResult
	timer *time.Timer
}

// getCall takes a parking slot from the free list, or makes one. The list
// is not a sync.Pool: a Pool is emptied by every garbage collection, and
// under the race detector it drops one Put in four, so a call's allocations
// would depend on both.
func (t *TCPMux) getCall() *muxCall {
	t.callsMu.Lock()
	if n := len(t.calls); n > 0 {
		c := t.calls[n-1]
		t.calls = t.calls[:n-1]
		t.callsMu.Unlock()
		return c
	}
	t.callsMu.Unlock()
	tm := time.NewTimer(time.Hour)
	tm.Stop()
	return &muxCall{ch: make(chan muxResult, 1), timer: tm}
}

// putCall returns a slot to the free list, or drops it when the list is full.
func (t *TCPMux) putCall(c *muxCall) {
	t.callsMu.Lock()
	if len(t.calls) < 256 {
		t.calls = append(t.calls, c)
	}
	t.callsMu.Unlock()
}

// muxConn is one client-side multiplexed connection: the outbox its
// requests leave through plus the pending demux state, also guarded by the
// outbox's mu. The reader goroutine owns the read half. IDs are assigned as
// frames are queued, so the k-th frame written carries ID k and a request
// has been wholly written exactly when its ID <= sent.
type muxConn struct {
	muxOutbox
	maxPending int
	nextID     uint64
	pending    map[uint64]*muxCall
}

func newMuxConn(t *TCPMux, conn net.Conn) *muxConn {
	mc := &muxConn{
		muxOutbox:  muxOutbox{conn: conn, mux: t, frames: &t.requestFrames},
		maxPending: t.MaxPending,
		pending:    make(map[uint64]*muxCall),
	}
	if mc.maxPending <= 0 {
		mc.maxPending = DefaultMaxPending
	}
	mc.client = mc
	mc.raw.init(conn)
	go mc.readLoop()
	return mc
}

func (mc *muxConn) broken() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err != nil
}

// send registers c under a fresh request ID and queues the request frame,
// flushing the outbox — for no longer than the call's own deadline — unless
// a flush is already in progress. It fails, with nothing queued, if the
// connection is already poisoned, or with ErrOverloaded when it already
// carries maxPending in-flight calls or as many frames wait behind a stuck
// write (their callers may have given up; the frames still hold memory). A
// write failure is not reported here: it poisons the connection, and every
// call it concerns learns its fate on its channel.
func (mc *muxConn) send(c *muxCall, deadline time.Time, deadlineMillis uint64, req Request) (uint64, error) {
	mc.mu.Lock()
	if err := mc.err; err != nil {
		mc.mu.Unlock()
		return 0, err
	}
	if len(mc.pending) >= mc.maxPending || len(mc.ends) >= mc.maxPending {
		mc.mu.Unlock()
		return 0, ErrOverloaded
	}
	mc.nextID++
	id := mc.nextID
	mc.pending[id] = c
	start := mc.beginFrame()
	mc.buf = appendMuxRequest(mc.buf, id, deadlineMillis, req)
	mc.endFrame(start)
	mc.flush(deadline)
	return id, nil
}

// unregister abandons a pending call (ctx cancel or timeout). The late
// reply, if it ever arrives, is dropped by the demux. The connection stays
// healthy — framing state is per-frame, not per-call. A result that beat
// the caller here is already in the channel and is drained.
func (mc *muxConn) unregister(id uint64, c *muxCall) {
	mc.mu.Lock()
	_, parked := mc.pending[id]
	delete(mc.pending, id)
	mc.mu.Unlock()
	if !parked {
		<-c.ch
	}
}

// poison marks the connection dead, closes the socket and settles every
// pending call whose fate is known: lost if its request was wholly written,
// unsent if not. While a write is in flight the calls beyond sent are left
// to its flusher, which poisons again when the write returns. Idempotent,
// and counted once.
func (mc *muxConn) poison(err error) {
	mc.mu.Lock()
	mc.fail(err)
	for id, c := range mc.pending {
		if id > mc.sent && mc.flushing {
			continue
		}
		c.ch <- muxResult{connErr: mc.err, unsent: id > mc.sent}
		delete(mc.pending, id)
	}
	mc.mu.Unlock()
	mc.conn.Close()
}

// readLoop demultiplexes reply frames to their waiting callers until the
// stream breaks; any read or parse failure poisons the connection.
func (mc *muxConn) readLoop() {
	br := newMuxReader(mc.conn, &mc.mux.reads)
	for {
		body, err := readMuxFrame(br)
		if err != nil {
			mc.poison(fmt.Errorf("transport: mux conn broken: %w", err))
			return
		}
		id, res, err := parseMuxReply(body)
		if err != nil {
			mc.poison(err)
			return
		}
		mc.mu.Lock()
		if c, ok := mc.pending[id]; ok {
			delete(mc.pending, id)
			c.ch <- res
		}
		mc.mu.Unlock()
		// An unknown ID is a reply whose caller gave up; drop it.
	}
}

// getMuxConn returns the live connection for the pair, dialing if absent or
// poisoned. reused reports whether an existing connection was returned.
func (t *TCPMux) getMuxConn(ctx context.Context, from, to Addr, ep *muxEndpoint) (mc *muxConn, reused bool, err error) {
	key := [2]Addr{from, to}
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if cur := t.conns[key]; cur != nil && !cur.broken() {
		return cur, true, nil
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", ep.ln.Addr().String())
	if err != nil {
		return nil, false, err
	}
	t.dials.Inc()
	mc = newMuxConn(t, conn)
	t.conns[key] = mc
	return mc, false, nil
}

// KillConns force-closes every established client connection dialed FROM
// from TO to. It is a fault-injection hook for tests: in-flight calls on
// the pair fail, and the next call transparently redials, arriving at the
// peer over a brand-new stream — the scenario that retried, deduplicated
// protocol messages must survive.
func (t *TCPMux) KillConns(from, to Addr) {
	t.dropConns(func(key [2]Addr) bool { return key == [2]Addr{from, to} }, errors.New("transport: connection killed"))
}

// dropConns forgets and poisons every client connection whose (from, to)
// pair matches.
func (t *TCPMux) dropConns(match func(pair [2]Addr) bool, err error) {
	t.connMu.Lock()
	var victims []*muxConn
	for key, mc := range t.conns {
		if match(key) {
			victims = append(victims, mc)
			delete(t.conns, key)
		}
	}
	t.connMu.Unlock()
	for _, mc := range victims {
		mc.poison(err)
	}
}

// Call implements Network. The request leaves as one frame on the pair's
// shared connection and the caller parks on its slot; a request the
// connection died without wholly writing is retried once on a fresh one
// (the length prefix guarantees a torn request never executed).
func (t *TCPMux) Call(ctx context.Context, req Request) ([]byte, error) {
	t.mu.RLock()
	ep, ok := t.listeners[req.To]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrUnreachable)
	}
	now := time.Now()
	deadline := now.Add(t.callTimeout())
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	wait := deadline.Sub(now)
	if wait <= 0 {
		// Already expired: the request must not be sent at all.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, context.DeadlineExceeded)
	}
	millis := max(uint64(wait/time.Millisecond), 1)
	var done <-chan struct{}
	if hc, ok := ctx.(*muxHandlerCtx); ok {
		done = hc.doneUnarmed() // the timer below already ends the call at hc's deadline
	} else {
		done = ctx.Done()
	}
	c := t.getCall()
	defer t.putCall(c) // every return leaves c.ch empty and c.timer stopped
	for attempt := 0; ; attempt++ {
		mc, reused, err := t.getMuxConn(ctx, req.From, req.To, ep)
		if err != nil {
			return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrUnreachable)
		}
		id, err := mc.send(c, deadline, millis, req)
		if err != nil {
			if errors.Is(err, ErrOverloaded) {
				// Backpressure, not sickness: the connection is healthy but
				// saturated. Fast-fail WITHOUT discarding it — poisoning
				// would fail the very calls creating the load, and a redial
				// would resell the capacity the cap just refused.
				return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrOverloaded)
			}
			// Poisoned between lookup and send; a fresh dial will work.
			if attempt == 0 {
				continue
			}
			return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrUnreachable)
		}
		c.timer.Reset(time.Until(deadline)) // send may have spent some of it flushing
		select {
		case res := <-c.ch:
			c.timer.Stop()
			switch {
			case res.unsent && reused && attempt == 0:
				// The connection went stale between calls; the server cannot
				// have executed a torn or unsent request, so one retry is safe.
				continue
			case res.unsent:
				return nil, fmt.Errorf("%s -> %s: write: %w", req.From, req.To, res.connErr)
			case res.connErr != nil:
				// Connection poisoned while we were parked: the reply is gone
				// and the outcome unobservable (the Figure-1 ambiguity).
				return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrReplyLost)
			case res.hasErr:
				return res.payload, errors.New(res.errMsg)
			}
			return res.payload, nil
		case <-done:
			c.timer.Stop()
			mc.unregister(id, c)
			return nil, ctx.Err()
		case <-c.timer.C:
			mc.unregister(id, c)
			return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, context.DeadlineExceeded)
		}
	}
}

// --- server side ---

type muxEndpoint struct {
	ln      net.Listener
	handler Handler
	mux     *TCPMux
	done    chan struct{}
	wg      sync.WaitGroup
	// work hands a request to a parked worker: unbuffered, so a send
	// succeeds only if one is waiting.
	work chan muxWork

	// baseCtx parents every handler invocation; cancel fires on stop so
	// draining the endpoint unwinds parked handlers instead of waiting
	// behind them.
	baseCtx context.Context
	cancel  context.CancelFunc

	servingMu sync.Mutex
	serving   map[net.Conn]struct{}
}

// Register implements Network: it opens a loopback listener for addr and
// serves mux frames on it until Unregister or Close. An address registered
// already is unregistered first, client connections into it included — a
// cached connection to the old listener would take the next request and
// lose its reply.
func (t *TCPMux) Register(addr Addr, h Handler) {
	t.Unregister(addr)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if old, ok := t.listeners[addr]; ok { // a concurrent Register got in between
		old.stop()
		delete(t.listeners, addr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("transport: tcp listen: %v", err))
	}
	ep := &muxEndpoint{ln: ln, handler: h, mux: t, done: make(chan struct{}), work: make(chan muxWork)}
	ep.baseCtx, ep.cancel = context.WithCancel(context.Background())
	t.listeners[addr] = ep
	ep.wg.Add(1)
	go ep.serve()
}

// Unregister implements Network. Client connections into the address are
// dropped along with the listener, so in-flight calls fail fast instead of
// waiting out their deadlines against a dead endpoint.
func (t *TCPMux) Unregister(addr Addr) {
	t.mu.Lock()
	ep, ok := t.listeners[addr]
	if ok {
		delete(t.listeners, addr)
	}
	t.mu.Unlock()
	if !ok {
		return
	}
	ep.stop()
	t.dropConns(func(key [2]Addr) bool { return key[1] == addr }, fmt.Errorf("%s: %w", addr, ErrUnreachable))
}

// Close shuts down all listeners and connections.
func (t *TCPMux) Close() {
	t.mu.Lock()
	eps := make([]*muxEndpoint, 0, len(t.listeners))
	for _, ep := range t.listeners {
		eps = append(eps, ep)
	}
	t.listeners = make(map[Addr]*muxEndpoint)
	t.closed = true
	t.mu.Unlock()
	for _, ep := range eps {
		ep.stop()
	}
	t.dropConns(func([2]Addr) bool { return true }, errors.New("transport: network closed"))
}

func (ep *muxEndpoint) stop() {
	close(ep.done)
	ep.cancel()
	ep.ln.Close()
	ep.servingMu.Lock()
	for conn := range ep.serving {
		conn.Close()
	}
	ep.servingMu.Unlock()
	ep.wg.Wait()
}

// track records an accepted connection for stop to close. It reports false
// when the endpoint is already stopping: stop closes done before it takes
// servingMu, so a connection accepted in the instant before the listener
// closed is either in the map when stop walks it or refused here — never
// left open with its handler parked in a read that stop then waits on.
func (ep *muxEndpoint) track(conn net.Conn) bool {
	ep.servingMu.Lock()
	defer ep.servingMu.Unlock()
	select {
	case <-ep.done:
		return false
	default:
	}
	if ep.serving == nil {
		ep.serving = make(map[net.Conn]struct{})
	}
	ep.serving[conn] = struct{}{}
	return true
}

func (ep *muxEndpoint) untrack(conn net.Conn) {
	ep.servingMu.Lock()
	delete(ep.serving, conn)
	ep.servingMu.Unlock()
}

func (ep *muxEndpoint) serve() {
	defer ep.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return
		}
		if !ep.track(conn) {
			conn.Close()
			return
		}
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			defer ep.untrack(conn)
			defer conn.Close()
			ep.handleConn(conn)
		}()
	}
}

// muxWork is a request on its way to a worker, with its reply's outbox.
type muxWork struct {
	out                *muxOutbox
	id, deadlineMillis uint64
	req                Request
}

// handleConn reads request frames and hands each to a worker, so a slow
// call does not stall the calls pipelined behind it. Replies leave in
// completion order through the connection's outbox. A malformed frame
// closes the connection: the stream offset is untrustworthy after it.
func (ep *muxEndpoint) handleConn(conn net.Conn) {
	out := &muxOutbox{conn: conn, mux: ep.mux, frames: &ep.mux.replyFrames}
	out.raw.init(conn)
	br := newMuxReader(conn, &ep.mux.reads)
	names := make(muxInterner)
	for {
		body, err := readMuxFrame(br)
		if err != nil {
			return
		}
		id, deadlineMillis, req, err := parseMuxRequest(body, names)
		if err != nil {
			return
		}
		w := muxWork{out, id, deadlineMillis, req}
		select {
		case ep.work <- w:
		default:
			ep.wg.Add(1)
			go ep.worker(w)
		}
	}
}

// worker runs first, then whatever the endpoint's read loops hand it, on a
// stack already grown to fit the handlers. It exits when the endpoint stops
// or a whole idle interval passes without work.
func (ep *muxEndpoint) worker(first muxWork) {
	defer ep.wg.Done()
	ep.handle(first)
	idle := time.NewTicker(muxWorkerIdle)
	defer idle.Stop()
	for worked := true; ; {
		select {
		case w := <-ep.work:
			ep.handle(w)
			worked = true
		case <-ep.done:
			return
		case <-idle.C:
			if !worked {
				return
			}
			worked = false
		}
	}
}

// muxHandlerCtx is a handler's context: the endpoint's baseCtx bounded by
// the propagated deadline plus muxHandlerGrace. It arms that bound lazily.
// Deadline and Err answer from the deadline and the endpoint's state alone,
// and no timer or child of baseCtx exists until something waits on the
// context — Done, Value (and so any context derived from it) or an Err that
// is no longer nil. From then on it is the context.WithDeadline child it
// stands for; Value resolves to that child, so contexts derived from it
// join its cancellation tree instead of each spawning a goroutine to watch
// it. A mux call made under it waits on baseCtx and its own timer instead
// (doneUnarmed), so the server→store calls of a request arm nothing.
type muxHandlerCtx struct {
	base     context.Context // the endpoint's baseCtx
	deadline time.Time

	mu     sync.Mutex
	armed  context.Context // nil until armed; muxReleased once the handler returned unarmed
	cancel context.CancelFunc
}

// muxReleased is what a handler's context turns into when its handler
// returns before anything armed it: cancelled, like the released child.
var muxReleased = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

func (c *muxHandlerCtx) arm() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		c.armed, c.cancel = context.WithDeadline(c.base, c.deadline)
	}
	return c.armed
}

// release ends the context as its handler returns.
func (c *muxHandlerCtx) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		c.armed = muxReleased
	} else {
		c.cancel()
	}
}

// doneUnarmed is the channel a mux call under c waits on, with its own
// timer bounding it by c's deadline: c's own Done once armed, and until
// then the endpoint's stop.
func (c *muxHandlerCtx) doneUnarmed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed != nil {
		return c.armed.Done()
	}
	return c.base.Done()
}

func (c *muxHandlerCtx) Deadline() (time.Time, bool) { return c.deadline, true }
func (c *muxHandlerCtx) Done() <-chan struct{}       { return c.arm().Done() }
func (c *muxHandlerCtx) Value(key any) any           { return c.arm().Value(key) }

// Err is nil, without arming, while the endpoint runs and the deadline is
// ahead; otherwise it arms, so that the error, once reported, stays.
func (c *muxHandlerCtx) Err() error {
	c.mu.Lock()
	armed := c.armed
	c.mu.Unlock()
	if armed == nil && c.base.Err() == nil && time.Until(c.deadline) > 0 {
		return nil
	}
	return c.arm().Err()
}

// handle runs the handler for one request and queues its reply.
func (ep *muxEndpoint) handle(w muxWork) {
	ctx := ep.baseCtx
	if w.deadlineMillis > 0 {
		bound := time.Duration(min(w.deadlineMillis, uint64(maxMuxDeadline/time.Millisecond))) * time.Millisecond
		hc := &muxHandlerCtx{base: ep.baseCtx, deadline: time.Now().Add(bound + muxHandlerGrace)}
		defer hc.release()
		ctx = hc
	}
	payload, herr := ep.handler(ctx, w.req)
	var errMsg string
	if herr != nil {
		errMsg = herr.Error()
	}
	// A stopped endpoint must never answer. stop() cancels baseCtx
	// mid-handler, so the result above may reflect a half-cancelled
	// execution (e.g. "context canceled" from an outbound call whose
	// side effects stand); racing that reply onto the dying
	// connection would hand the client a definite-looking error for
	// an ambiguous outcome. stop() closes ep.done before it cancels,
	// so a handler unwound by the cancellation always observes done
	// closed here and the client sees connection death (ErrReplyLost,
	// correctly ambiguous) instead.
	select {
	case <-ep.done:
		return
	default:
	}
	o := w.out
	o.mu.Lock()
	if o.err == nil {
		start := o.beginFrame()
		o.buf = appendMuxReply(o.buf, w.id, payload, errMsg, herr != nil)
		if mangle := ep.mux.mangleReply; mangle == nil {
			o.endFrame(start)
		} else if body := mangle(o.buf[start+muxPrefixLen:]); body != nil {
			o.buf = append(o.buf[:start+muxPrefixLen], body...)
			o.endFrame(start)
		} else {
			o.buf = o.buf[:start] // torn frame injection: drop the link instead
			o.fail(errors.New("transport: reply torn (injected)"))
		}
	}
	o.flush(time.Time{})
}
