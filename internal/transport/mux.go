package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
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
// before the handler runs, which is what makes the single retry on a
// request-write failure safe. Connection-state rules:
//
//   - A decode error or short read on the reply stream poisons the
//     connection: all in-flight calls fail, the socket is closed, and the
//     next call dials fresh. Framing state is unrecoverable after a torn
//     frame.
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
	// MaxPending caps the in-flight calls per connection: a call that
	// would exceed it fast-fails with ErrOverloaded instead of growing the
	// pending-reply map without bound. Zero selects DefaultMaxPending; the
	// field must be set before the first call.
	MaxPending int

	mu        sync.RWMutex
	listeners map[Addr]*muxEndpoint
	closed    bool

	connMu sync.Mutex
	conns  map[[2]Addr]*muxConn

	// dials counts fresh client dials (test observability: "the next call
	// after a poisoned connection runs on a fresh dial").
	dials atomic.Int64

	// mangleReply, when set (tests only), rewrites a server-side reply
	// frame body before it is framed and written; returning nil makes the
	// server drop the connection instead of replying — a torn frame.
	mangleReply func(body []byte) []byte
}

var _ Network = (*TCPMux)(nil)

// maxMuxFrame bounds a frame body; a length prefix beyond it poisons the
// connection instead of attempting a giant allocation.
const maxMuxFrame = 1 << 26

// muxHandlerGrace pads the propagated per-call deadline on the server
// side, guaranteeing the caller always times out strictly before the
// handler's context expires. See the frame-format comment above.
const muxHandlerGrace = 500 * time.Millisecond

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

func (p *muxParser) str() string { return string(p.bytes()) }

func (p *muxParser) done() bool { return p.ok && len(p.b) == 0 }

func parseMuxRequest(body []byte) (id, deadlineMillis uint64, req Request, err error) {
	p := muxParser{b: body, ok: true}
	id = p.uvarint()
	deadlineMillis = p.uvarint()
	req.From = Addr(p.str())
	req.To = Addr(p.str())
	req.Service = p.str()
	req.Method = p.str()
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
	res.errMsg = p.str()
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

// writeFrame writes a length-prefixed frame to w.
func writeFrame(w net.Conn, body []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one length-prefixed frame body.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxMuxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame", errMuxFrame, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// --- client side ---

type muxResult struct {
	payload []byte
	errMsg  string
	hasErr  bool
}

// muxConn is one client-side multiplexed connection. The reader goroutine
// owns the read half; writers serialize on writeMu; pending demux state is
// guarded by mu. Every pending channel has capacity 1 and is touched
// exactly once under mu — delivered to or closed (poison), never both.
type muxConn struct {
	conn       net.Conn
	maxPending int
	writeMu    sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan muxResult
	err     error // non-nil once poisoned
}

func newMuxConn(conn net.Conn, maxPending int) *muxConn {
	if maxPending <= 0 {
		maxPending = DefaultMaxPending
	}
	mc := &muxConn{conn: conn, maxPending: maxPending, pending: make(map[uint64]chan muxResult)}
	go mc.readLoop()
	return mc
}

func (mc *muxConn) broken() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err != nil
}

// register allocates a request ID and its reply channel. It fails if the
// connection is already poisoned, or with ErrOverloaded when the
// connection already carries maxPending in-flight calls.
func (mc *muxConn) register() (uint64, chan muxResult, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.err != nil {
		return 0, nil, mc.err
	}
	if len(mc.pending) >= mc.maxPending {
		return 0, nil, ErrOverloaded
	}
	mc.nextID++
	id := mc.nextID
	ch := make(chan muxResult, 1)
	mc.pending[id] = ch
	return id, ch, nil
}

// unregister abandons a pending call (ctx cancel or timeout). The late
// reply, if it ever arrives, is dropped by the demux. The connection stays
// healthy — framing state is per-frame, not per-call.
func (mc *muxConn) unregister(id uint64) {
	mc.mu.Lock()
	delete(mc.pending, id)
	mc.mu.Unlock()
}

// poison marks the connection dead, fails every in-flight call and closes
// the socket. Idempotent.
func (mc *muxConn) poison(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	for id, ch := range mc.pending {
		close(ch)
		delete(mc.pending, id)
	}
	mc.mu.Unlock()
	mc.conn.Close()
}

// readLoop demultiplexes reply frames to their waiting callers until the
// stream breaks; any read or parse failure poisons the connection.
func (mc *muxConn) readLoop() {
	for {
		body, err := readFrame(mc.conn)
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
		ch, ok := mc.pending[id]
		if ok {
			delete(mc.pending, id)
			ch <- res // cap 1, never blocks
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
	t.dials.Add(1)
	mc = newMuxConn(conn, t.MaxPending)
	t.conns[key] = mc
	return mc, false, nil
}

// discardConn drops the pair's connection if it is still mc.
func (t *TCPMux) discardConn(from, to Addr, mc *muxConn, err error) {
	mc.poison(err)
	key := [2]Addr{from, to}
	t.connMu.Lock()
	if t.conns[key] == mc {
		delete(t.conns, key)
	}
	t.connMu.Unlock()
}

// KillConns force-closes every established client connection dialed FROM
// from TO to. It is a fault-injection hook for tests: in-flight calls on
// the pair fail, and the next call transparently redials, arriving at the
// peer over a brand-new stream — the scenario that retried, deduplicated
// protocol messages must survive.
func (t *TCPMux) KillConns(from, to Addr) {
	t.connMu.Lock()
	var victims []*muxConn
	for key, mc := range t.conns {
		if key[0] == from && key[1] == to {
			victims = append(victims, mc)
			delete(t.conns, key)
		}
	}
	t.connMu.Unlock()
	for _, mc := range victims {
		mc.poison(errors.New("transport: connection killed"))
	}
}

// Call implements Network. The request is written as one frame on the
// pair's shared connection and the caller parks on its reply channel; a
// request-write failure retries once on a fresh connection (the length
// prefix guarantees a torn request never executed).
func (t *TCPMux) Call(ctx context.Context, req Request) ([]byte, error) {
	t.mu.RLock()
	ep, ok := t.listeners[req.To]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrUnreachable)
	}
	callTimeout := t.CallTimeout
	if callTimeout <= 0 {
		callTimeout = DefaultCallTimeout
	}
	deadline := time.Now().Add(callTimeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	for attempt := 0; ; attempt++ {
		mc, reused, err := t.getMuxConn(ctx, req.From, req.To, ep)
		if err != nil {
			return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrUnreachable)
		}
		id, ch, err := mc.register()
		if err != nil {
			if errors.Is(err, ErrOverloaded) {
				// Backpressure, not sickness: the connection is healthy but
				// saturated. Fast-fail WITHOUT discarding it — poisoning
				// would fail the very calls creating the load, and a redial
				// would resell the capacity the cap just refused.
				return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrOverloaded)
			}
			// Poisoned between lookup and register; a fresh dial will work.
			t.discardConn(req.From, req.To, mc, err)
			if attempt == 0 {
				continue
			}
			return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrUnreachable)
		}
		millis := uint64(time.Until(deadline) / time.Millisecond)
		if millis == 0 {
			millis = 1
		}
		frame := appendMuxRequest(make([]byte, 0, 64+len(req.Payload)), id, millis, req)
		mc.writeMu.Lock()
		mc.conn.SetWriteDeadline(deadline)
		werr := writeFrame(mc.conn, frame)
		mc.writeMu.Unlock()
		if werr != nil {
			mc.unregister(id)
			t.discardConn(req.From, req.To, mc, fmt.Errorf("transport: mux write: %w", werr))
			if reused && attempt == 0 {
				// The connection went stale between calls; the server cannot
				// have executed a torn request, so one retry is safe.
				continue
			}
			return nil, fmt.Errorf("%s -> %s: write: %w", req.From, req.To, werr)
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case res, ok := <-ch:
			timer.Stop()
			if !ok {
				// Connection poisoned while we were parked: the reply is gone
				// and the outcome unobservable (the Figure-1 ambiguity).
				return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, ErrReplyLost)
			}
			if res.hasErr {
				return res.payload, errors.New(res.errMsg)
			}
			return res.payload, nil
		case <-ctx.Done():
			timer.Stop()
			mc.unregister(id)
			return nil, ctx.Err()
		case <-timer.C:
			mc.unregister(id)
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

	// baseCtx parents every handler invocation; cancel fires on stop so
	// draining the endpoint unwinds parked handlers instead of waiting
	// behind them.
	baseCtx context.Context
	cancel  context.CancelFunc

	servingMu sync.Mutex
	serving   map[net.Conn]struct{}
}

// Register implements Network: it opens a loopback listener for addr and
// serves mux frames on it until Unregister or Close.
func (t *TCPMux) Register(addr Addr, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if old, ok := t.listeners[addr]; ok {
		old.stop()
		delete(t.listeners, addr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("transport: tcp listen: %v", err))
	}
	ep := &muxEndpoint{ln: ln, handler: h, mux: t, done: make(chan struct{})}
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
	t.connMu.Lock()
	var victims []*muxConn
	for key, mc := range t.conns {
		if key[1] == addr {
			victims = append(victims, mc)
			delete(t.conns, key)
		}
	}
	t.connMu.Unlock()
	for _, mc := range victims {
		mc.poison(fmt.Errorf("%s: %w", addr, ErrUnreachable))
	}
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
	t.connMu.Lock()
	conns := t.conns
	t.conns = make(map[[2]Addr]*muxConn)
	t.connMu.Unlock()
	for _, mc := range conns {
		mc.poison(errors.New("transport: network closed"))
	}
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

func (ep *muxEndpoint) track(conn net.Conn) {
	ep.servingMu.Lock()
	if ep.serving == nil {
		ep.serving = make(map[net.Conn]struct{})
	}
	ep.serving[conn] = struct{}{}
	ep.servingMu.Unlock()
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
		ep.track(conn)
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			defer ep.untrack(conn)
			defer conn.Close()
			ep.handleConn(conn)
		}()
	}
}

// handleConn reads request frames and dispatches each to the handler on its
// own goroutine, so a slow call does not stall the calls pipelined behind
// it. Replies are written in completion order under a per-connection write
// lock. A malformed frame closes the connection: the stream offset is
// untrustworthy after it.
func (ep *muxEndpoint) handleConn(conn net.Conn) {
	var writeMu sync.Mutex
	var calls sync.WaitGroup
	defer calls.Wait()
	for {
		body, err := readFrame(conn)
		if err != nil {
			return
		}
		id, deadlineMillis, req, err := parseMuxRequest(body)
		if err != nil {
			return
		}
		calls.Add(1)
		ep.wg.Add(1)
		go func() {
			defer calls.Done()
			defer ep.wg.Done()
			ctx := ep.baseCtx
			if deadlineMillis > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx,
					time.Duration(deadlineMillis)*time.Millisecond+muxHandlerGrace)
				defer cancel()
			}
			payload, herr := ep.handler(ctx, req)
			var errMsg string
			hasErr := herr != nil
			if hasErr {
				errMsg = herr.Error()
			}
			rep := appendMuxReply(make([]byte, 0, 16+len(payload)), id, payload, errMsg, hasErr)
			if mangle := ep.mux.mangleReply; mangle != nil {
				if rep = mangle(rep); rep == nil {
					conn.Close() // torn frame injection: drop the link instead
					return
				}
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
			writeMu.Lock()
			werr := writeFrame(conn, rep)
			writeMu.Unlock()
			if werr != nil {
				conn.Close()
			}
		}()
	}
}
