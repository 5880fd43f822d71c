package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// AppError is an application-level error with a stable machine-readable
// code, preserved across the wire.
type AppError struct {
	Code string
	Msg  string
}

// Error implements error.
func (e *AppError) Error() string { return e.Code + ": " + e.Msg }

// Errorf builds an AppError with a formatted message.
func Errorf(code, format string, args ...any) *AppError {
	return &AppError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// CodeOf extracts the AppError code from err, or "" if err carries none.
func CodeOf(err error) string {
	// The two answers the steady state asks for — no error, and the
	// *AppError Call returns — need no errors.As, whose target escapes.
	if err == nil {
		return ""
	}
	if ae, ok := err.(*AppError); ok {
		return ae.Code
	}
	var ae *AppError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// AppErrorOf returns what a handler's error crosses the wire as: the
// AppError on its chain, or CodeInternal around its text.
func AppErrorOf(err error) *AppError {
	var ae *AppError
	if errors.As(err, &ae) {
		return ae
	}
	return &AppError{Code: CodeInternal, Msg: err.Error()}
}

// Well-known error codes used across services.
const (
	CodeInternal     = "internal" // handler returned a non-App error
	CodeNoSuchMethod = "no-such-method"
	CodeNotFound     = "not-found"
	CodeConflict     = "conflict"
	CodeRefused      = "refused" // e.g. a lock could not be granted
)

// Response frame tags.
const (
	frameOK  = 0x01 // tag, then the raw body bytes
	frameErr = 0x02 // tag, then u16-len code, u16-len msg
)

// encodeFrameOK builds a success frame around an already-encoded body: one
// tag byte plus the body verbatim. Method does not come this way: it
// encodes its result straight into a frame and copies nothing.
func encodeFrameOK(body []byte) []byte {
	out := make([]byte, 1+len(body))
	out[0] = frameOK
	copy(out[1:], body)
	return out
}

// encodeFrameErr builds an error frame from a code and message.
func encodeFrameErr(code, msg string) []byte {
	if len(code) > 0xffff {
		code = code[:0xffff]
	}
	if len(msg) > 0xffff {
		msg = msg[:0xffff]
	}
	out := make([]byte, 1+2+len(code)+2+len(msg))
	out[0] = frameErr
	binary.BigEndian.PutUint16(out[1:], uint16(len(code)))
	n := 3 + copy(out[3:], code)
	binary.BigEndian.PutUint16(out[n:], uint16(len(msg)))
	copy(out[n+2:], msg)
	return out
}

// errBadFrame reports a malformed response frame.
var errBadFrame = errors.New("rpc: malformed response frame")

// decodeFrame splits a response frame. The returned body aliases raw
// (zero-copy); appErr is non-nil for an error frame.
func decodeFrame(raw []byte) (body []byte, appErr *AppError, err error) {
	if len(raw) < 1 {
		return nil, nil, errBadFrame
	}
	switch raw[0] {
	case frameOK:
		return raw[1:], nil, nil
	case frameErr:
		rest := raw[1:]
		if len(rest) < 2 {
			return nil, nil, errBadFrame
		}
		n := int(binary.BigEndian.Uint16(rest))
		if len(rest) < 2+n+2 {
			return nil, nil, errBadFrame
		}
		code := string(rest[2 : 2+n])
		rest = rest[2+n:]
		m := int(binary.BigEndian.Uint16(rest))
		if len(rest) < 2+m {
			return nil, nil, errBadFrame
		}
		return nil, &AppError{Code: code, Msg: string(rest[2 : 2+m])}, nil
	default:
		return nil, nil, fmt.Errorf("%w: tag %#x", errBadFrame, raw[0])
	}
}

// HandlerFunc processes one method's request payload and returns the
// success reply frame, which Method builds from a typed result, or the
// error the server folds into an error frame.
type HandlerFunc func(ctx context.Context, from transport.Addr, payload []byte) ([]byte, error)

// Server dispatches incoming requests to registered services and methods.
// It is safe for concurrent use; registrations normally happen before the
// server is exposed to the network.
type Server struct {
	mu       sync.RWMutex
	services map[string]map[string]HandlerFunc
}

// NewServer returns an empty dispatch table.
func NewServer() *Server {
	return &Server{services: make(map[string]map[string]HandlerFunc)}
}

// Handle registers h for service/method, replacing any previous handler.
func (s *Server) Handle(service, method string, h HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.services[service]
	if !ok {
		m = make(map[string]HandlerFunc)
		s.services[service] = m
	}
	m[method] = h
}

// Handler adapts the server to a transport.Handler. All application errors
// — including dispatch failures — are folded into the response frame so the
// transport error return is reserved for the transport itself.
func (s *Server) Handler() transport.Handler {
	return func(ctx context.Context, req transport.Request) ([]byte, error) {
		s.mu.RLock()
		var h HandlerFunc
		if m, ok := s.services[req.Service]; ok {
			h = m[req.Method]
		}
		s.mu.RUnlock()
		if h == nil {
			return encodeFrameErr(CodeNoSuchMethod,
				fmt.Sprintf("%s.%s not registered at %s", req.Service, req.Method, req.To)), nil
		}
		frame, err := h(ctx, req.From, req.Payload)
		if err != nil {
			ae := AppErrorOf(err)
			return encodeFrameErr(ae.Code, ae.Msg), nil
		}
		return frame, nil
	}
}

// Encode renders *v into a fresh byte slice owned by the caller: one
// allocation, no reflection. Every payload type implements Wire, so a type
// without a codec does not compile here; the error is always nil.
func Encode[T Wire[T]](v *T) ([]byte, error) { return encodeWire(v, 0), nil }

// Decode sets *v to the record data encodes, which must be a binary frame
// of T's tag; on an error *v is left as it was. Decoded values never alias
// data (the codec copies byte and string fields out), so transports may
// recycle their read buffers as soon as Decode returns.
func Decode[T Wire[T]](data []byte, v *T) error { return decodeWire(data, v) }

// Client issues calls from a fixed origin address.
type Client struct {
	Net  transport.Network
	From transport.Addr
	// Metrics, when non-nil, receives per-service call counts and
	// latencies for every call issued through this client.
	Metrics *metrics.Registry
	// Breakers, when non-nil, is the origin node's per-peer circuit
	// breaker set: calls to a peer whose breaker is open fast-fail with
	// ErrPeerUnavailable without touching the network.
	Breakers *Breakers
}

// svcMetrics bundles one service's metric handles, memoized on the
// registry so the per-call path is atomic increments — no name
// concatenation and no registry lookups in the steady state.
type svcMetrics struct {
	calls         *metrics.Counter
	transportErrs *metrics.Counter
	hist          *metrics.Histogram
}

func (c Client) serviceMetrics(service string) *svcMetrics {
	if v, ok := c.Metrics.MemoLoad(service); ok {
		return v.(*svcMetrics)
	}
	sm := &svcMetrics{
		calls:         c.Metrics.Counter("rpc." + service + ".calls"),
		transportErrs: c.Metrics.Counter("rpc." + service + ".transport-errors"),
		hist:          c.Metrics.Histogram("rpc." + service),
	}
	return c.Metrics.MemoStore(service, sm).(*svcMetrics)
}

// Call performs an RPC with a pre-encoded payload and returns the raw
// response body. It is the encode-once fast path: a caller fanning the
// same payload out to many destinations encodes it a single time and
// invokes Call per destination. Transport failures are returned as the
// transport's errors; application failures as *AppError.
func (c Client) Call(ctx context.Context, to transport.Addr, service, method string, payload []byte) ([]byte, error) {
	// One clock read before the carrier serves the breaker and the metrics
	// both: the elapsed time after it is a monotonic difference, and the
	// breaker's instant is derived from the two. The peer's breaker is
	// looked up once.
	start := time.Now()
	var br *breaker
	var probe bool
	if c.Breakers != nil {
		br = c.Breakers.get(to)
		var proceed bool
		proceed, probe = c.Breakers.admit(br, start)
		if !proceed {
			// Fast-fail before metrics: the call never happened, so it
			// must not count toward the service's call/latency figures.
			if c.Metrics != nil {
				c.Metrics.Counter("breaker.fastfail").Inc()
			}
			return nil, &peerDownError{peer: to}
		}
	}
	raw, err := c.Net.Call(ctx, transport.Request{
		From:    c.From,
		To:      to,
		Service: service,
		Method:  method,
		Payload: payload,
	})
	elapsed := time.Since(start)
	if c.Metrics != nil {
		sm := c.serviceMetrics(service)
		sm.calls.Inc()
		sm.hist.RecordDuration(elapsed)
		if err != nil {
			sm.transportErrs.Inc()
		}
	}
	if c.Breakers != nil {
		// err here is the transport-level outcome: any reply at all —
		// even one carrying an application error frame — records success.
		if tripped := c.Breakers.settle(br, probe, err, start.Add(elapsed)); tripped && c.Metrics != nil {
			c.Metrics.Counter("breaker.trips").Inc()
		}
	}
	if err != nil {
		return nil, err
	}
	body, appErr, err := decodeFrame(raw)
	if err != nil {
		return nil, err
	}
	if appErr != nil {
		return nil, appErr
	}
	return body, nil
}

// Invoke performs a typed call: req is Encoded, the reply Decoded as a
// Resp. Both must have a codec: the Wire constraints make a record without
// one a compile error. Transport failures are returned as the transport's
// errors; application failures as *AppError.
func Invoke[Req Wire[Req], Resp Wire[Resp]](ctx context.Context, c Client, to transport.Addr, service, method string, req Req) (Resp, error) {
	var resp Resp
	body, err := c.Call(ctx, to, service, method, encodeWire(&req, 0))
	if err == nil {
		err = decodeWire(body, &resp)
	}
	return resp, err
}

// Method adapts a typed function to a HandlerFunc. Its request and reply
// types must have codecs, as Invoke's do. The reply is encoded straight
// into its frame, behind the frame's reserved tag byte.
func Method[Req Wire[Req], Resp Wire[Resp]](fn func(ctx context.Context, from transport.Addr, req Req) (Resp, error)) HandlerFunc {
	return func(ctx context.Context, from transport.Addr, payload []byte) ([]byte, error) {
		var req Req
		if err := decodeWire(payload, &req); err != nil {
			return nil, &AppError{Code: CodeInternal, Msg: err.Error()}
		}
		resp, err := fn(ctx, from, req)
		if err != nil {
			return nil, err
		}
		frame := encodeWire(&resp, 1)
		frame[0] = frameOK
		return frame, nil
	}
}
