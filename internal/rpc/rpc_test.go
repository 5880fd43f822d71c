package rpc

import (
	"context"
	"errors"
	"testing"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// add is the test service's method: it sums a request's Seq and Delta
// into the reply's Seq.
func add(ctx context.Context, from transport.Addr, req testMsg) (testMsg, error) {
	return testMsg{Seq: req.Seq + uint64(req.Delta)}, nil
}

func newTestNet(t *testing.T) (*transport.Mem, *Server) {
	t.Helper()
	net := transport.NewMem(transport.MemOptions{}, nil)
	srv := NewServer()
	net.Register("server", srv.Handler())
	return net, srv
}

func TestInvokeTyped(t *testing.T) {
	net, srv := newTestNet(t)
	srv.Handle("math", "Add", Method(add))
	c := Client{Net: net, From: "client"}
	resp, err := Invoke[testMsg, testMsg](context.Background(), c, "server", "math", "Add", testMsg{Seq: 2, Delta: 3})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if resp.Seq != 5 {
		t.Fatalf("sum = %d, want 5", resp.Seq)
	}
}

func TestInvokeAppError(t *testing.T) {
	net, srv := newTestNet(t)
	srv.Handle("math", "Fail", Method(func(ctx context.Context, from transport.Addr, req testMsg) (testMsg, error) {
		return testMsg{}, Errorf(CodeConflict, "a=%d conflicts", req.Seq)
	}))
	c := Client{Net: net, From: "client"}
	_, err := Invoke[testMsg, testMsg](context.Background(), c, "server", "math", "Fail", testMsg{Seq: 9})
	if err == nil {
		t.Fatal("expected error")
	}
	if CodeOf(err) != CodeConflict {
		t.Fatalf("code = %q, want conflict", CodeOf(err))
	}
	var ae *AppError
	if !errors.As(err, &ae) || ae.Msg != "a=9 conflicts" {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeNonAppErrorBecomesInternal(t *testing.T) {
	net, srv := newTestNet(t)
	srv.Handle("math", "Boom", Method(func(ctx context.Context, from transport.Addr, req testMsg) (testMsg, error) {
		return testMsg{}, errors.New("plain failure")
	}))
	c := Client{Net: net, From: "client"}
	_, err := Invoke[testMsg, testMsg](context.Background(), c, "server", "math", "Boom", testMsg{})
	if CodeOf(err) != CodeInternal {
		t.Fatalf("code = %q, want internal (err=%v)", CodeOf(err), err)
	}
}

func TestInvokeNoSuchMethod(t *testing.T) {
	net, _ := newTestNet(t)
	c := Client{Net: net, From: "client"}
	_, err := Invoke[testMsg, testMsg](context.Background(), c, "server", "math", "Nope", testMsg{})
	if CodeOf(err) != CodeNoSuchMethod {
		t.Fatalf("code = %q, want no-such-method", CodeOf(err))
	}
}

func TestInvokeTransportErrorsPassThrough(t *testing.T) {
	net, srv := newTestNet(t)
	srv.Handle("math", "Add", Method(add))
	c := Client{Net: net, From: "client"}
	// Unreachable destination.
	_, err := Invoke[testMsg, testMsg](context.Background(), c, "ghost", "math", "Add", testMsg{})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	// Lost reply: operation executed, caller sees transport error, not AppError.
	net.Faults().DropReplies(1, transport.To("server"))
	_, err = Invoke[testMsg, testMsg](context.Background(), c, "server", "math", "Add", testMsg{Seq: 1})
	if !errors.Is(err, transport.ErrReplyLost) {
		t.Fatalf("err = %v, want ErrReplyLost", err)
	}
}

func TestFromAddressVisibleToHandler(t *testing.T) {
	net, srv := newTestNet(t)
	srv.Handle("id", "WhoAmI", Method(func(ctx context.Context, from transport.Addr, req Empty) (testMsg, error) {
		return testMsg{Name: string(from)}, nil
	}))
	c := Client{Net: net, From: "client-42"}
	got, err := Invoke[Empty, testMsg](context.Background(), c, "server", "id", "WhoAmI", Empty{})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got.Name != "client-42" {
		t.Fatalf("from = %q", got.Name)
	}
}

func TestInvokeOverTCP(t *testing.T) {
	tnet := transport.NewTCPMux()
	defer tnet.Close()
	srv := NewServer()
	srv.Handle("math", "Add", Method(add))
	srv.Handle("math", "Fail", Method(func(ctx context.Context, from transport.Addr, req testMsg) (testMsg, error) {
		return testMsg{}, Errorf(CodeRefused, "no")
	}))
	tnet.Register("server", srv.Handler())
	c := Client{Net: tnet, From: "client"}
	resp, err := Invoke[testMsg, testMsg](context.Background(), c, "server", "math", "Add", testMsg{Seq: 4, Delta: 7})
	if err != nil {
		t.Fatalf("Invoke over TCP: %v", err)
	}
	if resp.Seq != 11 {
		t.Fatalf("sum = %d", resp.Seq)
	}
	// AppError codes survive TCP because they travel in the envelope.
	_, err = Invoke[testMsg, testMsg](context.Background(), c, "server", "math", "Fail", testMsg{})
	if CodeOf(err) != CodeRefused {
		t.Fatalf("code over TCP = %q, want refused", CodeOf(err))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := testMsg{Name: "x", Seq: 3, Peers: []string{"a", "b"}}
	data, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out testMsg
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Seq != in.Seq || len(out.Peers) != 2 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	body, appErr, err := decodeFrame(encodeFrameOK([]byte("payload")))
	if err != nil || appErr != nil {
		t.Fatalf("ok frame: body=%q appErr=%v err=%v", body, appErr, err)
	}
	if string(body) != "payload" {
		t.Fatalf("body = %q", body)
	}
	body, appErr, err = decodeFrame(encodeFrameErr(CodeConflict, "msg text"))
	if err != nil || body != nil {
		t.Fatalf("err frame: body=%q err=%v", body, err)
	}
	if appErr.Code != CodeConflict || appErr.Msg != "msg text" {
		t.Fatalf("appErr = %+v", appErr)
	}
	// Empty body and empty error strings survive.
	if body, appErr, err = decodeFrame(encodeFrameOK(nil)); err != nil || appErr != nil || len(body) != 0 {
		t.Fatalf("empty ok frame: %q %v %v", body, appErr, err)
	}
	if _, appErr, err = decodeFrame(encodeFrameErr("", "")); err != nil || appErr == nil {
		t.Fatalf("empty err frame: %v %v", appErr, err)
	}
}

func TestDecodeFrameZeroCopy(t *testing.T) {
	raw := encodeFrameOK([]byte("abc"))
	body, _, err := decodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if &body[0] != &raw[1] {
		t.Fatal("success body must alias the frame, not copy it")
	}
}

func TestDecodeFrameMalformed(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		{},
		{0x7f},                   // unknown tag
		{frameErr},               // truncated: no code length
		{frameErr, 0, 5},         // code length beyond buffer
		{frameErr, 0, 1, 'x', 0}, // truncated msg length
	} {
		if _, _, err := decodeFrame(raw); err == nil {
			t.Fatalf("frame %v should be rejected", raw)
		}
	}
}

func TestClientCallEncodeOnce(t *testing.T) {
	net, srv := newTestNet(t)
	srv.Handle("math", "Add", Method(add))
	c := Client{Net: net, From: "client"}
	payload, err := Encode(&testMsg{Seq: 3, Delta: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The same encoded payload is reusable across calls (the fan-out
	// fast path encodes once and Calls many times).
	for i := 0; i < 2; i++ {
		body, err := c.Call(context.Background(), "server", "math", "Add", payload)
		if err != nil {
			t.Fatal(err)
		}
		var resp testMsg
		if err := Decode(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Seq != 7 {
			t.Fatalf("sum = %d", resp.Seq)
		}
	}
}

func TestClientRecordsMetrics(t *testing.T) {
	net, srv := newTestNet(t)
	srv.Handle("math", "Add", Method(add))
	reg := &metrics.Registry{}
	c := Client{Net: net, From: "client", Metrics: reg}
	if _, err := Invoke[testMsg, testMsg](context.Background(), c, "server", "math", "Add", testMsg{Seq: 1, Delta: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Invoke[testMsg, testMsg](context.Background(), c, "ghost", "math", "Add", testMsg{}); err == nil {
		t.Fatal("expected unreachable error")
	}
	if got := reg.Counter("rpc.math.calls").Value(); got != 2 {
		t.Fatalf("calls = %d, want 2", got)
	}
	if got := reg.Counter("rpc.math.transport-errors").Value(); got != 1 {
		t.Fatalf("transport-errors = %d, want 1", got)
	}
	if reg.Histogram("rpc.math").Count() != 2 {
		t.Fatal("latency samples missing")
	}
}
