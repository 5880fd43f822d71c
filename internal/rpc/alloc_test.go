//go:build !race

package rpc_test

import (
	"context"
	"testing"

	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// The allocation pins are built without the race runtime, which allocates
// on its own account.

// TestCodecAllocs pins the ledger's rpc.codec_allocs: an InvokeReq through
// Encode and Decode is the payload, the reader's one string copy and the
// argument bytes. The decoded record is a value in the caller's frame (4
// while Decode filled it through a pointer method, which put it on the
// heap).
func TestCodecAllocs(t *testing.T) {
	req := object.InvokeReq{UID: "c1:1:7", Action: "c1:1:99", Method: "add", Args: []byte("1"), Solo: true}
	got := testing.AllocsPerRun(200, func() {
		raw, err := rpc.Encode(&req)
		if err != nil {
			t.Fatal(err)
		}
		var back object.InvokeReq
		if err := rpc.Decode(raw, &back); err != nil {
			t.Fatal(err)
		}
	})
	if got > 3 {
		t.Fatalf("Encode+Decode of an InvokeReq allocated %.0f objects, want at most 3", got)
	}
}

// TestClientCallAllocs pins what Client.Call adds to a call with metrics
// and breakers on: beyond the handler's own reply frame, at most two
// objects.
func TestClientCallAllocs(t *testing.T) {
	net := transport.NewMem(transport.MemOptions{}, nil)
	frame := []byte{0x01, 'o', 'k'} // a success frame; the handler allocates nothing
	net.Register("b", func(context.Context, transport.Request) ([]byte, error) { return frame, nil })
	c := rpc.Client{Net: net, From: "a", Metrics: &metrics.Registry{}, Breakers: rpc.NewBreakers(rpc.BreakerConfig{})}
	ctx, payload := context.Background(), []byte("hi")
	call := func() {
		if _, err := c.Call(ctx, "b", "svc", "M", payload); err != nil {
			t.Fatal(err)
		}
	}
	call() // the first call creates the service's metric handles and the peer's breaker
	if got := testing.AllocsPerRun(200, call); got > 2 {
		t.Fatalf("Client.Call allocated %.0f objects per call, want at most 2", got)
	} else {
		t.Logf("Client.Call: %.0f allocations", got)
	}
}

// TestTypedCallAllocs pins a typed call, Invoke to Method over Mem, exactly:
// the request payload; on the server, the one copy of the request's
// strings and its argument bytes; the reply frame; on the client, the
// result bytes the reply hands out. No record is a heap object: 9 while
// Invoke and Method reached the codec through pointer methods, which put
// the request and the reply on the heap on each side.
func TestTypedCallAllocs(t *testing.T) {
	net := transport.NewMem(transport.MemOptions{}, nil)
	srv := rpc.NewServer()
	srv.Handle("svc", "M", rpc.Method(func(_ context.Context, _ transport.Addr, req object.InvokeReq) (object.InvokeResp, error) {
		return object.InvokeResp{Result: req.Args, Seq: 7}, nil
	}))
	net.Register("b", srv.Handler())
	c := rpc.Client{Net: net, From: "a"}
	ctx := context.Background()
	req := object.InvokeReq{UID: "c1:1:7", Action: "c1:1:99", Method: "add", Args: []byte("1")}
	call := func() {
		resp, err := rpc.Invoke[object.InvokeReq, object.InvokeResp](ctx, c, "b", "svc", "M", req)
		if err != nil || string(resp.Result) != "1" {
			t.Fatalf("typed call: %+v, %v", resp, err)
		}
	}
	call()
	if got := testing.AllocsPerRun(200, call); got != 5 {
		t.Fatalf("a typed call allocated %.0f objects, want 5", got)
	}
}
