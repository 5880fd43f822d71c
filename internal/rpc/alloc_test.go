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
// Encode and Decode is the payload, the decoded struct, the reader's one
// string copy and the argument bytes.
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
	if got > 4 {
		t.Fatalf("Encode+Decode of an InvokeReq allocated %.0f objects, want at most 4", got)
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
