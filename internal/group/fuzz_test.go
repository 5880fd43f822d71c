package group

import (
	"context"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/transport"
)

// mustEncodeBatch builds a valid wire frame for the seed corpus.
func mustEncodeBatch(f *testing.F, req DeliverBatchReq) []byte {
	f.Helper()
	raw, err := rpc.Encode(&req)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzDeliverBatchDecode hardens the delivery decode path: the binary
// decode of a DeliverBatchReq must never panic on arbitrary bytes,
// and any frame that decodes is fed through a real member's
// handleDeliverBatch (with a short deadline so hold-back on sequence gaps
// cannot stall the fuzzer) — the handler must survive arbitrary seq/dedup
// shapes without panicking.
func FuzzDeliverBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add(mustEncodeBatch(f, DeliverBatchReq{Group: "g", Items: []BatchItem{
		{MsgID: "m1", Kind: "k", Payload: []byte("p"), Seq: 1},
		{MsgID: "m2", Kind: "k", Payload: []byte("q"), Seq: 2},
	}, Stable: 1}))
	f.Add(mustEncodeBatch(f, DeliverBatchReq{Group: "g", Items: []BatchItem{
		{MsgID: "dup", Seq: 5}, {MsgID: "dup", Seq: 5}, {MsgID: "gap", Seq: 9},
	}}))
	f.Add(mustEncodeBatch(f, DeliverBatchReq{Group: "missing", Stable: ^uint64(0)}))

	net := transport.NewMem(transport.MemOptions{}, nil)
	srv := rpc.NewServer()
	h := NewHost(srv, rpc.Client{Net: net, From: "member"})
	h.Join("g", func(ctx context.Context, msg Delivered) ([]byte, error) {
		return msg.Payload, nil
	})

	f.Fuzz(func(t *testing.T, raw []byte) {
		var req DeliverBatchReq
		if err := rpc.Decode(raw, &req); err != nil {
			return // malformed input correctly rejected
		}
		// Re-encode: anything we accepted must be encodable again.
		if _, err := rpc.Encode(&req); err != nil {
			t.Fatalf("decoded batch frame not re-encodable: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		resp, err := h.handleDeliverBatch(ctx, "seq", req)
		if err != nil {
			return // unknown group, gap hold-back timeout, … all fine
		}
		if len(resp.Results) != len(req.Items) {
			t.Fatalf("results = %d for %d items", len(resp.Results), len(req.Items))
		}
	})
}
