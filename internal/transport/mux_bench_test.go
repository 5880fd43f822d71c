package transport

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkMuxPipelining measures concurrent call throughput between one
// node pair on the multiplexed transport, which rides a single connection
// regardless of parallelism.
func BenchmarkMuxPipelining(b *testing.B) {
	handler := func(ctx context.Context, req Request) ([]byte, error) {
		return req.Payload, nil
	}
	bench := func(b *testing.B, net Network) {
		payload := []byte("benchmark-payload-64-bytes-of-representative-invoke-args......")
		var failed atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			ctx := context.Background()
			for pb.Next() {
				if _, err := net.Call(ctx, Request{From: "cli", To: "srv", Service: "s", Method: "m", Payload: payload}); err != nil {
					failed.Add(1)
				}
			}
		})
		b.StopTimer()
		if n := failed.Load(); n > 0 {
			b.Fatalf("%d calls failed", n)
		}
	}
	b.Run("mux", func(b *testing.B) {
		tm := NewTCPMux()
		defer tm.Close()
		tm.Register("srv", handler)
		bench(b, tm)
		if d := tm.dials.Value(); d != 1 {
			b.Fatalf("dials = %d, want 1", d)
		}
	})
	for _, inflight := range []int{4, 16} {
		b.Run(fmt.Sprintf("mux-inflight-%d", inflight), func(b *testing.B) {
			tm := NewTCPMux()
			defer tm.Close()
			tm.Register("srv", handler)
			b.SetParallelism(inflight)
			bench(b, tm)
		})
	}
}
