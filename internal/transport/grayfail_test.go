package transport

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// testDelayRepliesModelsGrayFailure (a TestFaultPipeline case) verifies
// the gray-failure primitive: the handler executes (the side effect
// stands) but the reply is held past the caller's deadline, so the caller
// observes a timeout — the worst-case ambiguity, not a clean refusal.
func testDelayRepliesModelsGrayFailure(t *testing.T, newNet func(int64) faultyNet) {
	var executed atomic.Int64
	n := newNet(1)
	n.Register("b", func(ctx context.Context, req Request) ([]byte, error) {
		executed.Add(1)
		return []byte("ok"), nil
	})
	n.Faults().DelayReplies(1, -1, 500*time.Millisecond, To("b"))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.Call(ctx, Request{From: "a", To: "b"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed >= 400*time.Millisecond {
		t.Fatalf("caller waited %v; the deadline should have cut the hold short", elapsed)
	}
	if executed.Load() != 1 {
		t.Fatalf("handler executed %d times, want 1 (gray failure executes, then stalls)", executed.Load())
	}

	// An unhurried caller gets the reply after the hold.
	start = time.Now()
	resp, err := n.Call(context.Background(), Request{From: "a", To: "b"})
	if err != nil || string(resp) != "ok" {
		t.Fatalf("patient call: resp=%q err=%v", resp, err)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Fatalf("patient call returned in %v, want the full ~500ms hold", elapsed)
	}

	// Clear removes the rule.
	n.Faults().Clear()
	start = time.Now()
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); err != nil {
		t.Fatalf("post-clear call: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("post-clear call still delayed (%v)", elapsed)
	}
}
