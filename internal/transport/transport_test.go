package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func echoHandler(ctx context.Context, req Request) ([]byte, error) {
	return append([]byte("echo:"), req.Payload...), nil
}

func TestMemCallRoundTrip(t *testing.T) {
	n := NewMem(MemOptions{}, nil)
	n.Register("b", echoHandler)
	resp, err := n.Call(context.Background(), Request{From: "a", To: "b", Service: "s", Method: "m", Payload: []byte("hi")})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "echo:hi" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestMemUnreachable(t *testing.T) {
	n := NewMem(MemOptions{}, nil)
	_, err := n.Call(context.Background(), Request{From: "a", To: "ghost"})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	n.Register("b", echoHandler)
	n.Unregister("b")
	_, err = n.Call(context.Background(), Request{From: "a", To: "b"})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("after unregister err = %v, want ErrUnreachable", err)
	}
}

func TestMemRequestLostMeansNoExecution(t *testing.T) {
	n := NewMem(MemOptions{}, nil)
	var executed atomic.Int32
	n.Register("b", func(ctx context.Context, req Request) ([]byte, error) {
		executed.Add(1)
		return nil, nil
	})
	n.Faults().DropRequests(1, To("b"))
	_, err := n.Call(context.Background(), Request{From: "a", To: "b"})
	if !errors.Is(err, ErrRequestLost) {
		t.Fatalf("err = %v, want ErrRequestLost", err)
	}
	if executed.Load() != 0 {
		t.Fatal("handler executed despite dropped request")
	}
	// Rule was one-shot: the next call succeeds.
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); err != nil {
		t.Fatalf("second call: %v", err)
	}
	if executed.Load() != 1 {
		t.Fatalf("executed = %d, want 1", executed.Load())
	}
}

func TestMemReplyLostMeansExecution(t *testing.T) {
	// The Figure 1 scenario: the operation happens but the caller cannot
	// observe it.
	n := NewMem(MemOptions{}, nil)
	var executed atomic.Int32
	n.Register("b", func(ctx context.Context, req Request) ([]byte, error) {
		executed.Add(1)
		return []byte("done"), nil
	})
	n.Faults().DropReplies(1, Between("a", "b"))
	_, err := n.Call(context.Background(), Request{From: "a", To: "b"})
	if !errors.Is(err, ErrReplyLost) {
		t.Fatalf("err = %v, want ErrReplyLost", err)
	}
	if executed.Load() != 1 {
		t.Fatal("handler should have executed before reply loss")
	}
}

func TestMemPartitionAndHeal(t *testing.T) {
	n := NewMem(MemOptions{}, nil)
	n.Register("b", echoHandler)
	n.Faults().Partition("a", "b")
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned err = %v", err)
	}
	// Partition is symmetric.
	n.Register("a", echoHandler)
	if _, err := n.Call(context.Background(), Request{From: "b", To: "a"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("reverse partitioned err = %v", err)
	}
	// Other pairs unaffected.
	n.Register("c", echoHandler)
	if _, err := n.Call(context.Background(), Request{From: "a", To: "c"}); err != nil {
		t.Fatalf("unrelated pair err = %v", err)
	}
	n.Faults().Heal("a", "b")
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); err != nil {
		t.Fatalf("healed err = %v", err)
	}
}

func TestMemFaultRuleScoping(t *testing.T) {
	n := NewMem(MemOptions{}, nil)
	n.Register("b", echoHandler)
	n.Register("c", echoHandler)
	n.Faults().DropRequests(-1, ToService("b", "svc1"))
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b", Service: "svc1"}); !errors.Is(err, ErrRequestLost) {
		t.Fatalf("svc1 err = %v", err)
	}
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b", Service: "svc2"}); err != nil {
		t.Fatalf("svc2 err = %v", err)
	}
	if _, err := n.Call(context.Background(), Request{From: "a", To: "c", Service: "svc1"}); err != nil {
		t.Fatalf("other node err = %v", err)
	}
}

func TestMemFaultsClear(t *testing.T) {
	n := NewMem(MemOptions{}, nil)
	n.Register("b", echoHandler)
	n.Faults().DropRequests(-1, To("b"))
	n.Faults().Partition("a", "b")
	n.Faults().Clear()
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); err != nil {
		t.Fatalf("after clear err = %v", err)
	}
}

func TestMemLatencyAndContextCancel(t *testing.T) {
	n := NewMem(MemOptions{BaseLatency: 50 * time.Millisecond}, nil)
	n.Register("b", echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.Call(ctx, Request{From: "a", To: "b"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("cancel took too long: %v", elapsed)
	}
}

func TestMemJitterDeterministicWithSeed(t *testing.T) {
	measure := func(seed int64) []time.Duration {
		n := NewMem(MemOptions{Jitter: 5 * time.Millisecond, Seed: seed}, nil)
		n.Register("b", echoHandler)
		var out []time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); err != nil {
				t.Fatalf("call: %v", err)
			}
			out = append(out, time.Since(start))
		}
		return out
	}
	// Just verify both seeds produce calls that complete; precise timing
	// equality is not assertable on a shared machine.
	if got := measure(1); len(got) != 3 {
		t.Fatal("expected 3 timings")
	}
}

func TestMemConcurrentCalls(t *testing.T) {
	n := NewMem(MemOptions{}, nil)
	var count atomic.Int64
	n.Register("b", func(ctx context.Context, req Request) ([]byte, error) {
		count.Add(1)
		return req.Payload, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("p%d", i))
			resp, err := n.Call(context.Background(), Request{From: "a", To: "b", Payload: payload})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if string(resp) != string(payload) {
				t.Errorf("call %d: resp %q != payload %q", i, resp, payload)
			}
		}(i)
	}
	wg.Wait()
	if count.Load() != 32 {
		t.Fatalf("handler ran %d times, want 32", count.Load())
	}
}

// TestMemCallDoesNotAllocate pins the cost of routing Mem through the
// Faulty wrapper: with an empty fault plan the pipeline adds no allocation
// (no closure, no boxed request) to a call.
func TestMemCallDoesNotAllocate(t *testing.T) {
	n := NewMem(MemOptions{}, nil)
	n.Register("b", func(ctx context.Context, req Request) ([]byte, error) { return req.Payload, nil })
	ctx := context.Background()
	req := Request{From: "a", To: "b", Service: "s", Method: "m", Payload: []byte("hi")}
	if allocs := testing.AllocsPerRun(200, func() { _, _ = n.Call(ctx, req) }); allocs != 0 {
		t.Fatalf("Mem.Call allocates %.1f times per call, want 0", allocs)
	}
}
