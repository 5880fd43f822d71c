package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMuxPendingCapHoldsUnderConcurrency hammers one connection with far
// more concurrent callers than MaxPending allows and checks, under the
// race detector, that (a) the in-flight call count never exceeds the
// cap, (b) the surplus callers fast-fail with ErrOverloaded, and (c) the
// connection survives the episode — no poison, no redial.
func TestMuxPendingCapHoldsUnderConcurrency(t *testing.T) {
	const cap = 8
	const callers = 64

	tm := NewTCPMux()
	tm.MaxPending = cap
	defer tm.Close()

	release := make(chan struct{})
	var inFlight, peak atomic.Int64
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer inFlight.Add(-1)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return req.Payload, nil
	})

	var wg sync.WaitGroup
	var ok, overloaded, other atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte("x")})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			default:
				other.Add(1)
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	// Let the flood land, then drain the parked handlers.
	for deadline := time.Now().Add(2 * time.Second); inFlight.Load() < cap && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if p := peak.Load(); p > cap {
		t.Fatalf("peak in-flight %d exceeds cap %d", p, cap)
	}
	if overloaded.Load() == 0 {
		t.Fatal("no caller was refused with ErrOverloaded")
	}
	if got := ok.Load() + overloaded.Load(); got != callers {
		t.Fatalf("accounted for %d callers, want %d (others failed)", got, callers)
	}

	// The refusals must not have poisoned or replaced the connection:
	// the next call reuses it and succeeds.
	dials := tm.dials.Value()
	if _, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte("y")}); err != nil {
		t.Fatalf("call after overload episode: %v", err)
	}
	if tm.dials.Value() != dials {
		t.Fatal("overload fast-fail caused a redial")
	}
}

// TestMuxDefaultPendingCap checks the zero value picks the default cap
// rather than refusing everything (cap 0 must not mean "no calls").
func TestMuxDefaultPendingCap(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	tm.Register("srv", plainEcho)
	if _, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
}
