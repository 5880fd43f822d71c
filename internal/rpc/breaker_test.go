package rpc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

func TestBreakerTripsAtThreshold(t *testing.T) {
	bs := NewBreakers(BreakerConfig{Window: 10, Threshold: 5, Cooldown: time.Hour})
	peer := transport.Addr("st1")
	for i := 0; i < 4; i++ {
		proceed, probe := bs.Acquire(peer)
		if !proceed || probe {
			t.Fatalf("call %d: proceed=%v probe=%v, want proceed, no probe", i, proceed, probe)
		}
		if tripped := bs.Record(peer, false, transport.ErrUnreachable); tripped {
			t.Fatalf("call %d: tripped before threshold", i)
		}
	}
	if st := bs.State(peer); st != StateClosed {
		t.Fatalf("state before threshold = %v, want closed", st)
	}
	proceed, _ := bs.Acquire(peer)
	if !proceed {
		t.Fatal("5th call refused while closed")
	}
	if tripped := bs.Record(peer, false, transport.ErrUnreachable); !tripped {
		t.Fatal("5th failure did not trip the breaker")
	}
	if st := bs.State(peer); st != StateOpen {
		t.Fatalf("state after threshold = %v, want open", st)
	}
	if proceed, _ := bs.Acquire(peer); proceed {
		t.Fatal("open breaker admitted a call inside cooldown")
	}
}

func TestBreakerSuccessesKeepItClosed(t *testing.T) {
	bs := NewBreakers(BreakerConfig{Window: 10, Threshold: 5, Cooldown: time.Hour})
	peer := transport.Addr("st1")
	// Interleave failures with successes so the window never accumulates
	// five failures: 4 fail, 4 ok, 4 fail — the oldest failures roll out.
	for i := 0; i < 4; i++ {
		bs.Acquire(peer)
		bs.Record(peer, false, transport.ErrReplyLost)
	}
	for i := 0; i < 6; i++ {
		bs.Acquire(peer)
		bs.Record(peer, false, nil)
	}
	for i := 0; i < 4; i++ {
		bs.Acquire(peer)
		if tripped := bs.Record(peer, false, transport.ErrReplyLost); tripped {
			t.Fatal("tripped although the window holds only 4 failures")
		}
	}
	if st := bs.State(peer); st != StateClosed {
		t.Fatalf("state = %v, want closed", st)
	}
}

func TestBreakerOutcomeClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		failure   bool
		countable bool
	}{
		{"nil", nil, false, true},
		{"app-error", &AppError{Code: CodeRefused, Msg: "lock refused"}, false, true},
		{"unreachable", transport.ErrUnreachable, true, true},
		{"request-lost", transport.ErrRequestLost, true, true},
		{"reply-lost", transport.ErrReplyLost, true, true},
		{"deadline", context.DeadlineExceeded, true, true},
		{"canceled", context.Canceled, false, false},
		{"other", errors.New("gob: type mismatch"), false, false},
	}
	for _, tc := range cases {
		failure, countable := breakerOutcome(tc.err)
		if failure != tc.failure || countable != tc.countable {
			t.Errorf("%s: got failure=%v countable=%v, want %v/%v",
				tc.name, failure, countable, tc.failure, tc.countable)
		}
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	bs := NewBreakers(BreakerConfig{Window: 4, Threshold: 2, Cooldown: 10 * time.Millisecond})
	peer := transport.Addr("st1")
	for i := 0; i < 2; i++ {
		bs.Acquire(peer)
		bs.Record(peer, false, transport.ErrUnreachable)
	}
	if st := bs.State(peer); st != StateOpen {
		t.Fatalf("state = %v, want open", st)
	}
	time.Sleep(15 * time.Millisecond)
	if st := bs.State(peer); st != StateHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", st)
	}
	// Exactly one concurrent caller may win the probe slot.
	const callers = 16
	var wg sync.WaitGroup
	var probes, refused atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			proceed, probe := bs.Acquire(peer)
			if proceed && probe {
				probes.Add(1)
			} else if !proceed {
				refused.Add(1)
			} else {
				t.Error("half-open admitted a non-probe call")
			}
		}()
	}
	wg.Wait()
	if probes.Load() != 1 || refused.Load() != callers-1 {
		t.Fatalf("probes=%d refused=%d, want 1/%d", probes.Load(), refused.Load(), callers-1)
	}
	// Probe failure re-opens for another cooldown.
	bs.Record(peer, true, transport.ErrUnreachable)
	if proceed, _ := bs.Acquire(peer); proceed {
		t.Fatal("breaker admitted a call right after a failed probe")
	}
	// Next cooldown expiry: probe success closes and resets the window.
	time.Sleep(15 * time.Millisecond)
	proceed, probe := bs.Acquire(peer)
	if !proceed || !probe {
		t.Fatalf("post-cooldown acquire: proceed=%v probe=%v, want probe", proceed, probe)
	}
	bs.Record(peer, true, nil)
	if st := bs.State(peer); st != StateClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	// The window was reset: one failure must not re-trip (threshold is 2).
	bs.Acquire(peer)
	if tripped := bs.Record(peer, false, transport.ErrUnreachable); tripped {
		t.Fatal("stale pre-probe failures survived the reset")
	}
}

func TestBreakerUncountableProbeReleasesSlot(t *testing.T) {
	bs := NewBreakers(BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Millisecond})
	peer := transport.Addr("st1")
	for i := 0; i < 2; i++ {
		bs.Acquire(peer)
		bs.Record(peer, false, transport.ErrUnreachable)
	}
	time.Sleep(5 * time.Millisecond)
	proceed, probe := bs.Acquire(peer)
	if !proceed || !probe {
		t.Fatalf("acquire: proceed=%v probe=%v, want probe", proceed, probe)
	}
	// The probe's caller cancelled: the outcome says nothing, but the slot
	// MUST free up or half-open wedges forever.
	bs.Record(peer, true, context.Canceled)
	proceed, probe = bs.Acquire(peer)
	if !proceed || !probe {
		t.Fatalf("acquire after cancelled probe: proceed=%v probe=%v, want a fresh probe", proceed, probe)
	}
}

func TestBreakerResetAndCounters(t *testing.T) {
	bs := NewBreakers(BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour})
	a, b := transport.Addr("st1"), transport.Addr("st2")
	for _, p := range []transport.Addr{a, b} {
		for i := 0; i < 2; i++ {
			bs.Acquire(p)
			bs.Record(p, false, transport.ErrUnreachable)
		}
	}
	bs.Acquire(a) // fast-fail
	bs.Acquire(b) // fast-fail
	trips, fastFails, _ := bs.Counters()
	if trips != 2 || fastFails != 2 {
		t.Fatalf("trips=%d fastFails=%d, want 2/2", trips, fastFails)
	}
	bs.Reset(a)
	if st := bs.State(a); st != StateClosed {
		t.Fatalf("state(a) after Reset = %v, want closed", st)
	}
	if st := bs.State(b); st != StateOpen {
		t.Fatalf("state(b) = %v, want still open", st)
	}
	bs.ResetAll()
	if st := bs.State(b); st != StateClosed {
		t.Fatalf("state(b) after ResetAll = %v, want closed", st)
	}
	snap := bs.Snapshot()
	if len(snap) != 2 || snap[0].Peer != a || snap[1].Peer != b {
		t.Fatalf("snapshot = %+v, want sorted [st1 st2]", snap)
	}
	for _, st := range snap {
		if st.State != StateClosed || st.Failures != 0 {
			t.Fatalf("snapshot entry %+v not reset", st)
		}
	}
}

func TestBreakerConcurrentCallers(t *testing.T) {
	// Hammer one breaker from many goroutines mixing successes, failures,
	// resets and state reads; -race is the real assertion here, plus the
	// invariant that the breaker always lands in a legal state.
	bs := NewBreakers(BreakerConfig{Window: 8, Threshold: 4, Cooldown: time.Microsecond})
	peer := transport.Addr("st1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				proceed, probe := bs.Acquire(peer)
				if !proceed {
					continue
				}
				var err error
				if (g+i)%3 == 0 {
					err = transport.ErrUnreachable
				}
				bs.Record(peer, probe, err)
				if i%97 == 0 {
					bs.Reset(peer)
				}
				_ = bs.State(peer)
				_ = bs.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if st := bs.State(peer); st < StateClosed || st > StateHalfOpen {
		t.Fatalf("illegal final state %v", st)
	}
}

func TestClientFastFailOnOpenBreaker(t *testing.T) {
	net := transport.NewMem(transport.MemOptions{}, transport.NewFaults())
	reg := &metrics.Registry{}
	bs := NewBreakers(BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour})
	srv := NewServer()
	srv.Handle("echo", "Echo", func(ctx context.Context, from transport.Addr, payload []byte) ([]byte, error) {
		return encodeFrameOK(payload), nil
	})
	net.Register("b", srv.Handler())
	c := Client{Net: net, From: "a", Metrics: reg, Breakers: bs}

	if _, err := c.Call(context.Background(), "b", "echo", "Echo", []byte("hi")); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}
	// Unregister the peer so calls fail with ErrUnreachable and trip it.
	net.Unregister("b")
	for i := 0; i < 2; i++ {
		if _, err := c.Call(context.Background(), "b", "echo", "Echo", nil); !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("call %d: err = %v, want unreachable", i, err)
		}
	}
	callsBefore := reg.Counter("rpc.echo.calls").Value()
	_, err := c.Call(context.Background(), "b", "echo", "Echo", nil)
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("err = %v, want ErrPeerUnavailable", err)
	}
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatal("fast-fail does not match transport.ErrUnreachable; exclusion paths would miss it")
	}
	if got := reg.Counter("rpc.echo.calls").Value(); got != callsBefore {
		t.Fatalf("fast-fail counted as an rpc call: %d -> %d", callsBefore, got)
	}
	if got := reg.Counter("breaker.fastfail").Value(); got != 1 {
		t.Fatalf("breaker.fastfail = %d, want 1", got)
	}
	// Recovery: re-register, reset, and the path is live again.
	net.Register("b", srv.Handler())
	bs.Reset("b")
	if _, err := c.Call(context.Background(), "b", "echo", "Echo", []byte("hi")); err != nil {
		t.Fatalf("post-reset call failed: %v", err)
	}
}
