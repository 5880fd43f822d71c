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

func plainEcho(ctx context.Context, req Request) ([]byte, error) {
	return req.Payload, nil
}

func TestMuxRoundTrip(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		if req.From != "cli" || req.Service != "svc" || req.Method != "m" {
			return nil, fmt.Errorf("bad request: %+v", req)
		}
		return append([]byte("re:"), req.Payload...), nil
	})
	got, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Service: "svc", Method: "m", Payload: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "re:hi" {
		t.Fatalf("got %q", got)
	}
}

func TestMuxErrorPropagation(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		return []byte("partial"), errors.New("app boom")
	})
	got, err := tm.Call(context.Background(), Request{From: "cli", To: "srv"})
	if err == nil || err.Error() != "app boom" {
		t.Fatalf("err = %v, want app boom", err)
	}
	if string(got) != "partial" {
		t.Fatalf("payload = %q", got)
	}
}

func TestMuxUnreachable(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	if _, err := tm.Call(context.Background(), Request{From: "cli", To: "ghost"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("got %v, want ErrUnreachable", err)
	}
	tm.Register("srv", plainEcho)
	if _, err := tm.Call(context.Background(), Request{From: "cli", To: "srv"}); err != nil {
		t.Fatal(err)
	}
	tm.Unregister("srv")
	if _, err := tm.Call(context.Background(), Request{From: "cli", To: "srv"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("got %v, want ErrUnreachable after unregister", err)
	}
}

// TestMuxPipelinedCallsShareOneConn is the core demux property: many
// concurrent calls between one node pair ride a single connection, overlap
// in flight, and every caller gets ITS reply back (no reply stealing).
func TestMuxPipelinedCallsShareOneConn(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	var inFlight, peak atomic.Int64
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond) // force overlap
		inFlight.Add(-1)
		return req.Payload, nil
	})
	const callers = 32
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("payload-%d", i)
			got, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte(want)})
			if err != nil {
				errs[i] = err
				return
			}
			if string(got) != want {
				errs[i] = fmt.Errorf("reply stolen: got %q, want %q", got, want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if d := tm.dials.Value(); d != 1 {
		t.Fatalf("dials = %d, want 1 (single mux conn per pair)", d)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak in-flight = %d, want >= 2 (calls must pipeline)", p)
	}
}

// TestMuxTruncatedReplyDiscardsConn pins the connection-state rule: a torn
// reply frame (server closes mid-stream) poisons the mux connection, the
// in-flight call fails, and the NEXT call succeeds on a fresh dial.
func TestMuxTruncatedReplyDiscardsConn(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	var torn atomic.Bool
	torn.Store(true)
	tm.mangleReply = func(body []byte) []byte {
		if torn.Load() {
			return nil // server drops the conn instead of replying
		}
		return body
	}
	tm.Register("srv", plainEcho)

	_, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte("x")})
	if err == nil {
		t.Fatal("torn reply must fail the call")
	}
	torn.Store(false)
	got, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte("y")})
	if err != nil {
		t.Fatalf("call after torn reply: %v", err)
	}
	if string(got) != "y" {
		t.Fatalf("got %q", got)
	}
	if d := tm.dials.Value(); d != 2 {
		t.Fatalf("dials = %d, want 2 (poisoned conn must be replaced)", d)
	}
}

// TestMuxCorruptReplyFailsAllPending: a frame that parses as garbage (not
// just a short read) also poisons the connection, failing every pipelined
// in-flight call rather than leaving them parked forever.
func TestMuxCorruptReplyFailsAllPending(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	var corrupt atomic.Bool
	corrupt.Store(true)
	release := make(chan struct{})
	tm.mangleReply = func(body []byte) []byte {
		if corrupt.Load() {
			return []byte{0xff} // undecodable body
		}
		return body
	}
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		<-release
		return req.Payload, nil
	})
	const callers = 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := tm.Call(context.Background(), Request{From: "cli", To: "srv"})
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let all callers enqueue
	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; err == nil {
			t.Fatal("pending call must fail when the conn is poisoned")
		}
	}
	corrupt.Store(false)
	if _, err := tm.Call(context.Background(), Request{From: "cli", To: "srv"}); err != nil {
		t.Fatalf("call after poisoned conn: %v", err)
	}
}

// TestMuxCtxCancelKeepsConn pins the OTHER half of the connection-state
// rule: abandoning a call on ctx cancellation does NOT discard the mux
// connection — the demux drops the late reply and the conn stays usable.
func TestMuxCtxCancelKeepsConn(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	block := make(chan struct{})
	var calls atomic.Int64
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		if calls.Add(1) == 1 {
			<-block // first call hangs until after the caller gave up
		}
		return req.Payload, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := tm.Call(ctx, Request{From: "cli", To: "srv", Payload: []byte("a")}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	close(block) // late reply arrives with no waiter; demux must drop it
	got, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte("b")})
	if err != nil {
		t.Fatalf("call after cancel: %v", err)
	}
	if string(got) != "b" {
		t.Fatalf("got %q (late reply delivered to wrong caller?)", got)
	}
	if d := tm.dials.Value(); d != 1 {
		t.Fatalf("dials = %d, want 1 (cancel must not discard the mux conn)", d)
	}
}

// TestMuxStaleConnRetriesOnce: a connection severed between calls fails the
// request write; the length-prefixed framing makes the retry safe and the
// caller never sees the blip.
func TestMuxStaleConnRetriesOnce(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	tm.Register("srv", plainEcho)
	if _, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	tm.KillConns("cli", "srv")
	got, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte("b")})
	if err != nil {
		t.Fatalf("call after killed conn: %v", err)
	}
	if string(got) != "b" {
		t.Fatalf("got %q", got)
	}
}

// TestMuxReRegisterDropsOldConns: registering an address again replaces its
// listener, and the pair's cached connection to the old one goes with it —
// the next call must reach the new handler, not be written into a socket
// whose far end is closing and come back as a lost reply.
func TestMuxReRegisterDropsOldConns(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	for round := 0; round < 200; round++ {
		want := fmt.Sprintf("handler %d", round)
		tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) { return []byte(want), nil })
		got, err := tm.Call(context.Background(), Request{From: "cli", To: "srv"})
		if err != nil || string(got) != want {
			t.Fatalf("round %d: call after re-register = %q, %v; want %q", round, got, err, want)
		}
	}
}

// TestMuxSlowPeerCallTimeout covers the slow-peer hole with NO context
// deadline: a peer that accepts the request and then hangs must fail the
// call at CallTimeout instead of pinning the caller forever — and, the
// framing being per-frame, the abandoned call must not poison the
// connection: the next call rides it without a redial.
func TestMuxSlowPeerCallTimeout(t *testing.T) {
	tm := NewTCPMux()
	tm.CallTimeout = 100 * time.Millisecond
	defer tm.Close()
	var hang atomic.Bool
	release := make(chan struct{})
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		if hang.Load() {
			<-release
		}
		return req.Payload, nil
	})
	defer close(release)

	hang.Store(true)
	start := time.Now()
	_, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte("x")})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("call took %v; CallTimeout (100ms) did not bound it", elapsed)
	}

	hang.Store(false)
	dials := tm.dials.Value()
	got, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte("y")})
	if err != nil {
		t.Fatalf("call after the timeout: %v", err)
	}
	if string(got) != "y" {
		t.Fatalf("got %q (late reply delivered to the wrong caller?)", got)
	}
	if tm.dials.Value() != dials {
		t.Fatal("a timed-out call poisoned the connection: the next call redialed")
	}
}

// TestMuxContextDeadlineWins verifies an earlier context deadline
// overrides the per-call timeout.
func TestMuxContextDeadlineWins(t *testing.T) {
	tm := NewTCPMux()
	tm.CallTimeout = 10 * time.Second
	defer tm.Close()
	release := make(chan struct{})
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tm.Call(ctx, Request{From: "cli", To: "srv"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("call took %v; the context deadline did not bound it", elapsed)
	}
}

func TestMuxConcurrentPairs(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	for _, a := range []Addr{"n1", "n2", "n3"} {
		tm.Register(a, plainEcho)
	}
	var wg sync.WaitGroup
	var failed atomic.Int64
	for _, from := range []Addr{"n1", "n2", "n3"} {
		for _, to := range []Addr{"n1", "n2", "n3"} {
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(from, to Addr, i int) {
					defer wg.Done()
					want := fmt.Sprintf("%s->%s/%d", from, to, i)
					got, err := tm.Call(context.Background(), Request{From: from, To: to, Payload: []byte(want)})
					if err != nil || string(got) != want {
						failed.Add(1)
					}
				}(from, to, i)
			}
		}
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d calls failed or got wrong replies", n)
	}
	if d := tm.dials.Value(); d != 9 {
		t.Fatalf("dials = %d, want 9 (one per pair)", d)
	}
}

// TestFaultyWrapsMux: the chaos fault plan fires over the mux transport —
// drops, partitions and heals behave as on Mem.
func TestFaultyWrapsMux(t *testing.T) {
	inner := NewTCPMux()
	defer inner.Close()
	f := NewFaulty(inner, nil)
	var executed atomic.Int64
	f.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		executed.Add(1)
		return req.Payload, nil
	})
	ctx := context.Background()

	f.Faults().Partition("cli", "srv")
	if _, err := f.Call(ctx, Request{From: "cli", To: "srv"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned: got %v", err)
	}
	f.Faults().Heal("cli", "srv")

	f.Faults().DropRequests(1, To("srv"))
	if _, err := f.Call(ctx, Request{From: "cli", To: "srv"}); !errors.Is(err, ErrRequestLost) {
		t.Fatalf("dropped request: got %v", err)
	}
	if executed.Load() != 0 {
		t.Fatal("dropped request must not execute")
	}

	f.Faults().DropReplies(1, To("srv"))
	if _, err := f.Call(ctx, Request{From: "cli", To: "srv"}); !errors.Is(err, ErrReplyLost) {
		t.Fatalf("dropped reply: got %v", err)
	}
	if executed.Load() != 1 {
		t.Fatal("dropped reply must still execute the handler")
	}

	got, err := f.Call(ctx, Request{From: "cli", To: "srv", Payload: []byte("ok")})
	if err != nil || string(got) != "ok" {
		t.Fatalf("clean call: %q, %v", got, err)
	}
}

// TestMuxPropagatesDeadlineToHandler pins the deadline field in the request
// frame: a handler parked on its context must unwind when the CALLER's
// deadline expires, even though the handler runs on the server with no
// native link to the caller's context. Without propagation the handler
// would park until the endpoint dies — and anything serialized behind it
// (locks, shutdown drains) would wedge with it.
func TestMuxPropagatesDeadlineToHandler(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	unblocked := make(chan struct{})
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		<-ctx.Done()
		close(unblocked)
		return nil, ctx.Err()
	})
	tm.Register("cli", plainEcho)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := tm.Call(ctx, Request{From: "cli", To: "srv", Service: "s", Method: "m"})
	if err == nil {
		t.Fatal("call against a parked handler succeeded")
	}
	select {
	case <-unblocked:
		// The handler saw the caller's deadline and unwound.
	case <-time.After(5 * time.Second):
		t.Fatal("handler context never expired: caller deadline was not propagated")
	}
}

// TestMuxStopUnblocksParkedHandlers pins the shutdown half of the same
// contract: Unregister (crash, Close) must cancel the endpoint's base
// context so handlers still in flight unwind, instead of the endpoint's
// drain waiting behind them for their full propagated deadline.
func TestMuxStopUnblocksParkedHandlers(t *testing.T) {
	tm := NewTCPMux()
	tm.CallTimeout = time.Minute // far beyond the test's patience
	defer tm.Close()
	parked := make(chan struct{})
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		close(parked)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	tm.Register("cli", plainEcho)

	callErr := make(chan error, 1)
	go func() {
		_, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Service: "s", Method: "m"})
		callErr <- err
	}()
	<-parked

	done := make(chan struct{})
	go func() {
		tm.Unregister("srv")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Unregister wedged behind a parked handler")
	}
	if err := <-callErr; err == nil {
		t.Fatal("call against an unregistered endpoint succeeded")
	}
}

// TestMuxUnregisterRacingAccept: Unregister must return even when a
// connection is accepted in the instant the listener closes. stop used to
// close the connections it knew of and then wait for every handler; one
// accepted a moment later was never closed, its handler sat in a read for
// ever, and the node crash that called Unregister hung with it. Callers
// dial from several client names at once while the endpoint goes away.
func TestMuxUnregisterRacingAccept(t *testing.T) {
	for round := 0; round < 200; round++ {
		tm := NewTCPMux()
		tm.Register("srv", plainEcho)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(from Addr) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				// Either outcome is fine; only the Unregister below is on trial.
				_, _ = tm.Call(ctx, Request{From: from, To: "srv", Service: "s", Method: "m"})
			}(Addr(fmt.Sprintf("cli%d", i)))
		}
		done := make(chan struct{})
		go func() {
			tm.Unregister("srv")
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Unregister wedged behind a connection accepted as the listener closed", round)
		}
		wg.Wait()
		tm.Close()
	}
}
