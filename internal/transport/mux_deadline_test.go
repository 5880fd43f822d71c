package transport

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
)

// armed reports whether a handler's context has armed its deadline.
func armed(ctx context.Context) bool {
	hc := ctx.(*muxHandlerCtx)
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.armed != nil
}

// TestMuxHandlerCtxAnswersWithoutArming: Deadline and Err answer from the
// deadline and the endpoint alone — nil before the deadline, DeadlineExceeded
// after it, Canceled once the endpoint stops or the handler returned — and
// only an Err that is no longer nil arms the context, so the error stays.
func TestMuxHandlerCtxAnswersWithoutArming(t *testing.T) {
	base, stop := context.WithCancel(context.Background())
	defer stop()
	dl := time.Now().Add(50 * time.Millisecond)
	hc := &muxHandlerCtx{base: base, deadline: dl}
	if got, ok := hc.Deadline(); !ok || !got.Equal(dl) {
		t.Fatalf("Deadline() = %v, %v; want %v, true", got, ok, dl)
	}
	if err := hc.Err(); err != nil || armed(hc) {
		t.Fatalf("before the deadline: Err() = %v, armed %v; want nil, unarmed", err, armed(hc))
	}
	time.Sleep(time.Until(dl))
	if err := hc.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("after the deadline: Err() = %v, want DeadlineExceeded", err)
	}
	stop()
	if err := hc.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stop after the deadline changed Err() to %v", err)
	}
	select {
	case <-hc.Done():
	default:
		t.Fatal("Done() open after Err() reported the deadline")
	}
	hc.release()

	base, stop = context.WithCancel(context.Background())
	hc = &muxHandlerCtx{base: base, deadline: time.Now().Add(time.Hour)}
	stop()
	if err := hc.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("endpoint stopped: Err() = %v, want Canceled", err)
	}
	hc.release()

	hc = &muxHandlerCtx{base: context.Background(), deadline: time.Now().Add(time.Hour)}
	hc.release()
	if err := hc.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("handler returned: Err() = %v, want Canceled", err)
	}
	select {
	case <-hc.Done():
	default:
		t.Fatal("Done() open after the handler returned")
	}
}

// TestMuxHandlerContextArmsOnlyOnWait: a handler that only reads its
// context's deadline and error leaves it unarmed, and the deadline it reads
// is the caller's plus the grace margin.
func TestMuxHandlerContextArmsOnlyOnWait(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	type seen struct {
		left   time.Duration
		err    error
		before bool // armed before Done
		after  bool // armed after Done
	}
	got := make(chan seen, 1)
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		dl, _ := ctx.Deadline()
		s := seen{left: time.Until(dl), err: ctx.Err(), before: armed(ctx)}
		ctx.Done()
		s.after = armed(ctx)
		got <- s
		return nil, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := tm.Call(ctx, Request{From: "cli", To: "srv"}); err != nil {
		t.Fatal(err)
	}
	s := <-got
	if s.err != nil || s.before || !s.after {
		t.Fatalf("%+v: want a nil Err, unarmed until Done and armed after", s)
	}
	if s.left <= muxHandlerGrace || s.left > time.Second+muxHandlerGrace {
		t.Fatalf("handler deadline %v ahead, want within (%v, %v]", s.left, muxHandlerGrace, time.Second+muxHandlerGrace)
	}
}

// deriveAll derives a WithCancel, a (longer) WithTimeout and an AfterFunc
// child from a handler's context, checks that doing so started no
// goroutine — a context whose Value did not resolve to its armed child
// would start one per child to propagate cancellation — and returns what
// ends when each child does.
func deriveAll(t *testing.T, ctx context.Context) []<-chan struct{} {
	before := runtime.NumGoroutine()
	c1, cancel1 := context.WithCancel(ctx)
	c2, cancel2 := context.WithTimeout(ctx, time.Hour)
	fired := make(chan struct{})
	stopAfter := context.AfterFunc(ctx, func() { close(fired) })
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("deriving three children took %d goroutines to %d", before, n)
	}
	ends := []<-chan struct{}{c1.Done(), c2.Done(), fired}
	go func() { // released as a handler would release its children
		<-c1.Done()
		<-c2.Done()
		<-fired
		cancel1()
		cancel2()
		stopAfter()
	}()
	return ends
}

// TestMuxHandlerChildrenEndAtDeadlineAndStop: contexts derived from a
// handler's context end at the propagated deadline and at Unregister, and
// they take no goroutine with them.
func TestMuxHandlerChildrenEndAtDeadlineAndStop(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, byStop := range []bool{false, true} {
		tm := NewTCPMux()
		tm.CallTimeout = time.Minute
		ended := make(chan error, 1)
		parked := make(chan struct{})
		tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
			ends := deriveAll(t, ctx)
			close(parked)
			for _, end := range ends {
				<-end
			}
			ended <- ctx.Err()
			return nil, nil
		})
		callCtx, cancel := context.WithCancel(context.Background())
		if !byStop {
			callCtx, cancel = context.WithTimeout(callCtx, 50*time.Millisecond)
		}
		start := time.Now()
		go tm.Call(callCtx, Request{From: "cli", To: "srv"})
		<-parked
		if byStop {
			tm.Unregister("srv")
		}
		var err error
		select {
		case err = <-ended:
		case <-time.After(10 * time.Second):
			t.Fatalf("byStop=%v: the children never ended", byStop)
		}
		elapsed := time.Since(start)
		switch {
		case byStop && !errors.Is(err, context.Canceled):
			t.Errorf("ended by Unregister with %v, want Canceled", err)
		case !byStop && !errors.Is(err, context.DeadlineExceeded):
			t.Errorf("ended by the deadline with %v, want DeadlineExceeded", err)
		case !byStop && elapsed < muxHandlerGrace:
			t.Errorf("children ended after %v, before the deadline plus grace", elapsed)
		}
		cancel()
		tm.Close()
	}
	waitFor(t, "goroutines back to their baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestMuxNestedCallUnderHandlerContext: a mux call made under a handler's
// own context arms nothing, and still fails at the handler's deadline and
// when the handler's endpoint stops.
func TestMuxNestedCallUnderHandlerContext(t *testing.T) {
	for _, byStop := range []bool{false, true} {
		tm := NewTCPMux()
		tm.CallTimeout = time.Minute
		tm.Register("store", func(ctx context.Context, req Request) ([]byte, error) {
			if string(req.Payload) == "warm" {
				return nil, nil
			}
			<-ctx.Done() // never answers in time
			return nil, ctx.Err()
		})
		// The srv→store connection is dialed up front: a dial under a
		// handler's context waits on it, and so arms it.
		if _, err := tm.Call(context.Background(), Request{From: "srv", To: "store", Payload: []byte("warm")}); err != nil {
			t.Fatal(err)
		}
		type result struct {
			err     error
			took    time.Duration
			unarmed bool
		}
		nested := make(chan result, 1)
		calling := make(chan context.Context, 1)
		tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
			calling <- ctx
			start := time.Now()
			_, err := tm.Call(ctx, Request{From: "srv", To: "store"})
			nested <- result{err, time.Since(start), !armed(ctx)}
			return nil, err
		})
		callCtx, cancel := context.WithCancel(context.Background())
		if !byStop {
			callCtx, cancel = context.WithTimeout(callCtx, 50*time.Millisecond)
		}
		go tm.Call(callCtx, Request{From: "cli", To: "srv"})
		hctx := <-calling
		if byStop {
			time.Sleep(20 * time.Millisecond) // let the nested call park
			if armed(hctx) {
				t.Error("the parked nested call armed its handler's context")
			}
			tm.Unregister("srv")
		}
		var r result
		select {
		case r = <-nested:
		case <-time.After(10 * time.Second):
			t.Fatalf("byStop=%v: the nested call never ended", byStop)
		}
		switch {
		case byStop && !errors.Is(r.err, context.Canceled):
			t.Errorf("nested call ended by Unregister with %v, want Canceled", r.err)
		case !byStop && !errors.Is(r.err, context.DeadlineExceeded):
			t.Errorf("nested call ended by the deadline with %v, want DeadlineExceeded", r.err)
		case !byStop && (r.took < muxHandlerGrace-50*time.Millisecond || r.took > 5*time.Second):
			t.Errorf("nested call took %v, want the handler's deadline (about %v)", r.took, muxHandlerGrace)
		case !byStop && !r.unarmed:
			t.Error("the nested call armed its handler's context")
		}
		cancel()
		tm.Close()
	}
}

// TestMuxSlowWriteLeavesNoDeadlineArmed: a write that blocks against a slow
// reader runs under a socket deadline and completes; a call made after that
// deadline has passed still goes out on the same connection, so the write
// deadline was disarmed, not left to expire under the next write. The test
// checks its own precondition: when the reader starts, the caller is still
// inside its write, which therefore blocked and armed the deadline.
func TestMuxSlowWriteLeavesNoDeadlineArmed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tm := NewTCPMux()
	tm.CallTimeout = 5 * time.Second
	writing := make(chan bool, 1)
	peerDone := make(chan error, 1)
	go func() { // a mux server that starts reading late, then echoes
		conn, err := ln.Accept()
		if err != nil {
			peerDone <- err
			return
		}
		defer conn.Close()
		time.Sleep(200 * time.Millisecond)
		writing <- stillFlushing(tm)
		br := newMuxReader(conn, new(metrics.Counter))
		for {
			body, err := readMuxFrame(br)
			if err != nil {
				peerDone <- nil
				return
			}
			id, _, req, err := parseMuxRequest(body, nil)
			if err != nil {
				peerDone <- err
				return
			}
			var o muxOutbox
			start := o.beginFrame()
			o.buf = appendMuxReply(o.buf, id, req.Payload[:min(len(req.Payload), 8)], "", false)
			o.endFrame(start)
			if _, err := conn.Write(o.buf); err != nil {
				peerDone <- err
				return
			}
		}
	}()
	ep := &muxEndpoint{ln: ln, mux: tm, done: make(chan struct{})}
	ep.baseCtx, ep.cancel = context.WithCancel(context.Background())
	tm.listeners["srv"] = ep

	const limit = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	// Twice what a loopback socket pair with a 4 MiB send buffer holds (a
	// little under 4 MiB): large enough to block, small enough to finish well
	// inside the second under the race detector.
	big := make([]byte, 8<<20)
	if _, err := tm.Call(ctx, Request{From: "cli", To: "srv", Payload: big}); err != nil {
		t.Fatalf("a write the reader drained late failed: %v", err)
	}
	if !<-writing {
		t.Fatalf("a %d-byte write had left before the reader started: it never blocked, so it armed no deadline", len(big))
	}
	<-ctx.Done() // the blocked write's deadline has passed
	if got, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Payload: []byte("after")}); err != nil || string(got) != "after" {
		t.Fatalf("call after the deadline: %q, %v", got, err)
	}
	if s := tm.Stats(); s.Dials != 1 || s.Poisoned != 0 || s.Writes != 2 {
		t.Fatalf("stats %+v: want both calls on one healthy connection, one write each", s)
	}
	tm.Close()
	ln.Close()
	if err := <-peerDone; err != nil {
		t.Fatal(err)
	}
}

// stillFlushing reports whether the cli -> srv connection's caller is still
// inside a write.
func stillFlushing(tm *TCPMux) bool {
	tm.connMu.Lock()
	mc := tm.conns[[2]Addr{"cli", "srv"}]
	tm.connMu.Unlock()
	if mc == nil {
		return false
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.flushing
}
