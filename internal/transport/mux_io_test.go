package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/metrics"
)

// muxTestStream is a byte stream of request and reply frames as an outbox
// would write them back to back, with what each should decode to.
func muxTestStream(payloads ...[]byte) (stream []byte, want []string) {
	var o muxOutbox
	for i, payload := range payloads {
		req := Request{From: "alpha", To: "beta", Service: "object", Method: "Invoke", Payload: payload}
		start := o.beginFrame()
		o.buf = appendMuxRequest(o.buf, uint64(i+1), 30000, req)
		o.endFrame(start)
		want = append(want, fmt.Sprintf("req %d 30000 %+v", i+1, req))

		res := muxResult{payload: payload, hasErr: i%2 == 1}
		if res.hasErr {
			res.errMsg = "conflict"
		}
		start = o.beginFrame()
		o.buf = appendMuxReply(o.buf, uint64(i+1), res.payload, res.errMsg, res.hasErr)
		o.endFrame(start)
		want = append(want, fmt.Sprintf("rep %d %+v", i+1, res))
	}
	return o.buf, want
}

// decodeMuxStream reads r to its end through the connection read path and
// renders every frame: even frames as requests, odd ones as replies.
func decodeMuxStream(r io.Reader) ([]string, error) {
	bodies, err := readMuxFrames(r)
	names := make(muxInterner)
	var got []string
	for i, body := range bodies {
		if i%2 == 0 {
			id, dl, req, err := parseMuxRequest(body, names)
			if err != nil {
				return got, err
			}
			got = append(got, fmt.Sprintf("req %d %d %+v", id, dl, req))
		} else {
			id, res, err := parseMuxReply(body)
			if err != nil {
				return got, err
			}
			got = append(got, fmt.Sprintf("rep %d %+v", id, res))
		}
	}
	return got, err
}

// TestMuxFrameDecodeIgnoresChunking: how the bytes of a frame stream are cut
// into reads — all at once, one at a time, in halves, or split at any single
// offset — never changes what it decodes to.
func TestMuxFrameDecodeIgnoresChunking(t *testing.T) {
	var stream []byte
	var want []string
	check := func(name string, r io.Reader) {
		got, err := decodeMuxStream(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %d frames differently from the %d written", name, len(got), len(want))
		}
	}
	// One body is larger than the read buffer, so it takes the
	// read-straight-into-the-slice path, and one is larger than a frame
	// chunk, so its buffer grows as it is read.
	stream, want = muxTestStream(nil, []byte("x"), bytes.Repeat([]byte("big"), muxReadBuffer), []byte("tail"), bytes.Repeat([]byte("huge"), muxFrameChunk))
	check("whole", bytes.NewReader(stream))
	check("one byte at a time", iotest.OneByteReader(bytes.NewReader(stream)))
	check("halves", iotest.HalfReader(bytes.NewReader(stream)))
	stream, want = muxTestStream(nil, []byte("x"), []byte("a longer payload"), []byte("tail"))
	for i := 1; i < len(stream); i++ {
		check(fmt.Sprintf("split at %d", i), io.MultiReader(bytes.NewReader(stream[:i]), bytes.NewReader(stream[i:])))
	}
	// A stream cut short mid-frame, in the body or in the prefix, is an error,
	// never a short frame or a clean end.
	lastFrame := 0
	for off := 0; off < len(stream); off += muxPrefixLen + int(binary.BigEndian.Uint32(stream[off:])) {
		lastFrame = off
	}
	for _, cut := range []int{len(stream) - 1, lastFrame + 2} {
		if got, err := decodeMuxStream(bytes.NewReader(stream[:cut])); err == nil || len(got) != len(want)-1 {
			t.Fatalf("stream cut at %d of %d: %d frames, err %v; want %d frames and an error", cut, len(stream), len(got), err, len(want)-1)
		}
	}
}

// TestMuxFrameAllocatesWhatArrives: a prefix that claims the largest frame,
// followed by a few bytes and the end of the stream, makes the reader
// allocate no more than one chunk, not the 64 MiB the prefix claims.
func TestMuxFrameAllocatesWhatArrives(t *testing.T) {
	raw := binary.BigEndian.AppendUint32(nil, maxMuxFrame)
	raw = append(raw, "a few bytes"...)
	br := newMuxReader(bytes.NewReader(raw), new(metrics.Counter))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readMuxFrame(br)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a frame cut short read as %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > muxFrameChunk {
		t.Fatalf("reading %d bytes of a claimed %d-byte frame allocated %d bytes, want at most one %d-byte chunk", len(raw), maxMuxFrame, got, muxFrameChunk)
	}
}

// callEcho issues one call and checks the reply is the caller's own payload.
func callEcho(tm *TCPMux, payload string) error {
	got, err := tm.Call(context.Background(), Request{From: "cli", To: "srv", Service: "s", Method: "m", Payload: []byte(payload)})
	if err == nil && string(got) != payload {
		err = fmt.Errorf("reply stolen: got %q, want %q", got, payload)
	}
	return err
}

// queuedFrames reports how many request frames sit in the pair's outbox
// waiting for the flusher's next write.
func queuedFrames(tm *TCPMux) int {
	tm.connMu.Lock()
	mc := tm.conns[[2]Addr{"cli", "srv"}]
	tm.connMu.Unlock()
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return len(mc.ends)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMuxOneWritePerFrame: with one caller nothing is ever queued behind a
// flush, so every frame costs exactly one write — and about one read.
func TestMuxOneWritePerFrame(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	tm.Register("srv", plainEcho)
	const n = 50
	for i := 0; i < n; i++ {
		if err := callEcho(tm, fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s := tm.Stats()
	if s.RequestFrames != n || s.ReplyFrames != n || s.Writes != 2*n {
		t.Fatalf("stats %+v: want %d request frames, %d reply frames, %d writes", s, n, n, 2*n)
	}
	// Each side's loop issues one read per frame plus the one it is parked in.
	if s.Reads < 2*n || s.Reads > 2*n+2 {
		t.Fatalf("reads = %d for %d frames, want one per frame", s.Reads, 2*n)
	}
	if s.Dials != 1 || s.Poisoned != 0 {
		t.Fatalf("stats %+v: want 1 dial, nothing poisoned", s)
	}
}

// TestMuxCoalescesConcurrentWrites holds one caller inside its write until
// fifteen more have queued their requests behind it: those leave in a single
// write, and every caller still gets its own reply.
func TestMuxCoalescesConcurrentWrites(t *testing.T) {
	const callers = 16
	tm := NewTCPMux()
	defer tm.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var hold atomic.Bool
	tm.tearWrite = func([]byte) int {
		if hold.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
		return -1
	}
	var arrived sync.WaitGroup
	arrived.Add(callers)
	barrier := make(chan struct{})
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		if string(req.Payload) != "warm" {
			arrived.Done()
			<-barrier // replies finish together too
		}
		return req.Payload, nil
	})
	go func() { arrived.Wait(); close(barrier) }()
	if err := callEcho(tm, "warm"); err != nil {
		t.Fatal(err)
	}
	before := tm.Stats()

	hold.Store(true)
	errs := make(chan error, callers)
	go func() { errs <- callEcho(tm, "caller-0") }()
	<-held
	for i := 1; i < callers; i++ {
		go func(i int) { errs <- callEcho(tm, fmt.Sprintf("caller-%d", i)) }(i)
	}
	waitFor(t, "15 queued request frames", func() bool { return queuedFrames(tm) == callers-1 })
	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	s := tm.Stats()
	frames := s.RequestFrames + s.ReplyFrames - before.RequestFrames - before.ReplyFrames
	writes := s.Writes - before.Writes
	if frames != 2*callers {
		t.Fatalf("frames = %d, want %d", frames, 2*callers)
	}
	// Two writes carried the 16 requests; the replies need at most 16 more.
	if writes > callers+2 {
		t.Fatalf("%d writes for %d frames: the queued requests did not share a write", writes, frames)
	}
}

// TestMuxTornBatchRetriesOnlyUnsentFrames pins the retry rule for a batch.
// A write carrying requests Y and Z fails just past Y's last byte: Y was
// wholly written, so it may have executed, and its caller must see
// ErrReplyLost, not a retry; Z was torn, so it cannot have executed, and is
// retried on a fresh dial, executing exactly once. Whether Y did execute is
// the kernel's business — the poisoned connection closes with a reply
// unread, and a reset may discard Y before the server reads it — so Y, like
// X, is held to at most once.
func TestMuxTornBatchRetriesOnlyUnsentFrames(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var hold atomic.Bool
	var torn atomic.Bool
	tm.tearWrite = func(batch []byte) int {
		if hold.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
		first := muxPrefixLen + int(binary.BigEndian.Uint32(batch))
		if first < len(batch) && torn.CompareAndSwap(false, true) {
			return first + 3 // all of Y, and Z's prefix short of a byte
		}
		return -1
	}
	var mu sync.Mutex
	executed := map[string]int{}
	finishY := make(chan struct{})
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		mu.Lock()
		executed[string(req.Payload)]++
		mu.Unlock()
		if string(req.Payload) == "Y" {
			<-finishY // Y's reply must not beat the write failure home
		}
		return req.Payload, nil
	})
	if err := callEcho(tm, "warm"); err != nil {
		t.Fatal(err)
	}

	hold.Store(true)
	errX, errY, errZ := make(chan error, 1), make(chan error, 1), make(chan error, 1)
	go func() { errX <- callEcho(tm, "X") }()
	<-held
	go func() { errY <- callEcho(tm, "Y") }()
	waitFor(t, "Y queued", func() bool { return queuedFrames(tm) == 1 })
	go func() { errZ <- callEcho(tm, "Z") }()
	waitFor(t, "Z queued", func() bool { return queuedFrames(tm) == 2 })
	close(release)

	if err := <-errZ; err != nil {
		t.Fatalf("Z (torn, never executed) must be retried transparently: %v", err)
	}
	if err := <-errY; !errors.Is(err, ErrReplyLost) {
		t.Fatalf("Y (wholly written) got %v, want ErrReplyLost", err)
	}
	close(finishY)
	// X left in an earlier, whole write; the torn one poisoned the connection
	// under it, so it is lost or answered depending on which came first.
	xErr := <-errX
	if xErr != nil && !errors.Is(xErr, ErrReplyLost) {
		t.Fatalf("X got %v", xErr)
	}
	mu.Lock()
	defer mu.Unlock()
	if executed["Z"] != 1 || executed["Y"] > 1 || executed["X"] > 1 || (xErr == nil && executed["X"] != 1) {
		t.Fatalf("executions %v (X answered: %v): want Z once, X and Y at most once, X once if answered", executed, xErr == nil)
	}
	if s := tm.Stats(); s.Dials != 2 || s.Poisoned != 1 {
		t.Fatalf("stats %+v: want the torn connection poisoned, counted once, and one redial", s)
	}
}

// TestMuxBlockedWriteHonoursCallerDeadline: a peer that has stopped reading
// blocks the flusher inside its write. The flusher is a caller; its own
// deadline, not the mux-wide CallTimeout, is what frees it.
func TestMuxBlockedWriteHonoursCallerDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- conn // held open, never read
		}
	}()
	defer func() {
		for conn := range accepted { // Close below closes ln, which ends the accept loop
			conn.Close()
		}
	}()
	tm := NewTCPMux()
	tm.CallTimeout = 30 * time.Second
	defer tm.Close()
	// An endpoint whose listener is the deaf peer's, with no serve loop.
	ep := &muxEndpoint{ln: ln, mux: tm, done: make(chan struct{})}
	ep.baseCtx, ep.cancel = context.WithCancel(context.Background())
	tm.listeners["srv"] = ep

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = tm.Call(ctx, Request{From: "cli", To: "srv", Payload: make([]byte, 32<<20)}) // far beyond the socket buffers
	if err == nil {
		t.Fatal("a call nobody read succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call took %v (%v): the caller's 100ms deadline did not bound its write", elapsed, err)
	}
}

// TestMuxPendingCapCountsFramesBehindStuckWrite: callers that give up while
// a write is stuck free their pending slots but not their queued frames, so
// the cap counts those too and the outbox cannot grow without bound.
func TestMuxPendingCapCountsFramesBehindStuckWrite(t *testing.T) {
	tm := NewTCPMux()
	tm.MaxPending = 2
	defer tm.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var hold atomic.Bool
	tm.tearWrite = func([]byte) int {
		if hold.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
		return -1
	}
	tm.Register("srv", plainEcho)
	if err := callEcho(tm, "warm"); err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	stuck := make(chan error, 1)
	go func() { stuck <- callEcho(tm, "stuck") }()
	<-held
	for i := 0; i < 2; i++ { // each takes the one free slot, queues a frame and gives up
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := tm.Call(ctx, Request{From: "cli", To: "srv", Payload: []byte("gone")})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("abandoned call %d: %v", i, err)
		}
	}
	if err := callEcho(tm, "one too many"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("call with %d frames queued behind the stuck write: %v, want ErrOverloaded", queuedFrames(tm), err)
	}
	close(release)
	if err := <-stuck; err != nil {
		t.Fatal(err)
	}
}

// TestMuxFlusherPastDeadlineHandsOff: a caller whose own deadline has passed
// does not write what is queued — under an expired write deadline that would
// poison a healthy connection — nor abandon it: a goroutine flushes instead.
func TestMuxFlusherPastDeadlineHandsOff(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	tm.Register("srv", plainEcho)
	if err := callEcho(tm, "warm"); err != nil {
		t.Fatal(err)
	}
	mc := tm.conns[[2]Addr{"cli", "srv"}]
	c := muxCallPool.Get().(*muxCall)
	req := Request{From: "cli", To: "srv", Payload: []byte("late")}
	if _, err := mc.send(c, time.Now().Add(-time.Second), 1000, req); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-c.ch:
		if res.connErr != nil || string(res.payload) != "late" {
			t.Fatalf("result %+v: want the echoed payload", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the frame queued by the expired flusher was never written")
	}
	if s := tm.Stats(); s.Dials != 1 || s.Poisoned != 0 {
		t.Fatalf("stats %+v: the connection must survive its flusher's deadline", s)
	}
}

// TestMuxSlowHandlerDoesNotStallPipelinedCalls: with every parked worker
// taken by a slow call, the next request on the same connection still runs
// at once, on a worker spawned for it.
func TestMuxSlowHandlerDoesNotStallPipelinedCalls(t *testing.T) {
	const workers = 4
	tm := NewTCPMux()
	defer tm.Close()
	var entered sync.WaitGroup
	block := make(chan struct{})
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		if string(req.Payload) == "slow" {
			entered.Done()
			<-block
		}
		return req.Payload, nil
	})
	errs := make(chan error, 2*workers)
	for round := 0; round < 2; round++ { // the first round's workers park; the second reuses them
		entered.Add(workers)
		for i := 0; i < workers; i++ {
			go func() { errs <- callEcho(tm, "slow") }()
		}
		entered.Wait()
		if round == 0 {
			close(block)
			for i := 0; i < workers; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			block = make(chan struct{})
		}
	}
	fast := make(chan error, 1)
	go func() { fast <- callEcho(tm, "fast") }()
	select {
	case err := <-fast:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a fast call stalled behind slow calls on the same connection")
	}
	close(block)
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMuxStopWithIdleWorkers: parked workers do not hold up Unregister or
// Close, and neither they nor any connection goroutine outlives the mux.
func TestMuxStopWithIdleWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	tm := NewTCPMux()
	var arrived sync.WaitGroup
	arrived.Add(8)
	barrier := make(chan struct{})
	go func() { arrived.Wait(); close(barrier) }()
	for _, addr := range []Addr{"srv", "srv2"} {
		tm.Register(addr, func(ctx context.Context, req Request) ([]byte, error) {
			arrived.Done()
			<-barrier // four handlers at once per endpoint: four workers each
			return req.Payload, nil
		})
	}
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		to := Addr([]string{"srv", "srv2"}[i%2])
		go func() {
			_, err := tm.Call(context.Background(), Request{From: "cli", To: to})
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	stopped := make(chan struct{})
	go func() {
		tm.Unregister("srv")
		tm.Close()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Unregister/Close wedged behind parked workers")
	}
	waitFor(t, "every mux goroutine to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestMuxCallAllocBudget gates the allocations of one echo call, both sides
// of the socket together (the parent of the outbox rewrite spent 20). A
// context with a deadline is the shape every protocol call has.
func TestMuxCallAllocBudget(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	tm.Register("srv", plainEcho)
	bounded, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	req := Request{From: "cli", To: "srv", Service: "s", Method: "m", Payload: []byte("sixteen bytes ok")}
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"deadline", bounded}} {
		call := func() {
			if _, err := tm.Call(tc.ctx, req); err != nil {
				t.Error(err)
			}
		}
		call() // dial, spawn the worker, fill the intern table
		if allocs := testing.AllocsPerRun(200, call); allocs > 4 {
			t.Fatalf("%s: TCPMux.Call allocates %.1f times per call, budget 4", tc.name, allocs)
		} else {
			t.Logf("%s: %.1f allocations per call", tc.name, allocs)
		}
	}
}

// TestMuxExpiredContextNeverSent: a call whose deadline has already passed
// fails with the context's error before anything is registered or written —
// it used to go out carrying a wrapped-around deadline field.
func TestMuxExpiredContextNeverSent(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	var executed atomic.Int64
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		executed.Add(1)
		return req.Payload, nil
	})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := tm.Call(ctx, Request{From: "cli", To: "srv"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if err := callEcho(tm, "live"); err != nil { // flushes anything the expired call might have sent
		t.Fatal(err)
	}
	if n, s := executed.Load(), tm.Stats(); n != 1 || s.RequestFrames != 1 {
		t.Fatalf("handler ran %d times, %d request frames sent; the expired call must account for none", n, s.RequestFrames)
	}
}

// TestMuxClampsPropagatedDeadline: a deadline field no sane caller sends is
// clamped, not turned into an overflowed (negative, already expired) timeout.
func TestMuxClampsPropagatedDeadline(t *testing.T) {
	tm := NewTCPMux()
	defer tm.Close()
	tm.Register("srv", func(ctx context.Context, req Request) ([]byte, error) {
		dl, _ := ctx.Deadline()
		return []byte(time.Until(dl).Round(time.Hour).String()), ctx.Err()
	})
	tm.mu.RLock()
	ep := tm.listeners["srv"]
	tm.mu.RUnlock()
	conn, err := net.Dial("tcp", ep.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var o muxOutbox
	start := o.beginFrame()
	o.buf = appendMuxRequest(o.buf, 1, ^uint64(0), Request{From: "cli", To: "srv"})
	o.endFrame(start)
	if _, err := conn.Write(o.buf); err != nil {
		t.Fatal(err)
	}
	body, err := readMuxFrame(newMuxReader(conn, new(metrics.Counter)))
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := parseMuxReply(body)
	if err != nil || res.hasErr || string(res.payload) != "24h0m0s" {
		t.Fatalf("reply %+v, err %v: want a live context bounded at 24h", res, err)
	}
}
