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

// faultyNet is a network that runs the fault pipeline: *Mem and *Faulty.
type faultyNet interface {
	Network
	Faults() *Faults
}

// carriers are the two carriers the one fault pipeline rides. new builds a
// fresh network whose plan is seeded with seed; a socket carrier is closed
// when the test ends.
var carriers = []struct {
	name string
	new  func(t *testing.T, seed int64) faultyNet
}{
	{"mem", func(t *testing.T, seed int64) faultyNet {
		return NewMem(MemOptions{}, NewFaultsSeeded(seed))
	}},
	{"mux", func(t *testing.T, seed int64) faultyNet {
		inner := NewTCPMux()
		t.Cleanup(inner.Close)
		return NewFaulty(inner, NewFaultsSeeded(seed))
	}},
}

// TestFaultPipeline runs every carrier-independent property of the fault
// pipeline on both carriers: Faulty.Call is the only copy of it, so what
// holds over Mem must hold over sockets.
func TestFaultPipeline(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, newNet func(seed int64) faultyNet)
	}{
		{"ProbabilisticDropIsSeedDeterministic", testProbabilisticDropIsSeedDeterministic},
		{"DelayRequestsAddsLatency", testDelayRequestsAddsLatency},
		{"DuplicateRequestsDeliversTwice", testDuplicateRequestsDeliversTwice},
		{"ReorderSwapsConcurrentRequests", testReorderSwapsConcurrentRequests},
		{"ReorderHoldExpiresWithoutTraffic", testReorderHoldExpiresWithoutTraffic},
		{"ClearReleasesParkedReorder", testClearReleasesParkedReorder},
		{"ObserverHooksSeeSideEffectOrdering", testObserverHooksSeeSideEffectOrdering},
		{"ReplyHookMayUnregisterCallee", testReplyHookMayUnregisterCallee},
		{"UndeliveredRequestSkipsReplyStage", testUndeliveredRequestSkipsReplyStage},
		{"AbandonedCallSkipsReplyStage", testAbandonedCallSkipsReplyStage},
		{"DelayRepliesModelsGrayFailure", testDelayRepliesModelsGrayFailure},
	}
	for _, c := range carriers {
		for _, tc := range cases {
			t.Run(c.name+"/"+tc.name, func(t *testing.T) {
				tc.run(t, func(seed int64) faultyNet { return c.new(t, seed) })
			})
		}
	}
}

func testProbabilisticDropIsSeedDeterministic(t *testing.T, newNet func(int64) faultyNet) {
	run := func(seed int64) []bool {
		n := newNet(seed)
		n.Register("b", echoHandler)
		n.Faults().DropRequestsP(0.5, -1, To("b"))
		out := make([]bool, 40)
		for i := range out {
			_, err := n.Call(context.Background(), Request{From: "a", To: "b"})
			out[i] = err == nil
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, a, b)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical coin flips (suspicious)")
	}
	// p=0.5 over 40 calls: both outcomes must occur.
	drops := 0
	for _, ok := range a {
		if !ok {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("p=0.5 produced %d/%d drops", drops, len(a))
	}
}

func testDelayRequestsAddsLatency(t *testing.T, newNet func(int64) faultyNet) {
	n := newNet(1)
	n.Register("b", echoHandler)
	n.Faults().DelayRequests(1, -1, 30*time.Millisecond, To("b"))
	start := time.Now()
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	// Uniform [0,30ms) per call: all five drawing ~0 is vanishingly
	// unlikely; just require SOME added latency and no errors.
	if time.Since(start) == 0 {
		t.Fatal("delay rule added no latency")
	}
	// The delayed call still respects context cancellation.
	n.Faults().Clear()
	n.Faults().DelayRequests(1, -1, 10*time.Second, To("b"))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := n.Call(ctx, Request{From: "a", To: "b"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func testDuplicateRequestsDeliversTwice(t *testing.T, newNet func(int64) faultyNet) {
	n := newNet(1)
	var executed atomic.Int32
	n.Register("b", func(ctx context.Context, req Request) ([]byte, error) {
		executed.Add(1)
		return []byte("ok"), nil
	})
	n.Faults().DuplicateRequests(1, 1, To("b"))
	resp, err := n.Call(context.Background(), Request{From: "a", To: "b"})
	if err != nil || string(resp) != "ok" {
		t.Fatalf("call: %q, %v", resp, err)
	}
	if got := executed.Load(); got != 2 {
		t.Fatalf("handler executed %d times, want 2 (duplicate)", got)
	}
	// One-shot: the next call delivers once.
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 3 {
		t.Fatalf("handler executed %d times total, want 3", got)
	}
}

func testReorderSwapsConcurrentRequests(t *testing.T, newNet func(int64) faultyNet) {
	n := newNet(1)
	var mu sync.Mutex
	var order []string
	n.Register("b", func(ctx context.Context, req Request) ([]byte, error) {
		mu.Lock()
		order = append(order, string(req.Payload))
		mu.Unlock()
		return nil, nil
	})
	n.Faults().ReorderRequests(1, 1, 5*time.Second, To("b"))

	// First request parks; the second overtakes and releases it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = n.Call(context.Background(), Request{From: "a", To: "b", Payload: []byte("first")})
	}()
	// Give the first call time to reach the park point.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	early := len(order)
	mu.Unlock()
	if early != 0 {
		t.Fatal("the first request was delivered instead of parked")
	}
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b", Payload: []byte("second")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("parked request never released")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 {
		t.Fatalf("deliveries = %v", order)
	}
	// The parked request is released only once its overtaker's delivery has
	// returned, so the order is pinned on every carrier.
	if order[0] != "second" {
		t.Fatalf("delivery order = %v, want the second request to overtake", order)
	}
}

func testReorderHoldExpiresWithoutTraffic(t *testing.T, newNet func(int64) faultyNet) {
	n := newNet(1)
	n.Register("b", echoHandler)
	n.Faults().ReorderRequests(1, 1, 30*time.Millisecond, To("b"))
	start := time.Now()
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("parked request released after %v, want ~30ms hold", elapsed)
	}
}

func testClearReleasesParkedReorder(t *testing.T, newNet func(int64) faultyNet) {
	n := newNet(1)
	n.Register("b", echoHandler)
	n.Faults().ReorderRequests(1, 1, time.Hour, To("b"))
	done := make(chan error, 1)
	go func() {
		_, err := n.Call(context.Background(), Request{From: "a", To: "b"})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	n.Faults().Clear()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released call failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Clear did not release the parked request")
	}
}

func testObserverHooksSeeSideEffectOrdering(t *testing.T, newNet func(int64) faultyNet) {
	n := newNet(1)
	var handlerRan atomic.Bool
	n.Register("b", func(ctx context.Context, req Request) ([]byte, error) {
		handlerRan.Store(true)
		return nil, nil
	})
	var reqSaw, replySaw atomic.Bool
	n.Faults().OnRequest(1, To("b"), func(Request) { reqSaw.Store(handlerRan.Load()) })
	n.Faults().OnReply(1, To("b"), func(Request) { replySaw.Store(handlerRan.Load()) })
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if reqSaw.Load() {
		t.Fatal("OnRequest hook ran after the handler")
	}
	if !replySaw.Load() {
		t.Fatal("OnReply hook ran before the handler")
	}
}

// testReplyHookMayUnregisterCallee is the nemesis idiom the chaos harness
// relies on: a reply hook crashes (unregisters) the callee after the
// handler's side effects are durable, while the in-flight reply still
// returns — "voted commit, then died before learning the outcome".
func testReplyHookMayUnregisterCallee(t *testing.T, newNet func(int64) faultyNet) {
	n := newNet(1)
	n.Register("b", echoHandler)
	n.Faults().OnReply(1, To("b"), func(Request) { n.Unregister("b") })
	resp, err := n.Call(context.Background(), Request{From: "a", To: "b", Payload: []byte("x")})
	if err != nil || string(resp) != "echo:x" {
		t.Fatalf("in-flight reply lost: %q, %v", resp, err)
	}
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want unreachable after hook crash", err)
	}
}

// testUndeliveredRequestSkipsReplyStage: a request the carrier could not
// deliver (no endpoint) has no handler execution to duplicate and no reply
// to hold, observe or drop, so it consumes none of those rules' uses — the
// one-shot rule is still armed for the first request that does arrive.
func testUndeliveredRequestSkipsReplyStage(t *testing.T, newNet func(int64) faultyNet) {
	n := newNet(1)
	var executed, observed atomic.Int32
	n.Faults().DuplicateRequests(1, 1, To("b"))
	n.Faults().OnReply(1, To("b"), func(Request) { observed.Add(1) })
	n.Faults().DropReplies(1, To("b"))
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want unreachable", err)
	}
	if observed.Load() != 0 {
		t.Fatal("OnReply hook fired for a request that was never delivered")
	}
	n.Register("b", func(ctx context.Context, req Request) ([]byte, error) {
		executed.Add(1)
		return nil, nil
	})
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); !errors.Is(err, ErrReplyLost) {
		t.Fatalf("err = %v, want the still-armed reply drop to fire", err)
	}
	if executed.Load() != 2 || observed.Load() != 1 {
		t.Fatalf("executed %d times, observed %d replies; want 2 (duplicate) and 1", executed.Load(), observed.Load())
	}
}

// testAbandonedCallSkipsReplyStage: a call whose context died before the
// carrier produced a reply stops there — the caller already holds the
// ambiguous timeout, and no reply-stage rule is spent on it.
func testAbandonedCallSkipsReplyStage(t *testing.T, newNet func(int64) faultyNet) {
	n := newNet(1)
	var observed atomic.Int32
	n.Register("b", func(ctx context.Context, req Request) ([]byte, error) {
		if string(req.Payload) == "park" {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return nil, nil
	})
	n.Faults().OnReply(1, To("b"), func(Request) { observed.Add(1) })
	n.Faults().DropReplies(1, To("b"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := n.Call(ctx, Request{From: "a", To: "b", Payload: []byte("park")}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if observed.Load() != 0 {
		t.Fatal("OnReply hook fired for a call that produced no reply")
	}
	if _, err := n.Call(context.Background(), Request{From: "a", To: "b"}); !errors.Is(err, ErrReplyLost) || observed.Load() != 1 {
		t.Fatalf("err = %v, observed = %d; want the still-armed hook and reply drop to fire", err, observed.Load())
	}
}

// TestSameSeedSameDecisionsOnBothCarriers pins what "one pipeline" buys a
// chaos schedule: for the same seed and the same sequential traffic, the
// drop and duplicate decisions come out call for call identical whether the
// plan rides Mem or sockets.
func TestSameSeedSameDecisionsOnBothCarriers(t *testing.T) {
	trace := func(n faultyNet) []string {
		var executed atomic.Int32
		n.Register("b", func(ctx context.Context, req Request) ([]byte, error) {
			executed.Add(1)
			return nil, nil
		})
		n.Faults().DropRequestsP(0.3, -1, To("b"))
		n.Faults().DuplicateRequests(0.4, -1, To("b"))
		n.Faults().DropRepliesP(0.3, -1, To("b"))
		out := make([]string, 80)
		for i := range out {
			before := executed.Load()
			_, err := n.Call(context.Background(), Request{From: "a", To: "b"})
			outcome := "ok"
			switch {
			case errors.Is(err, ErrRequestLost):
				outcome = "request lost"
			case errors.Is(err, ErrReplyLost):
				outcome = "reply lost"
			case err != nil:
				t.Fatalf("call %d: %v", i, err)
			}
			out[i] = fmt.Sprintf("%s, %d deliveries", outcome, executed.Load()-before)
		}
		return out
	}
	traces := make([][]string, len(carriers))
	for i, c := range carriers {
		traces[i] = trace(c.new(t, 11))
	}
	kinds := map[string]bool{}
	for i, got := range traces[0] {
		if want := traces[1][i]; got != want {
			t.Fatalf("call %d: %s says %q, %s says %q", i, carriers[0].name, got, carriers[1].name, want)
		}
		kinds[got] = true
	}
	// 80 calls at these odds must show every decision, or the comparison
	// above compared nothing.
	for _, k := range []string{"ok, 1 deliveries", "ok, 2 deliveries", "request lost, 0 deliveries", "reply lost, 1 deliveries", "reply lost, 2 deliveries"} {
		if !kinds[k] {
			t.Fatalf("decision %q never occurred in %v", k, traces[0])
		}
	}
}

// TestFaultsMutationUnderTraffic is the Clear/Heal race audit: rules,
// partitions, seeds and hooks are mutated from many goroutines while
// traffic flows. Run under -race; the assertions are secondary to the
// detector.
func TestFaultsMutationUnderTraffic(t *testing.T) {
	n := NewMem(MemOptions{}, NewFaultsSeeded(42))
	for i := 0; i < 4; i++ {
		n.Register(Addr(fmt.Sprintf("n%d", i)), echoHandler)
	}
	f := n.Faults()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Traffic: every node calls every other node in a loop.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				to := Addr(fmt.Sprintf("n%d", j%4))
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				_, _ = n.Call(ctx, Request{From: Addr(fmt.Sprintf("n%d", i)), To: to, Service: "s", Method: "m"})
				cancel()
			}
		}(i)
	}

	// Mutators: install every rule kind, partition/heal, reseed, clear.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				a := Addr(fmt.Sprintf("n%d", j%4))
				b := Addr(fmt.Sprintf("n%d", (j+1)%4))
				switch j % 10 {
				case 0:
					f.DropRequestsP(0.3, 4, To(a))
				case 1:
					f.DropRepliesP(0.3, 4, Between(a, b))
				case 2:
					f.DelayRequests(0.5, 4, time.Millisecond, To(a))
				case 3:
					f.DuplicateRequests(0.5, 2, ToMethod(a, "s", "m"))
				case 4:
					f.ReorderRequests(0.5, 2, time.Millisecond, To(a))
				case 5:
					f.Partition(a, b)
				case 6:
					f.Heal(a, b)
				case 7:
					f.OnReply(2, To(a), func(Request) {})
				case 8:
					f.Reseed(int64(j))
				case 9:
					f.Clear()
				}
			}
		}(i)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	f.Clear()
	// The network must still function after the storm.
	if _, err := n.Call(context.Background(), Request{From: "n0", To: "n1"}); err != nil {
		t.Fatalf("network broken after mutation storm: %v", err)
	}
}

// TestFaultArmedMidTrafficHitsNextCall pins the unarmed plan's fast path
// (Faulty.Call skips the pipeline until something is installed): a rule
// armed after a thousand clean calls, with other callers still in flight,
// governs the very next call; Clear disarms, and arming again after it
// works the same way.
func TestFaultArmedMidTrafficHitsNextCall(t *testing.T) {
	ab := Request{From: "a", To: "b", Service: "s", Method: "m"}
	wantErr := func(want error) func(*testing.T, *Faults, error, int32) {
		return func(t *testing.T, _ *Faults, err error, _ int32) {
			if !errors.Is(err, want) {
				t.Fatalf("the call after arming: err = %v, want %v", err, want)
			}
		}
	}
	arms := []struct {
		name string
		arm  func(f *Faults, hooked *atomic.Int32)
		// check judges the first call after arming.
		check func(t *testing.T, f *Faults, err error, hooked int32)
	}{
		{"Partition", func(f *Faults, _ *atomic.Int32) { f.Partition("a", "b") }, wantErr(ErrUnreachable)},
		{"DropRequests", func(f *Faults, _ *atomic.Int32) { f.DropRequests(1, Between("a", "b")) }, wantErr(ErrRequestLost)},
		{"DropReplies", func(f *Faults, _ *atomic.Int32) { f.DropReplies(1, Between("a", "b")) }, wantErr(ErrReplyLost)},
		{"DelayRequests", func(f *Faults, _ *atomic.Int32) { f.DelayRequests(1, 1, time.Millisecond, Between("a", "b")) },
			func(t *testing.T, f *Faults, err error, _ int32) {
				// The delay is drawn from [0, max), so the clock proves
				// nothing; the rule's spent budget of one does.
				f.mu.Lock()
				left := f.delays[0].remaining
				f.mu.Unlock()
				if err != nil || left != 0 {
					t.Fatalf("the call after arming: err = %v, delay rule has %d uses left, want nil and 0", err, left)
				}
			}},
		{"OnRequest", func(f *Faults, hooked *atomic.Int32) {
			f.OnRequest(-1, Between("a", "b"), func(Request) { hooked.Add(1) })
		},
			func(t *testing.T, _ *Faults, err error, hooked int32) {
				if err != nil || hooked != 1 {
					t.Fatalf("the call after arming: err = %v, hook ran %d times, want nil and once", err, hooked)
				}
			}},
	}
	for _, c := range carriers {
		for _, tc := range arms {
			t.Run(c.name+"/"+tc.name, func(t *testing.T) {
				n := c.new(t, 1)
				n.Register("b", echoHandler)
				ctx := context.Background()

				// Other callers stay in flight across the arming, on a pair no
				// rule here matches: they must run clean throughout.
				stop := make(chan struct{})
				var wg sync.WaitGroup
				var othersFailed atomic.Int32
				for i := 0; i < 3; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							if _, err := n.Call(ctx, Request{From: "c", To: "b"}); err != nil {
								othersFailed.Add(1)
							}
						}
					}()
				}
				defer func() {
					close(stop)
					wg.Wait()
					if n := othersFailed.Load(); n != 0 {
						t.Errorf("%d calls on a pair no rule matches failed", n)
					}
				}()

				// Round two arms a plan that Clear disarmed.
				for round := 0; round < 2; round++ {
					for i := 0; i < 1000; i++ {
						if _, err := n.Call(ctx, ab); err != nil {
							t.Fatalf("round %d: clean call %d: %v", round, i, err)
						}
					}
					var hooked atomic.Int32
					tc.arm(n.Faults(), &hooked)
					_, err := n.Call(ctx, ab)
					tc.check(t, n.Faults(), err, hooked.Load())
					n.Faults().Clear()
					if n.Faults().armed.Load() {
						t.Fatalf("round %d: plan still armed after Clear", round)
					}
				}
			})
		}
	}
}
