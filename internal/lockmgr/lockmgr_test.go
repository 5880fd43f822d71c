package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func ctxShort(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	t.Cleanup(cancel)
	return ctx
}

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{Read, Read, true},
		{Read, ExcludeWrite, true},
		{ExcludeWrite, Read, true},
		{ExcludeWrite, ExcludeWrite, false},
		{Read, Write, false},
		{Write, Read, false},
		{Write, Write, false},
		{Write, ExcludeWrite, false},
		{ExcludeWrite, Write, false},
		{Adjust, Adjust, true},
		{Adjust, Read, true},
		{Read, Adjust, true},
		{Adjust, Write, false},
		{Write, Adjust, false},
		{Adjust, ExcludeWrite, false},
		{ExcludeWrite, Adjust, false},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b); got != c.want {
			t.Errorf("Compatible(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSharedReaders(t *testing.T) {
	m := New(nil)
	for _, o := range []Owner{"a", "b", "c"} {
		if err := m.Acquire(context.Background(), o, "k", Read); err != nil {
			t.Fatalf("reader %s: %v", o, err)
		}
	}
	if got := len(m.HolderModes("k")); got != 3 {
		t.Fatalf("holders = %d, want 3", got)
	}
}

func TestWriteExcludesAll(t *testing.T) {
	m := New(nil)
	if err := m.Acquire(context.Background(), "w", "k", Write); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctxShort(t), "r", "k", Read); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read under write: %v", err)
	}
	if err := m.TryAcquire("x", "k", Write); !errors.Is(err, ErrRefused) {
		t.Fatalf("write under write: %v", err)
	}
}

func TestExcludeWriteSharesWithReaders(t *testing.T) {
	// §4.2.1: exclude-write can be shared with read locks.
	m := New(nil)
	if err := m.Acquire(context.Background(), "r1", "k", Read); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(context.Background(), "r2", "k", Read); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire("excluder", "k", ExcludeWrite); err != nil {
		t.Fatalf("exclude-write alongside readers should succeed: %v", err)
	}
	// But a second exclude-writer conflicts.
	if err := m.TryAcquire("excluder2", "k", ExcludeWrite); !errors.Is(err, ErrRefused) {
		t.Fatalf("second exclude-write: %v", err)
	}
	// And a writer conflicts.
	if err := m.TryAcquire("w", "k", Write); !errors.Is(err, ErrRefused) {
		t.Fatalf("write alongside exclude-write: %v", err)
	}
}

func TestPromotionReadToWriteRefusedUnderSharedReaders(t *testing.T) {
	// §4.2.1: with several read locks held, a read->write promotion request
	// is refused; read->exclude-write succeeds.
	m := New(nil)
	for _, o := range []Owner{"me", "other1", "other2"} {
		if err := m.Acquire(context.Background(), o, "k", Read); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.TryPromote("me", "k", Read, Write); !errors.Is(err, ErrRefused) {
		t.Fatalf("read->write with other readers: %v, want refused", err)
	}
	if err := m.TryPromote("me", "k", Read, ExcludeWrite); err != nil {
		t.Fatalf("read->exclude-write with other readers: %v", err)
	}
	if !m.Holds("me", "k", ExcludeWrite) {
		t.Fatal("promotion did not take effect")
	}
}

func TestPromotionReadToWriteSoleReader(t *testing.T) {
	m := New(nil)
	if err := m.Acquire(context.Background(), "me", "k", Read); err != nil {
		t.Fatal(err)
	}
	if err := m.TryPromote("me", "k", Read, Write); err != nil {
		t.Fatalf("sole-reader promotion: %v", err)
	}
	if !m.Holds("me", "k", Write) {
		t.Fatal("expected write hold after promotion")
	}
}

func TestPromoteWithoutHoldingRefused(t *testing.T) {
	m := New(nil)
	if err := m.TryPromote("ghost", "k", Read, Write); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Acquire(context.Background(), "o", "k", Write); err != nil {
		t.Fatal(err)
	}
	if err := m.TryPromote("o", "k", Read, Write); !errors.Is(err, ErrRefused) {
		t.Fatalf("promoting mode not held: %v", err)
	}
}

func TestReleaseWakesWaiter(t *testing.T) {
	m := New(nil)
	if err := m.Acquire(context.Background(), "a", "k", Write); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- m.Acquire(context.Background(), "b", "k", Write)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("waiter should be blocked, got %v", err)
	default:
	}
	if err := m.Release("a", "k", Write); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestReleaseAll(t *testing.T) {
	m := New(nil)
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := m.Acquire(context.Background(), "a", k, Write); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAll("a")
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := m.TryAcquire("b", k, Write); err != nil {
			t.Fatalf("after ReleaseAll, %s: %v", k, err)
		}
	}
}

// TestReleaseAllFailsTheOwnersQueuedAcquires: an acquire still parked when
// its owner's action ends must fail, not be granted later — over a socket
// transport the handler that issued it outlives the caller who gave up and
// ended the action, and a lock granted to an ended action is never
// released (the chaos suite's mux runs wedged on exactly that: a recovery
// Include granted the St write lock after its EndAction).
func TestReleaseAllFailsTheOwnersQueuedAcquires(t *testing.T) {
	m := New(nil)
	if err := m.Acquire(context.Background(), "holder", "k", Write); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- m.Acquire(context.Background(), "ended", "k", Write) }()
	behind := make(chan error, 1)
	go func() {
		for m.QueueDepth("k") != 1 {
			time.Sleep(100 * time.Microsecond)
		}
		behind <- m.Acquire(context.Background(), "next", "k", Write)
	}()
	for m.QueueDepth("k") != 2 {
		time.Sleep(100 * time.Microsecond)
	}
	m.ReleaseAll("ended")
	if err := <-parked; !errors.Is(err, ErrReleased) {
		t.Fatalf("parked acquire of the ended owner: %v, want ErrReleased", err)
	}
	// The queue moves on without it: the waiter behind gets the lock.
	m.ReleaseAll("holder")
	if err := <-behind; err != nil {
		t.Fatalf("waiter behind the released one: %v", err)
	}
	if m.Holds("ended", "k", Write) || !m.Holds("next", "k", Write) {
		t.Fatalf("holders after the hand-off: %v", m.HolderModes("k"))
	}
}

func TestReleaseErrors(t *testing.T) {
	m := New(nil)
	if err := m.Release("nobody", "k", Read); err == nil {
		t.Fatal("releasing unheld entry should error")
	}
	if err := m.Acquire(context.Background(), "a", "k", Read); err != nil {
		t.Fatal(err)
	}
	if err := m.Release("a", "k", Write); err == nil {
		t.Fatal("releasing wrong mode should error")
	}
}

func TestReentrancy(t *testing.T) {
	m := New(nil)
	if err := m.Acquire(context.Background(), "a", "k", Read); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(context.Background(), "a", "k", Read); err != nil {
		t.Fatal(err)
	}
	if err := m.Release("a", "k", Read); err != nil {
		t.Fatal(err)
	}
	// Still held once.
	if !m.Holds("a", "k", Read) {
		t.Fatal("re-entrant lock dropped too early")
	}
	if err := m.Release("a", "k", Read); err != nil {
		t.Fatal(err)
	}
	if m.Holds("a", "k", Read) {
		t.Fatal("lock retained after final release")
	}
}

// nested ancestry for Moss-rule tests: parent "p" of child "p/c" etc.
type pathAncestry struct{}

func (pathAncestry) IsAncestorOf(a, d Owner) bool {
	return len(a) < len(d) && strings.HasPrefix(string(d), string(a)+"/")
}

func TestMossRuleChildAcquiresUnderParent(t *testing.T) {
	m := New(pathAncestry{})
	if err := m.Acquire(context.Background(), "p", "k", Write); err != nil {
		t.Fatal(err)
	}
	// Child may acquire despite parent's conflicting hold.
	if err := m.TryAcquire("p/c", "k", Write); err != nil {
		t.Fatalf("child under parent: %v", err)
	}
	// Unrelated action may not.
	if err := m.TryAcquire("q", "k", Read); !errors.Is(err, ErrRefused) {
		t.Fatalf("stranger: %v", err)
	}
	// Sibling may not (holder p/c is not its ancestor).
	if err := m.TryAcquire("p/d", "k", Write); !errors.Is(err, ErrRefused) {
		t.Fatalf("sibling: %v", err)
	}
}

func TestHoldsSemantics(t *testing.T) {
	m := New(nil)
	if err := m.Acquire(context.Background(), "a", "k", Write); err != nil {
		t.Fatal(err)
	}
	if !m.Holds("a", "k", Read) {
		t.Fatal("write should imply read strength")
	}
	if !m.Holds("a", "k", ExcludeWrite) {
		t.Fatal("write should satisfy exclude-write checks")
	}
	if m.Holds("b", "k", Read) {
		t.Fatal("non-holder must not hold")
	}
}

func TestConcurrentAcquireReleaseNoLostWakeups(t *testing.T) {
	m := New(nil)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := Owner(rune('A' + i))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for j := 0; j < 50; j++ {
				if err := m.Acquire(ctx, o, "hot", Write); err != nil {
					errs <- err
					return
				}
				if err := m.Release(o, "hot", Write); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := m.HolderModes("hot"); len(got) != 0 {
		t.Fatalf("leftover holders: %v", got)
	}
}

// Property: mutual exclusion — a mixed workload of try-acquires never
// yields two simultaneous conflicting holders.
func TestPropertyNoConflictingHolders(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New(nil)
		type held struct {
			owner Owner
			mode  Mode
		}
		var holds []held
		owners := []Owner{"o1", "o2", "o3", "o4"}
		modes := []Mode{Read, Write, ExcludeWrite}
		for _, op := range ops {
			owner := owners[int(op)%len(owners)]
			mode := modes[int(op/4)%len(modes)]
			if op%2 == 0 {
				if err := m.TryAcquire(owner, "k", mode); err == nil {
					holds = append(holds, held{owner, mode})
				}
			} else if len(holds) > 0 {
				h := holds[len(holds)-1]
				holds = holds[:len(holds)-1]
				if err := m.Release(h.owner, "k", h.mode); err != nil {
					return false
				}
			}
			// Invariant: all pairs of distinct holders' strongest modes
			// must be compatible.
			hm := m.HolderModes("k")
			for i := 0; i < len(hm); i++ {
				for j := i + 1; j < len(hm); j++ {
					if !Compatible(hm[i].Mode, hm[j].Mode) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || ExcludeWrite.String() != "exclude-write" {
		t.Fatal("mode strings wrong")
	}
	if Mode(0).String() != "mode(0)" {
		t.Fatal("unknown mode string wrong")
	}
}

func TestDisjointKeysFullLifecycle(t *testing.T) {
	// Hammer the table from many goroutines on disjoint keys —
	// acquire, promote, release, release-all — and verify per-key holder
	// state stays exact. Run with -race to check the locking discipline.
	m := New(NoNesting)
	const workers = 16
	const keysPerWorker = 40
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := Owner(fmt.Sprintf("owner-%d", w))
			for k := 0; k < keysPerWorker; k++ {
				key := fmt.Sprintf("key-%d-%d", w, k)
				if err := m.Acquire(ctx, owner, key, Read); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if err := m.TryPromote(owner, key, Read, Write); err != nil {
					t.Errorf("promote: %v", err)
					return
				}
				if !m.Holds(owner, key, Write) {
					t.Errorf("%s lost write on %s", owner, key)
					return
				}
			}
			// Half release key by key, half in one sweep.
			if w%2 == 0 {
				for k := 0; k < keysPerWorker; k++ {
					key := fmt.Sprintf("key-%d-%d", w, k)
					if err := m.Release(owner, key, Write); err != nil {
						t.Errorf("release: %v", err)
					}
				}
			} else {
				m.ReleaseAll(owner)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for k := 0; k < keysPerWorker; k++ {
			key := fmt.Sprintf("key-%d-%d", w, k)
			if hm := m.HolderModes(key); len(hm) != 0 {
				t.Fatalf("%s still held: %v", key, hm)
			}
		}
	}
}

func TestPromotionContentionOneKey(t *testing.T) {
	// All contenders on ONE key: shared readers, then each
	// tries the §4.2.1 commit-time promotions. Read→Write must be refused
	// while other readers hold; read→ExcludeWrite succeeds for exactly one
	// holder at a time.
	m := New(NoNesting)
	ctx := context.Background()
	const readers = 8
	for i := 0; i < readers; i++ {
		if err := m.Acquire(ctx, Owner(fmt.Sprintf("r%d", i)), "entry", Read); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var excludeWins, writeWins atomic.Int32
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner := Owner(fmt.Sprintf("r%d", i))
			if err := m.TryPromote(owner, "entry", Read, Write); err == nil {
				writeWins.Add(1)
			}
			if err := m.TryPromote(owner, "entry", Read, ExcludeWrite); err == nil {
				excludeWins.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if writeWins.Load() != 0 {
		t.Fatalf("read→write promoted %d times under %d shared readers, want 0", writeWins.Load(), readers)
	}
	if excludeWins.Load() != 1 {
		t.Fatalf("read→exclude-write promoted %d times, want exactly 1", excludeWins.Load())
	}
}

// --- fair bounded queue tests (ISSUE 7) ---

func TestFIFOFairnessNoBarging(t *testing.T) {
	// Writers queue behind a held write lock; releases must grant them in
	// strict arrival order, and a late-arriving compatible reader must not
	// barge past queued writers.
	m := New(nil)
	if err := m.Acquire(context.Background(), "holder", "k", Write); err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := Owner(fmt.Sprintf("w%d", i))
			if err := m.Acquire(context.Background(), o, "k", Write); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			if err := m.Release(o, "k", Write); err != nil {
				t.Errorf("waiter %d release: %v", i, err)
			}
		}(i)
		// Ensure waiter i is queued before waiter i+1 starts, so arrival
		// order is deterministic.
		for {
			if m.QueueDepth("k") == i+1 {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// With 8 writers queued, a new reader — compatible with nothing held
	// once the writer releases, but behind the queue — must refuse to barge.
	if err := m.TryAcquire("late-reader", "k", Read); !errors.Is(err, ErrRefused) {
		t.Fatalf("reader barged past queued writers: %v", err)
	}
	if err := m.Release("holder", "k", Write); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want strict FIFO", order)
		}
	}
}

func TestCancelledWaiterUnblocksQueueBehindIt(t *testing.T) {
	// reader holds; writer W queues; readers R1,R2 queue behind W (no
	// barging). Cancelling W must let R1,R2 be granted alongside the holder.
	m := New(nil)
	if err := m.Acquire(context.Background(), "r0", "k", Read); err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	werr := make(chan error, 1)
	go func() { werr <- m.Acquire(wctx, "W", "k", Write) }()
	for m.QueueDepth("k") != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	rerrs := make(chan error, 2)
	for i := 1; i <= 2; i++ {
		go func(i int) {
			rerrs <- m.Acquire(context.Background(), Owner(fmt.Sprintf("r%d", i)), "k", Read)
		}(i)
	}
	for m.QueueDepth("k") != 3 {
		time.Sleep(100 * time.Microsecond)
	}
	wcancel()
	if err := <-werr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled writer: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-rerrs; err != nil {
			t.Fatalf("reader behind cancelled writer: %v", err)
		}
	}
	if got := len(m.HolderModes("k")); got != 3 {
		t.Fatalf("holders = %d, want r0,r1,r2", got)
	}
}

func TestReentrantAcquireOvertakesOwnQueue(t *testing.T) {
	// An owner already holding the entry must not deadlock behind strangers
	// waiting on it: its re-entrant acquire may overtake the queue.
	m := New(nil)
	if err := m.Acquire(context.Background(), "a", "k", Read); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), "w", "k", Write) }()
	for m.QueueDepth("k") != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	// Re-entrant read by the holder: must succeed immediately, not queue
	// behind the writer that is waiting for the holder itself.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := m.Acquire(ctx, "a", "k", Read); err != nil {
		t.Fatalf("re-entrant acquire deadlocked behind own queue: %v", err)
	}
	m.ReleaseAll("a")
	if err := <-done; err != nil {
		t.Fatalf("writer after release: %v", err)
	}
	m.ReleaseAll("w")
}

func TestMossChildOvertakesQueue(t *testing.T) {
	// Parent holds write; a stranger queues; the parent's child must still
	// be granted (Moss's rule) — parking it behind the stranger would
	// deadlock, since the parent cannot release until the child finishes.
	m := New(pathAncestry{})
	if err := m.Acquire(context.Background(), "p", "k", Write); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), "q", "k", Write) }()
	for m.QueueDepth("k") != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := m.Acquire(ctx, "p/c", "k", Write); err != nil {
		t.Fatalf("child deadlocked behind stranger: %v", err)
	}
	m.ReleaseAll("p/c")
	m.ReleaseAll("p")
	if err := <-done; err != nil {
		t.Fatalf("stranger after release: %v", err)
	}
}

// countingObserver records observer callbacks for tests.
type countingObserver struct {
	queued, granted atomic.Int64
}

func (c *countingObserver) LockQueued(int)            { c.queued.Add(1) }
func (c *countingObserver) LockGranted(time.Duration) { c.granted.Add(1) }

func TestObserverCounts(t *testing.T) {
	m := New(nil)
	obs := &countingObserver{}
	m.SetObserver(obs)
	if err := m.Acquire(context.Background(), "holder", "k", Write); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), "w1", "k", Write) }()
	for m.QueueDepth("k") != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	m.ReleaseAll("holder")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if obs.queued.Load() != 1 || obs.granted.Load() != 1 {
		t.Fatalf("observer queued=%d granted=%d, want 1/1", obs.queued.Load(), obs.granted.Load())
	}
}

// TestAwaitTimesTheWait: a request granted at once has no Wait to time, a
// queued one's Await returns how long it waited and fires LockGranted as
// Acquire does, and one whose context ends returns the abandon error and
// fires nothing.
func TestAwaitTimesTheWait(t *testing.T) {
	const hold = 5 * time.Millisecond
	m := New(nil)
	obs := &countingObserver{}
	m.SetObserver(obs)
	if w := m.Request("holder", "k", Write); w != nil {
		t.Fatal("an idle key queued its first request")
	}
	w := m.Request("w1", "k", Write)
	if w == nil {
		t.Fatal("a conflicting request was granted")
	}
	go func() {
		time.Sleep(hold)
		m.ReleaseAll("holder")
	}()
	wait, err := m.Await(context.Background(), w)
	if err != nil || wait < hold {
		t.Fatalf("Await = %v, %v; want at least %v and no error", wait, err, hold)
	}
	if obs.queued.Load() != 1 || obs.granted.Load() != 1 {
		t.Fatalf("observer queued=%d granted=%d, want 1/1", obs.queued.Load(), obs.granted.Load())
	}

	w = m.Request("w2", "k", Write)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if wait, err := m.Await(ctx, w); !errors.Is(err, context.Canceled) || wait != 0 {
		t.Fatalf("Await under a cancelled context = %v, %v; want 0 and context.Canceled", wait, err)
	}
	if obs.granted.Load() != 1 || m.Holds("w2", "k", Write) {
		t.Fatalf("an abandoned wait was granted (observer granted=%d)", obs.granted.Load())
	}
}

func TestAdjustSharesWithAdjustersAndReaders(t *testing.T) {
	m := New(nil)
	// The fast-bind shape: hold Read, add Adjust on the same key — and let
	// concurrent binders do the same simultaneously.
	for _, o := range []Owner{"a", "b", "c"} {
		if err := m.Acquire(context.Background(), o, "k", Read); err != nil {
			t.Fatalf("read %s: %v", o, err)
		}
		if err := m.Acquire(context.Background(), o, "k", Adjust); err != nil {
			t.Fatalf("adjust %s: %v", o, err)
		}
	}
	// A structural writer (Insert/Remove) is excluded while any adjuster
	// holds on.
	if err := m.TryAcquire("w", "k", Write); !errors.Is(err, ErrRefused) {
		t.Fatalf("write alongside adjusters: err = %v, want ErrRefused", err)
	}
	for _, o := range []Owner{"a", "b", "c"} {
		m.ReleaseAll(o)
	}
	if err := m.TryAcquire("w", "k", Write); err != nil {
		t.Fatalf("write after adjusters drained: %v", err)
	}
}

func TestWriteExcludesAdjustUntilReleased(t *testing.T) {
	m := New(nil)
	if err := m.Acquire(context.Background(), "w", "k", Write); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- m.Acquire(context.Background(), "adj", "k", Adjust) }()
	select {
	case err := <-granted:
		t.Fatalf("adjust granted alongside writer: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll("w")
	if err := <-granted; err != nil {
		t.Fatalf("adjust after writer released: %v", err)
	}
}
