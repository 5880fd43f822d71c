package arjuna_test

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/pkg/arjuna"
)

// chaosSeed pins the simulated network's latency schedule for the
// crash-mid-batched-commit scenarios so a failure replays exactly.
const chaosSeed = 9

// batchUnderHeldLock parks one transaction on obj's write lock, launches
// followers Apply-ing delta each (they enqueue behind the held lock), then
// releases the holder so its commit carries the folded batch. It returns
// the holder's commit error and the followers' per-op results.
func batchUnderHeldLock(t *testing.T, sys *arjuna.System, followers int, retries int) (holderErr error, committed, batched int64, followerErrs []error) {
	t.Helper()
	obj := sys.Objects()[0]
	holder, err := sys.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	locked := make(chan struct{})
	release := make(chan struct{})
	holderDone := make(chan error, 1)
	go func() {
		_, err := holder.Atomic(context.Background(), func(tx *arjuna.Txn) error {
			if _, err := tx.Object(obj).Invoke(context.Background(), "add", []byte("1")); err != nil {
				return err
			}
			close(locked)
			<-release
			return nil
		})
		holderDone <- err
	}()
	<-locked

	errsMu := sync.Mutex{}
	var wg sync.WaitGroup
	var nCommitted, nBatched int64
	for i := 0; i < followers; i++ {
		cl, err := sys.Client("c"+strconv.Itoa(i+2), arjuna.ClientRetry(retries, time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, rep, err := cl.Apply(context.Background(), obj, "add", []byte("1"))
			if err == nil {
				atomic.AddInt64(&nCommitted, 1)
				if rep.Batched {
					atomic.AddInt64(&nBatched, 1)
				}
				return
			}
			errsMu.Lock()
			followerErrs = append(followerErrs, err)
			errsMu.Unlock()
		}()
	}
	// The followers bind and enqueue behind the held write lock; give them
	// ample real time (the simulated network adds at most a few ms) before
	// the holder's commit drains the queue.
	time.Sleep(150 * time.Millisecond)
	close(release)
	holderErr = <-holderDone
	wg.Wait()
	return holderErr, nCommitted, nBatched, followerErrs
}

// TestBatchedCommitSurvivesStoreCrash crashes one of two St replicas the
// instant its prepare vote for the batch-carrying commit is on the wire.
// The commit must go through via the surviving replica with every folded
// op included — all N commit — and recovery must catch the crashed store
// up to the full batched state, not some partial fold.
func TestBatchedCommitSurvivesStoreCrash(t *testing.T) {
	sys := openT(t,
		arjuna.WithServers(1), arjuna.WithStores(2), arjuna.WithClients(6),
		arjuna.WithMemNetwork(transport.MemOptions{
			BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond, Seed: chaosSeed,
		}))
	obj := sys.Objects()[0]
	target := sys.Stores()[0]
	rule := transport.ToMethod(target, store.ServiceName, store.MethodPrepare)
	sys.Faults().OnReply(1, rule, func(transport.Request) { _ = sys.Crash(string(target)) })

	const followers = 4
	holderErr, committed, batched, followerErrs := batchUnderHeldLock(t, sys, followers, 10)
	if holderErr != nil {
		t.Fatalf("carrying commit with crashed store: %v", holderErr)
	}
	for _, err := range followerErrs {
		t.Errorf("follower: %v", err)
	}
	if committed != followers {
		t.Fatalf("committed followers = %d, want %d", committed, followers)
	}
	if batched == 0 {
		t.Fatal("no follower was folded into the carrying commit")
	}

	want := strconv.Itoa(1 + followers)
	if got := counterValue(t, sys, obj); got != want {
		t.Fatalf("counter = %q after batched commit through surviving store, want %q", got, want)
	}

	// The crashed replica recovers to the complete batched state.
	if err := sys.Recover(context.Background(), string(target)); err != nil {
		t.Fatal(err)
	}
	data, _, err := sys.StoreState(string(target), obj)
	if err != nil || string(data) != want {
		t.Fatalf("recovered store state = %q (%v), want %q", data, err, want)
	}
	t.Logf("committed=%d batched=%d", committed, batched)
}

// TestBatchedCommitAbortsAtomically kills the only store just as the
// batch-carrying one-phase write-back is on the wire (the write never
// lands). The carrying action and every folded op must abort — none of
// the N commit — and after recovery the counter shows no partial fold.
func TestBatchedCommitAbortsAtomically(t *testing.T) {
	sys := openT(t,
		arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(6),
		arjuna.WithMemNetwork(transport.MemOptions{
			BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond, Seed: chaosSeed,
		}))
	obj := sys.Objects()[0]
	target := sys.Stores()[0]
	// Crash the store the instant the write-back reaches it: the OnRequest
	// hook runs before delivery, so the crashed node's endpoint is gone and
	// the write never lands.
	rule := onePhaseStoreRound(target)
	sys.Faults().OnRequest(1, rule, func(transport.Request) { _ = sys.Crash(string(target)) })

	const followers = 4
	holderErr, committed, _, followerErrs := batchUnderHeldLock(t, sys, followers, 1)
	if !errors.Is(holderErr, arjuna.ErrAborted) {
		t.Fatalf("carrying commit err = %v, want ErrAborted (store died under the write-back)", holderErr)
	}
	if committed != 0 {
		t.Fatalf("%d folded ops committed while their carrying action aborted", committed)
	}
	if len(followerErrs) != followers {
		t.Fatalf("follower errors = %d, want %d (all aborted with the batch)", len(followerErrs), followers)
	}
	for _, err := range followerErrs {
		if !errors.Is(err, arjuna.ErrAborted) {
			t.Errorf("follower err = %v, want ErrAborted", err)
		}
	}

	// Recovery finds the pre-batch state: the snapshot restore undid the
	// leader's own write and every fold with it.
	if err := sys.Recover(context.Background(), string(target)); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, sys, obj); got != "0" {
		t.Fatalf("counter after recovery = %q, want 0 (no partial batch)", got)
	}
	// The object remains usable: a fresh solo add commits cleanly.
	cl, err := sys.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Apply(context.Background(), obj, "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, sys, obj); got != "1" {
		t.Fatalf("counter after post-recovery add = %q, want 1", got)
	}
}
