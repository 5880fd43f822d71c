package arjuna_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/pkg/arjuna"
)

// TestQueueWaitIsTheWait: CommitReport.QueueWait is the time an invocation
// spent queued at its server, and nothing else. An uncontended Invoke and
// an uncontended Apply are granted the lock at once and report zero — the
// method's own run is not a wait — and an Invoke queued behind a holder
// that keeps the lock for 20 ms reports at least 5 ms.
func TestQueueWaitIsTheWait(t *testing.T) {
	const hold = 20 * time.Millisecond
	sys := openT(t, arjuna.WithClients(2))
	holder := clientT(t, sys, "c1")
	waiter := clientT(t, sys, "c2")
	obj := sys.Objects()[0]
	ctx := context.Background()
	add := func(tx *arjuna.Txn) error {
		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("1"))
		return err
	}

	rep, err := holder.Atomic(ctx, add)
	if err != nil {
		t.Fatalf("uncontended Invoke: %v", err)
	}
	if rep.QueueWait != 0 {
		t.Errorf("uncontended Invoke: QueueWait = %v, want 0", rep.QueueWait)
	}
	_, rep, err = holder.Apply(ctx, obj, "add", []byte("1"))
	if err != nil {
		t.Fatalf("uncontended Apply: %v", err)
	}
	if rep.QueueWait != 0 {
		t.Errorf("uncontended Apply: QueueWait = %v, want 0", rep.QueueWait)
	}

	// The holder takes the write lock, says so, and keeps it for hold
	// before it commits; the waiter's Invoke queues behind it meanwhile.
	held := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, err := holder.Atomic(ctx, func(tx *arjuna.Txn) error {
			if err := add(tx); err != nil {
				return err
			}
			once.Do(func() { close(held) })
			time.Sleep(hold)
			return nil
		})
		done <- err
	}()
	<-held
	rep, err = waiter.Atomic(ctx, add)
	if err != nil {
		t.Fatalf("queued Invoke: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("holder: %v", err)
	}
	if rep.QueueWait < 5*time.Millisecond {
		t.Errorf("queued Invoke: QueueWait = %v, want at least 5ms behind a %v hold", rep.QueueWait, hold)
	}
	if got := counterValue(t, sys, obj); got != "4" {
		t.Fatalf("committed state = %q, want 4", got)
	}
}
