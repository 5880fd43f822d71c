package arjuna_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/transport"
	"repro/pkg/arjuna"
)

// TestApplyBatchesUnderContention checks the flat-combining invariants in
// two rounds. First a deterministic fold: a holder parks on the object's
// write lock while followers enqueue, so every follower must ride the
// holder's commit. Then organic contention: many concurrent solo adds,
// where the final value must equal the sum of every committed delta (fold
// correctness — batched execution must match sequential execution).
func TestApplyBatchesUnderContention(t *testing.T) {
	sys, err := arjuna.Open(arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	obj := sys.Objects()[0]

	const followers = 4
	holderErr, folded, foldBatched, followerErrs := batchUnderHeldLock(t, sys, followers, 10)
	if holderErr != nil {
		t.Fatalf("holder commit: %v", holderErr)
	}
	for _, err := range followerErrs {
		t.Fatalf("follower: %v", err)
	}
	if folded != followers || foldBatched != followers {
		t.Fatalf("followers committed=%d batched=%d, want %d folded into the held commit",
			folded, foldBatched, followers)
	}
	if got := counterValue(t, sys, obj); got != strconv.Itoa(1+followers) {
		t.Fatalf("counter = %q after deterministic fold, want %d", got, 1+followers)
	}

	const perClient = 25
	var wg sync.WaitGroup
	var committed, batched, leaderBatches int64
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		name := "c" + strconv.Itoa(i+1)
		cl, err := sys.Client(name, arjuna.ClientRetry(10, 2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				_, rep, err := cl.Apply(context.Background(), obj, "add", []byte("1"))
				if err != nil {
					errCh <- fmt.Errorf("%s apply %d: %w", name, j, err)
					return
				}
				atomic.AddInt64(&committed, 1)
				if rep.Batched {
					atomic.AddInt64(&batched, 1)
				} else if rep.BatchSize > 1 {
					atomic.AddInt64(&leaderBatches, 1)
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	data, _, err := sys.CommittedState(obj)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := strconv.Atoi(string(data))
	if int64(got) != int64(1+followers)+committed {
		t.Fatalf("counter = %d after %d committed organic adds on a base of %d",
			got, committed, 1+followers)
	}
	t.Logf("organic: committed=%d batched=%d leader-batches=%d", committed, batched, leaderBatches)
}

// TestApplyMatchesSequential runs the same operation mix once through
// contended Apply and once sequentially through plain Atomic, and demands
// identical final states — batching must be semantically invisible.
func TestApplyMatchesSequential(t *testing.T) {
	deltas := make([]int, 40)
	want := 0
	for i := range deltas {
		deltas[i] = (i%7 - 3) * (i + 1) // mixed signs and magnitudes
		want += deltas[i]
	}

	sys, err := arjuna.Open(arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithClients(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	obj := sys.Objects()[0]

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for c := 0; c < 4; c++ {
		cl, err := sys.Client("c"+strconv.Itoa(c+1), arjuna.ClientRetry(10, time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		part := deltas[c*10 : (c+1)*10]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range part {
				if _, _, err := cl.Apply(context.Background(), obj, "add", []byte(strconv.Itoa(d))); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	data, _, err := sys.CommittedState(obj)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := strconv.Atoi(string(data)); got != want {
		t.Fatalf("contended Apply total = %d, sequential semantics demand %d", got, want)
	}
}

// refusingNet answers the calls from one node to one service with
// transport.ErrOverloaded — what a multiplexed connection at its pending-call
// cap does — while refusals remain, and carries every other call.
type refusingNet struct {
	transport.Network
	from     transport.Addr
	service  string
	refusals atomic.Int64
}

func (n *refusingNet) Call(ctx context.Context, req transport.Request) ([]byte, error) {
	if req.From == n.from && req.Service == n.service && n.refusals.Add(-1) >= 0 {
		return nil, fmt.Errorf("%s -> %s: %w", req.From, req.To, transport.ErrOverloaded)
	}
	return n.Network.Call(ctx, req)
}

// TestConnectionOverloadBacksOff drives the overload class from its one
// source, a connection refusing a call with transport.ErrOverloaded. Refused
// once, the attempt maps to ErrOverloaded and Atomic retries it: the action
// commits on the second attempt and the report counts the refusal. Refused
// every time, the action fails with ErrAborted and ErrOverloaded after
// ClientRetry's attempts, and nothing of it is in the committed state.
func TestConnectionOverloadBacksOff(t *testing.T) {
	net := &refusingNet{Network: transport.NewMem(transport.MemOptions{}, nil), from: "c1", service: object.ServiceName}
	sys := openT(t, arjuna.WithServers(1), arjuna.WithStores(1), arjuna.WithNetwork(net))
	cl := clientT(t, sys, "c1", arjuna.ClientRetry(3, time.Millisecond))
	ctx, obj := context.Background(), sys.Objects()[0]

	net.refusals.Store(1)
	out, rep, err := cl.Apply(ctx, obj, "add", []byte("1"))
	if err != nil || string(out) != "1" {
		t.Fatalf("Apply refused once = %q, %v; want the retry to commit", out, err)
	}
	if !rep.Committed || rep.Attempts != 2 || rep.Overloads != 1 {
		t.Fatalf("report %+v; want committed on attempt 2 with 1 overload", rep)
	}

	net.refusals.Store(1 << 30)
	_, rep, err = cl.Apply(ctx, obj, "add", []byte("1"))
	if !errors.Is(err, arjuna.ErrAborted) || !errors.Is(err, arjuna.ErrOverloaded) {
		t.Fatalf("Apply refused every time: err = %v; want ErrAborted and ErrOverloaded", err)
	}
	if rep.Committed || rep.Attempts != 3 || rep.Overloads != 3 {
		t.Fatalf("report %+v; want 3 attempts, all overloaded", rep)
	}
	if got := counterValue(t, sys, obj); got != "1" {
		t.Fatalf("committed state %q, want 1: a refused attempt left a trace", got)
	}
}
