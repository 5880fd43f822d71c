package arjuna_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// activeSlowest bounds one operation beside another caller under active
// replication: an uncontended one takes well under a millisecond here, and
// a wedged one waits out its whole context.
const activeSlowest = 500 * time.Millisecond

// runBeside runs each op n times, all ops at once, every call under its own
// 2 s context. It returns the first error or call slower than
// activeSlowest, and starts no further calls after one.
func runBeside(n int, ops ...func(ctx context.Context) error) error {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
		stop  = make(chan struct{})
	)
	fail := func(err error) {
		once.Do(func() { first = err; close(stop) })
	}
	for _, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range n {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				start := time.Now()
				err := op(ctx)
				took := time.Since(start)
				cancel()
				switch {
				case err != nil:
					fail(err)
				case took > activeSlowest:
					fail(fmt.Errorf("an operation took %v, want at most %v", took, activeSlowest))
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// The two tests below report through the test goroutine only: each runs a
// body that opens, drives and closes its own System and returns its first
// failure, so the same body also runs inside a synctest bubble
// (active_bubble_test.go).

// TestActiveTwoWritersNeverWedge: two plain clients write one actively
// replicated object at once. Each invocation is its own numbered message,
// so neither writer's invocation waits in one delivery behind the lock the
// other writer's holds: no operation fails, and none waits out its context.
func TestActiveTwoWritersNeverWedge(t *testing.T) {
	if err := activeTwoWriters(); err != nil {
		t.Fatal(err)
	}
}

func activeTwoWriters() error {
	sys, err := arjuna.Open(arjuna.WithServers(2), arjuna.WithStores(1), arjuna.WithClients(2), arjuna.WithPolicy(arjuna.Active))
	if err != nil {
		return err
	}
	defer func() { _ = sys.Close() }()
	obj := sys.Objects()[0]
	var ops []func(context.Context) error
	for _, name := range []string{"c1", "c2"} {
		cl, err := sys.Client(name)
		if err != nil {
			return err
		}
		ops = append(ops, func(ctx context.Context) error {
			_, _, err := cl.Apply(ctx, obj, "add", []byte("1"))
			return err
		})
	}
	if err := runBeside(100, ops...); err != nil {
		return err
	}
	return wantCounter(sys, obj, "200")
}

// TestActiveReadOnlyReaderBesideWriter: a ClientReadOnly client binds one
// replica of an actively replicated object (the §4.1.2 read optimisation)
// while a writer invokes both. The reader's calls go to its replica alone,
// outside the group's total order, so they take no number that the other
// replica never sees and would hold the writer's next invocation back for.
// The reader binds by its name; c2 and c3 land on different replicas.
func TestActiveReadOnlyReaderBesideWriter(t *testing.T) {
	for _, reader := range []string{"c2", "c3"} {
		t.Run(reader, func(t *testing.T) {
			if err := activeReaderBesideWriter(reader); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func activeReaderBesideWriter(reader string) error {
	sys, err := arjuna.Open(arjuna.WithServers(2), arjuna.WithStores(1), arjuna.WithClients(3), arjuna.WithPolicy(arjuna.Active))
	if err != nil {
		return err
	}
	defer func() { _ = sys.Close() }()
	obj := sys.Objects()[0]
	w, err := sys.Client("c1")
	if err != nil {
		return err
	}
	r, err := sys.Client(reader, arjuna.ClientReadOnly())
	if err != nil {
		return err
	}
	err = runBeside(100,
		func(ctx context.Context) error {
			_, _, err := w.Apply(ctx, obj, "add", []byte("1"))
			return err
		},
		func(ctx context.Context) error {
			_, _, err := readOne(ctx, r, obj)
			return err
		})
	if err != nil {
		return err
	}
	return wantCounter(sys, obj, "100")
}

// wantCounter checks the object's committed state after every add of a
// run committed.
func wantCounter(sys *arjuna.System, id uid.UID, want string) error {
	data, _, err := sys.CommittedState(id)
	if err != nil {
		return err
	}
	if got := string(data); got != want {
		return fmt.Errorf("counter = %s after %s committed adds", got, want)
	}
	return nil
}
