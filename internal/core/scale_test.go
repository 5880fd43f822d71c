package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/uid"
)

// countingBackend counts what the database hands to its node's stable
// storage: the payload bytes of its records, the entry records themselves,
// its appends to the backend (one write(2) each on Disk) and its syncs.
type countingBackend struct {
	storage.Backend
	mu                             sync.Mutex
	bytes, records, appends, syncs int
}

func (c *countingBackend) count(bytes, records int) {
	c.mu.Lock()
	c.bytes += bytes
	c.records += records
	c.appends++
	c.mu.Unlock()
}

// counts returns the records, appends and syncs so far.
func (c *countingBackend) counts() [3]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return [3]int{c.records, c.appends, c.syncs}
}

func (c *countingBackend) PutVersion(id string, v storage.Version) error {
	c.count(len(v.Data), 1)
	return c.Backend.PutVersion(id, v)
}

func (c *countingBackend) PutIntention(tx, id string, w storage.Write) error {
	c.count(len(w.Data), 1)
	return c.Backend.PutIntention(tx, id, w)
}

func (c *countingBackend) Stage(tx string, writes []storage.Intention, commit bool) error {
	bytes := 0
	for _, w := range writes {
		bytes += len(w.Data)
	}
	c.count(bytes, len(writes))
	return c.Backend.Stage(tx, writes, commit)
}

func (c *countingBackend) Sync() error {
	c.mu.Lock()
	c.syncs++
	c.mu.Unlock()
	return c.Backend.Sync()
}

// newScaleDB returns a database holding n registered objects over a
// counting backend, and the first of them.
func newScaleDB(tb testing.TB, n int) (*DB, *countingBackend, uid.UID) {
	tb.Helper()
	backend := &countingBackend{Backend: storage.NewMem()}
	cluster := sim.NewCluster(transport.MemOptions{})
	cluster.SetStorage(func(transport.Addr) storage.Factory {
		return func() (storage.Backend, error) { return backend, nil }
	})
	db := NewDB(cluster.Add("db"))
	gen := uid.NewGenerator("obj", 1)
	ids := make([]uid.UID, n)
	for i := range ids {
		ids[i] = gen.New()
		if _, err := db.batch(context.Background(), "c1", BatchReq{Ops: []Op{
			RegisterOp("setup", ids[i], "counter", []transport.Addr{"sv1", "sv2"}, []transport.Addr{"st1", "st2", "st3"}),
			EndActionOp("setup", true),
		}}); err != nil {
			tb.Fatal(err)
		}
	}
	return db, backend, ids[0]
}

// bindCommit is the database side of one enhanced-scheme binding: the
// committed use-count Increment of the bind and the committed Decrement
// after the client action.
func bindCommit(tb testing.TB, db *DB, id uid.UID) {
	ctx := context.Background()
	hosts := []transport.Addr{"sv1"}
	if _, err := db.batch(ctx, "c1", BatchReq{Ops: []Op{IncrementOp("bind", id, "c1", hosts), EndActionOp("bind", true)}}); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.batch(ctx, "c1", BatchReq{Ops: []Op{DecrementOp("unbind", id, "c1", hosts), EndActionOp("unbind", true)}}); err != nil {
		tb.Fatal(err)
	}
}

// TestCommitCostIndependentOfDatabaseSize: a use-count commit writes the
// entry it touched and nothing else, so the bytes it hands to stable
// storage and the allocations it makes are the same in a database of 8
// objects and in one of 1,024.
func TestCommitCostIndependentOfDatabaseSize(t *testing.T) {
	measure := func(n int) (bytes int, allocs float64) {
		db, backend, id := newScaleDB(t, n)
		bindCommit(t, db, id) // warm the lock table and maps
		before := backend.bytes
		bindCommit(t, db, id)
		bytes = backend.bytes - before
		allocs = testing.AllocsPerRun(50, func() { bindCommit(t, db, id) })
		return bytes, allocs
	}
	smallBytes, smallAllocs := measure(8)
	largeBytes, largeAllocs := measure(1024)
	if smallBytes == 0 {
		t.Fatal("the counting backend saw no write")
	}
	if smallBytes != largeBytes {
		t.Errorf("bytes to stable storage per bind: %d at 8 objects, %d at 1,024", smallBytes, largeBytes)
	}
	if smallAllocs != largeAllocs {
		t.Errorf("allocations per bind: %v at 8 objects, %v at 1,024", smallAllocs, largeAllocs)
	}
	t.Logf("per bind (Increment+commit, Decrement+commit): %d bytes, %v allocs", smallBytes, smallAllocs)
}

// TestStableWritesPerMessage pins what one database message costs its
// node's stable storage, in appends (one write(2) each on Disk) and syncs:
// the database writes once per message, every record committed in it
// together, and leaves out a record its durable one already equals.
//
//   - a write's bind that carries the previous action's end, of another
//     object: 1 append and 1 sync, for the Decrement's record and the
//     Increment's;
//   - the same object bound again: nothing, since the carried Decrement and
//     the new Increment of its counter cancel;
//   - a read-only bind: nothing, since it commits nothing;
//   - an end sent alone: 1 append and 1 sync;
//   - a Register: 1 append and 1 sync for its Sv and St records.
func TestStableWritesPerMessage(t *testing.T) {
	w, stable := newCountedWorld(t)
	ctx := context.Background()
	other := w.secondObject()
	writer := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	writer.FastBind = true
	reader := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	reader.ReadOnly = true
	// cost runs one message and returns the records, appends and syncs it
	// cost.
	cost := func(msg func()) [3]int {
		t.Helper()
		before := stable.counts()
		msg()
		after := stable.counts()
		return [3]int{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
	}
	// bind binds id under a new action of b and queues the action's end as
	// its commit does, with no bound armed: the binder's next message, and
	// only that one, carries it.
	bind := func(b *Binder, id uid.UID) func() {
		return func() {
			t.Helper()
			act := b.Actions.BeginTop()
			bd, err := b.Bind(ctx, act, id)
			if err != nil {
				t.Fatal(err)
			}
			if b.ReadOnly {
				return
			}
			b.ends.mu.Lock()
			b.ends.acts = append(b.ends.acts, EndActionOp(act.ID(), true))
			b.ends.decs = bd.appendDecrement(b.ends.decs)
			b.ends.mu.Unlock()
		}
	}
	for _, c := range []struct {
		name string
		msg  func()
		want [3]int
	}{
		{"a write's bind", bind(writer, w.id), [3]int{1, 1, 1}},
		{"a write's bind that carries an end", bind(writer, other), [3]int{2, 1, 1}},
		{"the same object bound again", bind(writer, other), [3]int{0, 0, 0}},
		{"a read-only bind", bind(reader, w.id), [3]int{0, 0, 0}},
		{"an end sent alone", func() {
			if err := writer.FlushEnds(ctx); err != nil {
				t.Fatal(err)
			}
		}, [3]int{1, 1, 1}},
		{"a Register", func() {
			id := uid.NewGenerator("obj", 3).New()
			cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
			if _, err := cli.Do(ctx, RegisterOp("", id, "counter", w.svs, w.sts)); err != nil {
				t.Fatal(err)
			}
		}, [3]int{2, 1, 1}},
	} {
		if got := cost(c.msg); got != c.want {
			t.Errorf("%s: %d records in %d appends, %d syncs; want %d in %d, %d", c.name, got[0], got[1], got[2], c.want[0], c.want[1], c.want[2])
		}
	}
	if !w.quiescent(w.id) || !w.quiescent(other) {
		t.Fatal("the objects are not quiescent once every end is sent")
	}
}
