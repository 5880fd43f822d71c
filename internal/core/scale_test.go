package core

import (
	"context"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/uid"
)

// countingBackend counts the payload bytes the database hands to its
// node's stable storage.
type countingBackend struct {
	storage.Backend
	bytes int
}

func (c *countingBackend) PutVersion(id string, v storage.Version) error {
	c.bytes += len(v.Data)
	return c.Backend.PutVersion(id, v)
}

func (c *countingBackend) PutIntention(tx, id string, w storage.Write) error {
	c.bytes += len(w.Data)
	return c.Backend.PutIntention(tx, id, w)
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
		if err := db.Register(context.Background(), &dbAction{name: "setup", from: "c1"}, ids[i], "counter", []transport.Addr{"sv1", "sv2"}, []transport.Addr{"st1", "st2", "st3"}); err != nil {
			tb.Fatal(err)
		}
		db.EndAction("setup", true)
	}
	return db, backend, ids[0]
}

// bindCommit is the database side of one enhanced-scheme binding: the
// committed use-count Increment of the bind and the committed Decrement
// after the client action.
func bindCommit(tb testing.TB, db *DB, id uid.UID) {
	ctx := context.Background()
	hosts := []transport.Addr{"sv1"}
	if err := db.Increment(ctx, &dbAction{name: "bind", from: "c1"}, id, "c1", hosts); err != nil {
		tb.Fatal(err)
	}
	db.EndAction("bind", true)
	if err := db.Decrement(ctx, &dbAction{name: "unbind", from: "c1"}, id, "c1", hosts); err != nil {
		tb.Fatal(err)
	}
	db.EndAction("unbind", true)
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
