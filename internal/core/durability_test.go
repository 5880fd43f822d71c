package core_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/uid"
)

// The tests in this file crash the database node and check what its
// per-entry records bring back, on the in-memory backend and on the WAL.

type durableWorld struct {
	*harness.World
	cli core.Client
	dir string // the nodes' data directories' parent, on disk
}

func forEachBackend(t *testing.T, objects int, f func(t *testing.T, w durableWorld)) {
	for _, backend := range []string{"mem", "disk"} {
		t.Run(backend, func(t *testing.T) {
			f(t, openDurable(t, backend == "disk", objects))
		})
	}
}

func openDurable(t *testing.T, disk bool, objects int) durableWorld {
	t.Helper()
	opts := harness.Options{Servers: 2, Stores: 2, Clients: 2, Objects: objects}
	if disk {
		opts.DataDir = t.TempDir()
		opts.Disk = storage.DiskOptions{Sync: storage.SyncNone}
	}
	w, err := harness.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return durableWorld{World: w, cli: core.Client{RPC: w.Cluster.Node("c1").Client(), DB: w.DB.Addr()}, dir: opts.DataDir}
}

func (w durableWorld) restartDB() {
	w.DB.Node().Crash()
	w.DB.Node().Recover(nil)
}

// stView and svView read an entry under a throwaway action.
func (w durableWorld) stView(t *testing.T, id uid.UID) []transport.Addr {
	t.Helper()
	res, err := w.cli.Do(context.Background(), core.GetViewOp("peek", id), core.EndActionOp("peek", true))
	if err != nil {
		t.Fatalf("GetView(%v): %v", id, err)
	}
	return res[0].Nodes
}

func (w durableWorld) svView(t *testing.T, id uid.UID) ([]transport.Addr, map[transport.Addr]map[transport.Addr]int) {
	t.Helper()
	res, err := w.cli.Do(context.Background(), core.GetServerOp("peek", id, true, false), core.EndActionOp("peek", true))
	if err != nil {
		t.Fatalf("GetServer(%v): %v", id, err)
	}
	return res[0].Nodes, res[0].Use
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommitDoesNotPersistSiblingsProvisionalState: action A holds a
// provisional Exclude on object X when action B commits a use-count bump
// on object Y. B's commit must write Y's entry only: if the database node
// crashes before A ends, nobody ever decided A's exclusion and recovery
// must not know of it.
func TestCommitDoesNotPersistSiblingsProvisionalState(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, w durableWorld) {
		ctx := context.Background()
		x, y := w.Objects[0], w.Objects[1]
		must(t, w.cli.Exclude(ctx, "A", []core.ExcludePair{{UID: x, Hosts: []transport.Addr{"st2"}}}, false))
		_, err := w.cli.Do(ctx, core.IncrementOp("B", y, "c1", []transport.Addr{"sv1"}), core.EndActionOp("B", true))
		must(t, err)
		w.restartDB()
		if view := w.stView(t, x); len(view) != 2 {
			t.Fatalf("St(X) = %v after recovery: the undecided exclusion of st2 was made durable by another action's commit", view)
		}
		if _, use := w.svView(t, y); use["sv1"]["c1"] != 1 {
			t.Fatalf("use lists of Y = %v after recovery, want B's committed count", use)
		}
	})
}

// TestCommitPersistsOnlySettledUseCounts is the same property inside one
// entry: adjusters of one Sv entry share its lock, so B's commit rewrites
// an entry that carries A's undecided increment in memory — the record
// must hold the committed counters only.
func TestCommitPersistsOnlySettledUseCounts(t *testing.T) {
	forEachBackend(t, 1, func(t *testing.T, w durableWorld) {
		ctx := context.Background()
		x := w.Objects[0]
		c2 := core.Client{RPC: w.Cluster.Node("c2").Client(), DB: w.DB.Addr()}
		_, err := w.cli.Do(ctx, core.IncrementOp("A", x, "c1", []transport.Addr{"sv1"}))
		must(t, err)
		_, err = c2.Do(ctx, core.IncrementOp("B", x, "c2", []transport.Addr{"sv1"}), core.EndActionOp("B", true))
		must(t, err)
		w.restartDB()
		_, use := w.svView(t, x)
		if use["sv1"]["c1"] != 0 || use["sv1"]["c2"] != 1 {
			t.Fatalf("use lists = %v after recovery, want only B's committed count for c2", use)
		}
	})
}

// TestMultiEntryCommitIsAtomicAcrossCrash lets a multi-entry commit
// complete, crashes the database node, cuts its WAL at every byte of the
// commit's records and recovers: the entries have all changed or none has —
// a two-object Exclude never loses one store from one view only, a Register
// never yields an object with one database half.
func TestMultiEntryCommitIsAtomicAcrossCrash(t *testing.T) {
	fresh := uid.UID{Origin: "late", Epoch: 1, Seq: 1}
	for _, c := range []struct {
		name string
		op   func(w durableWorld) core.Op
		// changed reports how many of the commit's two entries show its effect.
		changed func(t *testing.T, w durableWorld) int
	}{
		{"exclude", func(w durableWorld) core.Op {
			return core.ExcludeOp("A", []core.ExcludePair{
				{UID: w.Objects[0], Hosts: []transport.Addr{"st2"}},
				{UID: w.Objects[1], Hosts: []transport.Addr{"st2"}},
			}, false)
		}, func(t *testing.T, w durableWorld) (n int) {
			for _, id := range w.Objects {
				if len(w.stView(t, id)) == 1 {
					n++
				}
			}
			return n
		}},
		{"register", func(w durableWorld) core.Op {
			return core.RegisterOp("A", fresh, "counter", []transport.Addr{"sv1"}, []transport.Addr{"st1"})
		}, func(t *testing.T, w durableWorld) (n int) {
			ctx := context.Background()
			if _, _, err := w.cli.GetServer(ctx, "peek", fresh, false, false); err == nil {
				n++
			} else if rpc.CodeOf(err) != core.CodeUnknownObject {
				t.Fatal(err)
			}
			if _, _, err := w.cli.GetView(ctx, "peek", fresh); err == nil {
				n++
			} else if rpc.CodeOf(err) != core.CodeUnknownObject {
				t.Fatal(err)
			}
			must(t, w.cli.EndAction(ctx, "peek", true))
			return n
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := openDurable(t, true, 2)
			node := w.DB.Node()
			wal := storage.WALPath(filepath.Join(w.dir, string(node.Name())))
			before := node.Store().Backend().(*storage.Disk).WALSize()
			_, err := w.cli.Do(context.Background(), c.op(w), core.EndActionOp("A", true))
			must(t, err)
			node.Crash()
			full, err := os.ReadFile(wal)
			must(t, err)
			for cut := len(full); cut >= int(before); cut-- {
				// Recovery appends to the WAL (it aborts a commit it finds
				// cut short), so each cut is written afresh.
				must(t, os.WriteFile(wal, full[:cut], 0o644))
				node.Recover(nil)
				want := 0
				if cut == len(full) {
					want = 2
				}
				if n := c.changed(t, w); n != want {
					t.Fatalf("commit cut %d bytes into %d changed %d of 2 entries", cut-int(before), len(full)-int(before), n)
				}
				node.Crash()
			}
		})
	}
}

// TestDeregisterTombstone: a committed Deregister survives the database's
// restart as a tombstone that names the database the object moved to, and
// every unknown-object answer for the UID names it too; an aborted
// Deregister leaves no forward; and the same UID can be registered again on
// top of the tombstone, which clears the forward, and survives the next
// restart as a live entry.
func TestDeregisterTombstone(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, w durableWorld) {
		ctx := context.Background()
		gone, kept := w.Objects[0], w.Objects[1]
		_, err := w.cli.Do(ctx, core.DeregisterOp("A", kept, "db3"))
		must(t, err)
		if to := w.DB.Forward(kept); to != "" {
			t.Fatalf("forward of an uncommitted Deregister = %q, want none", to)
		}
		must(t, w.cli.EndAction(ctx, "A", false))
		_, err = w.cli.Do(ctx, core.DeregisterOp("D", gone, "db2"), core.EndActionOp("D", true))
		must(t, err)
		w.restartDB()
		if to := w.DB.Forward(kept); to != "" {
			t.Fatalf("forward of an aborted Deregister = %q, want none", to)
		}
		if _, _, err := w.cli.GetView(ctx, "peek", gone); rpc.CodeOf(err) != core.CodeUnknownObject || core.MovedTo(err) != "db2" {
			t.Fatalf("deregistered object after restart: GetView = %v, want %s naming db2", err, core.CodeUnknownObject)
		}
		must(t, w.cli.EndAction(ctx, "peek", true))
		if _, err := w.cli.Do(ctx, core.SelectOp("", gone)); core.MovedTo(err) != "db2" {
			t.Fatalf("deregistered object after restart: Select = %v, want it to name db2", err)
		}
		if got := w.DB.Objects(); len(got) != 1 || got[0] != kept {
			t.Fatalf("objects after restart = %v, want [%v]", got, kept)
		}
		_, err = w.cli.Do(ctx, core.RegisterOp("R", gone, "counter", []transport.Addr{"sv2"}, []transport.Addr{"st2"}), core.EndActionOp("R", true))
		must(t, err)
		if to := w.DB.Forward(gone); to != "" {
			t.Fatalf("forward after a committed Register = %q, want none", to)
		}
		w.restartDB()
		if to := w.DB.Forward(gone); to != "" {
			t.Fatalf("forward of the re-registered object after restart = %q, want none", to)
		}
		if sv, _ := w.svView(t, gone); len(sv) != 1 || sv[0] != "sv2" {
			t.Fatalf("Sv of the re-registered object = %v, want [sv2]", sv)
		}
		if st := w.stView(t, gone); len(st) != 1 || st[0] != "st2" {
			t.Fatalf("St of the re-registered object = %v, want [st2]", st)
		}
	})
}

// TestFailedStableWriteStopsTheDatabase: with the database's stable store
// shut, a commit fails rather than being acknowledged, and so does the
// next, of another action on another object. The database answers nothing
// until its node restarts, even once the store is back, and the restart
// finds neither commit.
func TestFailedStableWriteStopsTheDatabase(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, w durableWorld) {
		ctx := context.Background()
		x, y := w.Objects[0], w.Objects[1]
		stable := w.DB.Node().Store()

		must(t, stable.Shutdown())
		if _, err := w.cli.Do(ctx, core.RemoveOp("A", x, "sv2"), core.EndActionOp("A", true)); err == nil {
			t.Fatal("a commit whose stable write failed was acknowledged")
		}
		if _, err := w.cli.Do(ctx, core.IncrementOp("B", y, "c1", []transport.Addr{"sv1"}), core.EndActionOp("B", true)); err == nil {
			t.Fatal("a commit after a failed stable write was acknowledged")
		}
		must(t, stable.Reopen())
		if _, err := w.cli.Do(ctx, core.GetViewOp("peek", x), core.EndActionOp("peek", true)); err == nil {
			t.Fatal("the database answered before its node restarted")
		}

		w.restartDB()
		if sv, _ := w.svView(t, x); len(sv) != 2 {
			t.Fatalf("Sv(X) = %v after recovery, want both servers: the failed commit was persisted", sv)
		}
		if _, use := w.svView(t, y); use["sv1"]["c1"] != 0 {
			t.Fatalf("use lists of Y = %v after recovery: the failed commit was persisted", use)
		}
	})
}
