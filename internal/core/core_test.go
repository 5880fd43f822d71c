package core

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/group"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/uid"
)

func counterClass() *object.Class {
	return &object.Class{
		Name: "counter",
		Init: func() []byte { return []byte("0") },
		Methods: map[string]object.Method{
			"add": func(state, args []byte) ([]byte, []byte, error) {
				n, _ := strconv.Atoi(string(state))
				d, _ := strconv.Atoi(string(args))
				out := []byte(strconv.Itoa(n + d))
				return out, out, nil
			},
			"get": func(state, args []byte) ([]byte, []byte, error) {
				return state, state, nil
			},
		},
		ReadOnly: map[string]bool{"get": true},
	}
}

type world struct {
	t       *testing.T
	cluster *sim.Cluster
	db      *DB
	id      uid.UID
	svs     []transport.Addr
	sts     []transport.Addr
	mgrs    map[transport.Addr]*action.Manager
	// ends is the set of the binders binder built, for flushEnds.
	ends Ends
}

// newWorld: db node, nServers object-server nodes (sv1..), nStores store
// nodes (st1..), client nodes (c1..), one registered "counter" object.
func newWorld(t *testing.T, nServers, nStores, nClients int) *world {
	t.Helper()
	return newWorldOn(t, sim.NewCluster(transport.MemOptions{}), nServers, nStores, nClients)
}

// newCountedWorld is newWorld with one node of each kind, and the
// database's stable storage counted.
func newCountedWorld(t *testing.T) (*world, *countingBackend) {
	t.Helper()
	cluster := sim.NewCluster(transport.MemOptions{})
	stable := &countingBackend{Backend: storage.NewMem()}
	cluster.SetStorage(func(node transport.Addr) storage.Factory {
		if node != "db" {
			return nil
		}
		return func() (storage.Backend, error) { return stable, nil }
	})
	return newWorldOn(t, cluster, 1, 1, 1), stable
}

func newWorldOn(t *testing.T, cluster *sim.Cluster, nServers, nStores, nClients int) *world {
	t.Helper()
	w := &world{
		t:       t,
		cluster: cluster,
		mgrs:    make(map[transport.Addr]*action.Manager),
	}
	reg := object.NewRegistry()
	reg.Register(counterClass())
	dbNode := w.cluster.Add("db")
	w.db = NewDB(dbNode)
	for i := 0; i < nServers; i++ {
		name := transport.Addr("sv" + strconv.Itoa(i+1))
		n := w.cluster.Add(name)
		m := object.NewManager(n, reg)
		m.EnableGroupInvocation(group.NewHost(n.Server(), n.Client()))
		w.svs = append(w.svs, name)
	}
	for i := 0; i < nStores; i++ {
		name := transport.Addr("st" + strconv.Itoa(i+1))
		w.cluster.Add(name)
		w.sts = append(w.sts, name)
	}
	for i := 0; i < nClients; i++ {
		name := transport.Addr("c" + strconv.Itoa(i+1))
		w.cluster.Add(name)
		w.mgrs[name] = action.NewManager(string(name), nil)
	}
	gen := uid.NewGenerator("obj", 1)
	w.id = gen.New()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	if err := CreateObject(context.Background(), cli, w.id, "counter", []byte("0"), w.svs, w.sts); err != nil {
		t.Fatalf("CreateObject: %v", err)
	}
	return w
}

func (w *world) binder(client transport.Addr, scheme Scheme, policy replica.Policy, degree int) *Binder {
	return &Binder{
		DB: Client{RPC: w.cluster.Node(client).Client(), DB: "db"},
		BindConfig: BindConfig{
			Actions:    w.mgrs[client],
			ClientNode: client,
			Scheme:     scheme,
			Policy:     policy,
			Degree:     degree,
			Ends:       &w.ends,
		},
	}
}

// flushEnds sends every binder's pending action-ends (Ends.Flush), as a
// wait for quiescence does first. An error is the test's to see in what
// the database holds.
func (w *world) flushEnds() { _ = w.ends.Flush(context.Background()) }

// quiescent reports, once the binders' pending action-ends are flushed,
// whether the object is quiescent (DB.Quiescent).
func (w *world) quiescent(id uid.UID) bool {
	w.flushEnds()
	return w.db.Quiescent(id)
}

// runAction binds, applies "add delta", commits; returns the binding.
func (w *world) runAction(b *Binder, delta int) (*Binding, error) {
	ctx := context.Background()
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		_ = act.Abort(ctx)
		return nil, err
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte(strconv.Itoa(delta))}); err != nil {
		_ = act.Abort(ctx)
		return bd, err
	}
	if _, err := act.Commit(ctx); err != nil {
		return bd, err
	}
	return bd, nil
}

func (w *world) storeValue(st transport.Addr) (string, uint64) {
	w.t.Helper()
	v, err := w.cluster.Node(st).Store().Read(w.id)
	if err != nil {
		w.t.Fatalf("read %s: %v", st, err)
	}
	return string(v.Data), v.Seq
}

func TestSchemeString(t *testing.T) {
	if SchemeStandard.String() != "standard" ||
		SchemeIndependent.String() != "independent-top-level" ||
		SchemeNestedTopLevel.String() != "nested-top-level" {
		t.Fatal("scheme strings wrong")
	}
}

func TestCreateAndLookup(t *testing.T) {
	w := newWorld(t, 2, 2, 1)
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	ctx := context.Background()
	mgr := w.mgrs["c1"]
	act := mgr.BeginTop()
	sv, _, err := cli.GetServer(ctx, act.ID(), w.id, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv) != 2 || sv[0] != "sv1" {
		t.Fatalf("sv = %v", sv)
	}
	st, class, err := cli.GetView(ctx, act.ID(), w.id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 || class != "counter" {
		t.Fatalf("st = %v class = %q", st, class)
	}
	if err := cli.EndAction(ctx, act.ID(), true); err != nil {
		t.Fatal(err)
	}
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownObject(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	ghost := uid.UID{Origin: "ghost", Epoch: 1, Seq: 99}
	_, _, err := cli.GetServer(context.Background(), "a1", ghost, false, false)
	if rpc.CodeOf(err) != CodeUnknownObject {
		t.Fatalf("err = %v", err)
	}
	_ = cli.EndAction(context.Background(), "a1", false)
}

func TestStandardSchemeEndToEnd(t *testing.T) {
	for _, policy := range []replica.Policy{replica.SingleCopyPassive, replica.Active, replica.CoordinatorCohort} {
		t.Run(policy.String(), func(t *testing.T) {
			w := newWorld(t, 2, 2, 1)
			b := w.binder("c1", SchemeStandard, policy, 0)
			if _, err := w.runAction(b, 5); err != nil {
				t.Fatal(err)
			}
			for _, st := range w.sts {
				val, seq := w.storeValue(st)
				if val != "5" || seq != 2 {
					t.Fatalf("%s = %q seq=%d", st, val, seq)
				}
			}
		})
	}
}

func TestStandardSchemeHoldsReadLockUntilActionEnd(t *testing.T) {
	// Figure 6: the read lock on the Sv entry is released only when the
	// client action commits — an Insert (write lock) during the action
	// must wait.
	w := newWorld(t, 2, 2, 1)
	ctx := context.Background()
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	// Insert under a short deadline: refused while the client is bound.
	cli := Client{RPC: w.cluster.Node("sv2").Client(), DB: "db"}
	shortCtx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	_, err = cli.Do(shortCtx, InsertOp("recovery-act", w.id, "sv2"))
	cancel()
	if rpc.CodeOf(err) != CodeLockRefused {
		t.Fatalf("Insert during action: err = %v, want lock-refused", err)
	}
	_ = cli.EndAction(ctx, "recovery-act", false)
	// After commit the object is quiescent and Insert succeeds.
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Do(ctx, InsertOp("recovery-act2", w.id, "sv2")); err != nil {
		t.Fatalf("Insert after action end: %v", err)
	}
	_ = cli.EndAction(ctx, "recovery-act2", true)
}

func TestStandardSchemeSvStaysStaleAfterCrash(t *testing.T) {
	// §4.1.2: "at binding time each and every client determines 'the hard
	// way' that a server is unavailable" — Sv is never repaired.
	w := newWorld(t, 2, 2, 2)
	w.cluster.Node("sv1").Crash()
	for _, client := range []transport.Addr{"c1", "c2"} {
		b := w.binder(client, SchemeStandard, replica.SingleCopyPassive, 1)
		bd, err := w.runAction(b, 1)
		if err != nil {
			t.Fatalf("%s: %v", client, err)
		}
		// Every client paid the probe: sv1 broken, bound to sv2.
		if got := bd.BrokenServers(); len(got) != 1 || got[0] != "sv1" {
			t.Fatalf("%s broken = %v", client, got)
		}
		if got := bd.Servers(); len(got) != 1 || got[0] != "sv2" {
			t.Fatalf("%s bound = %v", client, got)
		}
	}
	// Sv unchanged in the database.
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	sv, _, err := cli.GetServer(context.Background(), "peek", w.id, false, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.EndAction(context.Background(), "peek", true)
	if len(sv) != 2 {
		t.Fatalf("sv = %v, want stale 2 entries", sv)
	}
}

func TestEnhancedSchemeRemovesFailedServer(t *testing.T) {
	// Figure 7: the first client to find a dead server removes it, so Sv
	// stays current and later clients skip the probe.
	for _, scheme := range []Scheme{SchemeIndependent, SchemeNestedTopLevel} {
		t.Run(scheme.String(), func(t *testing.T) {
			w := newWorld(t, 2, 2, 2)
			w.cluster.Node("sv1").Crash()
			b1 := w.binder("c1", scheme, replica.SingleCopyPassive, 1)
			bd1, err := w.runAction(b1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := bd1.BrokenServers(); len(got) != 1 || got[0] != "sv1" {
				t.Fatalf("first client broken = %v", got)
			}
			// Sv repaired.
			cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
			sv, _, err := cli.GetServer(context.Background(), "peek", w.id, false, false)
			if err != nil {
				t.Fatal(err)
			}
			_ = cli.EndAction(context.Background(), "peek", true)
			if len(sv) != 1 || sv[0] != "sv2" {
				t.Fatalf("sv = %v, want [sv2]", sv)
			}
			// Second client binds without probing the dead node.
			b2 := w.binder("c2", scheme, replica.SingleCopyPassive, 1)
			bd2, err := w.runAction(b2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := bd2.BrokenServers(); len(got) != 0 {
				t.Fatalf("second client still probed: %v", got)
			}
		})
	}
}

func TestEnhancedSchemeUseListsLifecycle(t *testing.T) {
	w := newWorld(t, 2, 2, 2)
	ctx := context.Background()
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	// Mid-action: c1 has a non-zero counter on sv1; object not quiescent.
	cli := Client{RPC: w.cluster.Node("c2").Client(), DB: "db"}
	sv, use, err := cli.GetServer(ctx, "peek", w.id, true, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.EndAction(ctx, "peek", true)
	if len(sv) != 2 {
		t.Fatalf("sv = %v", sv)
	}
	if use["sv1"]["c1"] != 1 {
		t.Fatalf("use = %v, want sv1/c1=1", use)
	}
	if w.quiescent(w.id) {
		t.Fatal("object should not be quiescent while bound")
	}
	// A second client binding now joins the already-active server (sv1)
	// even though its own fixed choice might have differed.
	b2 := w.binder("c2", SchemeIndependent, replica.SingleCopyPassive, 1)
	act2 := b2.Actions.BeginTop()
	bd2, err := b2.Bind(ctx, act2, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if got := bd2.Servers(); len(got) != 1 || got[0] != "sv1" {
		t.Fatalf("second client bound = %v, want [sv1] (non-zero counter)", got)
	}
	// get (read) shares the object-level read lock? "get" is read-only but
	// counter object currently write-locked by c1's action — so just end
	// without invoking.
	_ = act2.Abort(ctx)
	// After both actions end, counters drain to zero.
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if !w.quiescent(w.id) {
		t.Fatal("object should be quiescent after all actions ended")
	}
}

func TestCommitTimeExcludeRemovesFailedStore(t *testing.T) {
	// §4.2: at commit, stores that missed the state copy are excluded from
	// St so no later client binds to a stale copy.
	w := newWorld(t, 1, 3, 2)
	w.cluster.Node("st2").Crash()
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	bd, err := w.runAction(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := bd.FailedStores(); len(got) != 1 || got[0] != "st2" {
		t.Fatalf("failed stores = %v", got)
	}
	cli := Client{RPC: w.cluster.Node("c2").Client(), DB: "db"}
	st, _, err := cli.GetView(context.Background(), "peek", w.id)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.EndAction(context.Background(), "peek", true)
	if len(st) != 2 {
		t.Fatalf("st = %v, want st2 excluded", st)
	}
	for _, n := range st {
		if n == "st2" {
			t.Fatalf("st2 still in view: %v", st)
		}
	}
	// Surviving stores hold the new mutually consistent state.
	for _, stn := range []transport.Addr{"st1", "st3"} {
		val, seq := w.storeValue(stn)
		if val != "7" || seq != 2 {
			t.Fatalf("%s = %q seq=%d", stn, val, seq)
		}
	}
}

func TestExcludeWriteLockSharesWithConcurrentReaders(t *testing.T) {
	// §4.2.1: several clients hold read locks on the St entry; the
	// committing client's exclude-write promotion succeeds — with the
	// write-lock baseline it is refused and the action aborts.
	run := func(useWriteLock bool) error {
		w := newWorld(t, 1, 2, 2)
		ctx := context.Background()
		// Reader client binds (standard scheme: read locks held to end).
		bReader := w.binder("c2", SchemeStandard, replica.SingleCopyPassive, 0)
		readerAct := bReader.Actions.BeginTop()
		if _, err := bReader.Bind(ctx, readerAct, w.id); err != nil {
			return err
		}
		defer func() { _ = readerAct.Abort(ctx) }()
		// Writer client: store st2 dies before its commit.
		bWriter := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
		bWriter.UseWriteLockForExclude = useWriteLock
		writerAct := bWriter.Actions.BeginTop()
		bd, err := bWriter.Bind(ctx, writerAct, w.id)
		if err != nil {
			return err
		}
		if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
			return err
		}
		w.cluster.Node("st2").Crash()
		_, err = writerAct.Commit(ctx)
		return err
	}
	if err := run(false); err != nil {
		t.Fatalf("exclude-write path should commit: %v", err)
	}
	err := run(true)
	if !errors.Is(err, action.ErrPrepareFailed) {
		t.Fatalf("write-lock promotion path should abort: %v", err)
	}
}

func TestDBCrashLosesUncommittedKeepsCommitted(t *testing.T) {
	w := newWorld(t, 2, 2, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	// Committed: remove sv2 in a finished action.
	if _, err := cli.Do(ctx, RemoveOp("a-commit", w.id, "sv2")); err != nil {
		t.Fatal(err)
	}
	if err := cli.EndAction(ctx, "a-commit", true); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: remove sv1 but never end the action.
	if _, err := cli.Do(ctx, RemoveOp("a-pending", w.id, "sv1")); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("db").Crash()
	w.cluster.Node("db").Recover(nil)
	sv, _, err := cli.GetServer(ctx, "peek", w.id, false, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.EndAction(ctx, "peek", true)
	if len(sv) != 1 || sv[0] != "sv1" {
		t.Fatalf("sv after db recovery = %v, want [sv1] (committed remove kept, uncommitted dropped)", sv)
	}
}

func TestJanitorCleansUpDeadClient(t *testing.T) {
	w := newWorld(t, 1, 1, 2)
	ctx := context.Background()
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	// c1 crashes with a non-zero use count (its Decrement will never run).
	w.cluster.Node("c1").Crash()
	if w.quiescent(w.id) {
		t.Fatal("precondition: object should not be quiescent")
	}
	rep := NewJanitor(w.db).Sweep(ctx)
	if len(rep.DeadClients) != 1 || rep.DeadClients[0] != "c1" {
		t.Fatalf("dead clients = %v", rep.DeadClients)
	}
	if rep.ClearedCounters == 0 {
		t.Fatal("no counters cleared")
	}
	if !w.quiescent(w.id) {
		t.Fatal("object should be quiescent after sweep")
	}
	// Quiescence restored: a recovering server's Insert succeeds.
	cli := Client{RPC: w.cluster.Node("c2").Client(), DB: "db"}
	if _, err := cli.Do(ctx, InsertOp("ins", w.id, "sv9")); err != nil {
		t.Fatalf("Insert after sweep: %v", err)
	}
	_ = cli.EndAction(ctx, "ins", true)
}

func TestServerRecoveryProtocol(t *testing.T) {
	// §4.1.2: a recovered server node re-runs Insert before serving again.
	w := newWorld(t, 2, 2, 1)
	ctx := context.Background()
	sv1 := w.cluster.Node("sv1")
	sv1.Crash()
	// An enhanced-scheme client removes the dead server.
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	if _, err := w.runAction(b, 1); err != nil {
		t.Fatal(err)
	}
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	sv, _, _ := cli.GetServer(ctx, "peek1", w.id, false, false)
	_ = cli.EndAction(ctx, "peek1", true)
	if len(sv) != 1 {
		t.Fatalf("sv = %v", sv)
	}
	// The node recovers and re-inserts itself, once the client's action-end
	// has left its binder (Insert waits for quiescence).
	sv1.Recover(nil)
	w.flushEnds()
	if err := RecoverServerNode(ctx, sv1, "db", []uid.UID{w.id}); err != nil {
		t.Fatal(err)
	}
	sv, _, _ = cli.GetServer(ctx, "peek2", w.id, false, false)
	_ = cli.EndAction(ctx, "peek2", true)
	if len(sv) != 2 {
		t.Fatalf("sv after recovery = %v", sv)
	}
}

func TestStoreRecoveryProtocol(t *testing.T) {
	// §4.2: a recovered store node refreshes its states under an action
	// and Includes itself back into St.
	w := newWorld(t, 1, 2, 1)
	ctx := context.Background()
	st2 := w.cluster.Node("st2")
	st2.Crash()
	// A commit excludes st2 and moves the state forward.
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	if _, err := w.runAction(b, 9); err != nil {
		t.Fatal(err)
	}
	// st2 recovers with a stale copy, catches up, and is included.
	st2.Recover(nil)
	if v, _ := st2.Store().Read(w.id); string(v.Data) != "0" {
		t.Fatalf("precondition: st2 should be stale, got %q", v.Data)
	}
	if err := RecoverStoreNode(ctx, st2, "db", []uid.UID{w.id}); err != nil {
		t.Fatal(err)
	}
	val, seq := w.storeValue("st2")
	if val != "9" || seq != 2 {
		t.Fatalf("st2 after catch-up = %q seq=%d", val, seq)
	}
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	st, _, err := cli.GetView(ctx, "peek", w.id)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.EndAction(ctx, "peek", true)
	if len(st) != 2 {
		t.Fatalf("st after recovery = %v", st)
	}
	// And a further action writes to both stores again.
	if _, err := w.runAction(b, 1); err != nil {
		t.Fatal(err)
	}
	v1, s1 := w.storeValue("st1")
	v2, s2 := w.storeValue("st2")
	if v1 != v2 || s1 != s2 {
		t.Fatalf("stores diverged: st1=%q/%d st2=%q/%d", v1, s1, v2, s2)
	}
}

func TestReadOnlyOptimisationBindsSingleConvenientServer(t *testing.T) {
	// §4.1.2: read-only clients may bind to any convenient server and need
	// no use-list updates.
	w := newWorld(t, 3, 1, 2)
	ctx := context.Background()
	for _, client := range []transport.Addr{"c1", "c2"} {
		b := w.binder(client, SchemeIndependent, replica.SingleCopyPassive, 1)
		b.ReadOnly = true
		act := b.Actions.BeginTop()
		bd, err := b.Bind(ctx, act, w.id)
		if err != nil {
			t.Fatal(err)
		}
		if got := bd.Servers(); len(got) != 1 {
			t.Fatalf("%s bound = %v", client, got)
		}
		resp, err := bd.Invoke(ctx, replica.Call{Method: "get"})
		if err != nil || string(resp.Result) != "0" {
			t.Fatalf("%s get = %q %v", client, resp.Result, err)
		}
		if _, err := act.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// No use counts were ever recorded.
	if !w.quiescent(w.id) {
		t.Fatal("read-only clients must not touch use lists")
	}
}

func TestAbortRestoresDatabaseEntries(t *testing.T) {
	w := newWorld(t, 2, 2, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	if _, err := cli.Do(ctx, RemoveOp("a1", w.id, "sv2")); err != nil {
		t.Fatal(err)
	}
	if err := cli.EndAction(ctx, "a1", false); err != nil { // abort
		t.Fatal(err)
	}
	sv, _, err := cli.GetServer(ctx, "peek", w.id, false, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.EndAction(ctx, "peek", true)
	if len(sv) != 2 {
		t.Fatalf("sv = %v, abort should restore", sv)
	}
}

func TestBindRequiresRunningAction(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 0)
	if _, err := b.Bind(context.Background(), nil, w.id); err == nil {
		t.Fatal("nil action should be rejected")
	}
	act := b.Actions.BeginTop()
	_ = act.Abort(context.Background())
	if _, err := b.Bind(context.Background(), act, w.id); err == nil {
		t.Fatal("ended action should be rejected")
	}
}

func TestConcurrentClientsSerializeOnObject(t *testing.T) {
	// Two writers to the same object serialize via the object's write
	// lock; total equals the sum of their deltas.
	w := newWorld(t, 1, 1, 2)
	done := make(chan error, 2)
	for i, client := range []transport.Addr{"c1", "c2"} {
		go func(i int, client transport.Addr) {
			b := w.binder(client, SchemeStandard, replica.SingleCopyPassive, 0)
			for n := 0; n < 5; n++ {
				if _, err := w.runAction(b, 1); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i, client)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	val, _ := w.storeValue("st1")
	if val != "10" {
		t.Fatalf("total = %q, want 10", val)
	}
}

func TestGeneralCaseFigure5(t *testing.T) {
	// |Sv|>1 and |St|>1 — the most general configuration: active
	// replication with replicated state, a server and a store crash
	// mid-run, everything still converges.
	w := newWorld(t, 3, 3, 1)
	b := w.binder("c1", SchemeIndependent, replica.Active, 0)
	if _, err := w.runAction(b, 1); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("sv2").Crash()
	w.cluster.Node("st3").Crash()
	if _, err := w.runAction(b, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.runAction(b, 1); err != nil {
		t.Fatal(err)
	}
	v1, s1 := w.storeValue("st1")
	v2, s2 := w.storeValue("st2")
	if v1 != "3" || v1 != v2 || s1 != s2 {
		t.Fatalf("stores: st1=%q/%d st2=%q/%d", v1, s1, v2, s2)
	}
}

// failingParticipant refuses to prepare, forcing the enclosing action to
// abort after its sibling participants have already voted.
type failingParticipant struct{}

func (failingParticipant) Name() string { return "refuser" }
func (failingParticipant) Prepare(context.Context, string) (action.Vote, error) {
	return 0, errors.New("refusing to prepare")
}
func (failingParticipant) Commit(context.Context, string) error { return nil }
func (failingParticipant) Abort(context.Context, string) error  { return nil }

func TestReadOnlyVoteDoesNotCommitSiblingExcludeEarly(t *testing.T) {
	// One transaction, two bindings: A only reads, B writes with store st2
	// crashed (so B's prepare Excludes st2 under the shared tx-owned DB
	// action), and a third participant refuses prepare, aborting the
	// action. A's read-only release during phase one must NOT end the
	// shared DB action with commit=true — that would commit B's pending
	// Exclude before the commit point, leaving st2 permanently excluded
	// from the St view of an aborted action.
	w := newWorld(t, 1, 2, 1)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	gen := uid.NewGenerator("obj2", 1)
	id2 := gen.New()
	if err := CreateObject(ctx, cli, id2, "counter", []byte("0"), w.svs, w.sts); err != nil {
		t.Fatal(err)
	}

	b := w.binder("c1", SchemeStandard, replica.SingleCopyPassive, 1)
	act := b.Actions.BeginTop()
	bdA, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bdA.Invoke(ctx, replica.Call{Method: "get"}); err != nil {
		t.Fatal(err)
	}
	bdB, err := b.Bind(ctx, act, id2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bdB.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("st2").Crash()
	if err := act.Enlist(failingParticipant{}); err != nil {
		t.Fatal(err)
	}
	if _, err := act.Commit(ctx); !errors.Is(err, action.ErrPrepareFailed) {
		t.Fatalf("commit err = %v, want ErrPrepareFailed", err)
	}

	// The exclusion must have rolled back with the abort: st2 is still in
	// id2's St view.
	check := b.Actions.BeginTop()
	view, _, err := cli.GetView(ctx, check.ID(), id2)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.EndAction(ctx, check.ID(), true)
	_, _ = check.Commit(ctx)
	found := false
	for _, n := range view {
		if n == "st2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("St view after aborted action = %v, want st2 still present", view)
	}
}
