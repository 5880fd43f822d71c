package replica

import (
	"context"
	"errors"
	"maps"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/group"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/store"
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
	cluster *sim.Cluster
	id      uid.UID
	mgr     *action.Manager
	svs     []transport.Addr
	sts     []transport.Addr
}

func newWorld(t *testing.T, nServers, nStores int) *world {
	t.Helper()
	w := &world{
		cluster: sim.NewCluster(transport.MemOptions{}),
		mgr:     action.NewManager("client", nil),
	}
	reg := object.NewRegistry()
	reg.Register(counterClass())
	for i := 0; i < nServers; i++ {
		name := transport.Addr("sv" + strconv.Itoa(i+1))
		n := w.cluster.Add(name)
		m := object.NewManager(n, reg)
		m.EnableGroupInvocation(group.NewHost(n.Server(), n.Client()))
		w.svs = append(w.svs, name)
	}
	gen := uid.NewGenerator("t", 1)
	w.id = gen.New()
	for i := 0; i < nStores; i++ {
		name := transport.Addr("st" + strconv.Itoa(i+1))
		n := w.cluster.Add(name)
		n.Store().Put(w.id, []byte("0"), 1)
		w.sts = append(w.sts, name)
	}
	w.cluster.Add("client")
	return w
}

func (w *world) handle(t *testing.T, p Policy) *Handle {
	t.Helper()
	h, err := New(Config{
		UID:     w.id,
		Class:   "counter",
		Policy:  p,
		Servers: w.svs,
		StNodes: w.sts,
		Client:  w.cluster.Node("client").Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// begin starts a top-level action with h enlisted as its participant, as a
// core.Binding enlists itself for the handle it drives.
func (w *world) begin(t *testing.T, h *Handle) *action.Action {
	t.Helper()
	a := w.mgr.BeginTop()
	if err := a.Enlist(h); err != nil {
		t.Fatal(err)
	}
	return a
}

func (w *world) storeValue(t *testing.T, st transport.Addr) (string, uint64) {
	t.Helper()
	v, err := w.cluster.Node(st).Store().Read(w.id)
	if err != nil {
		t.Fatalf("read %s: %v", st, err)
	}
	return string(v.Data), v.Seq
}

func TestPolicyString(t *testing.T) {
	if SingleCopyPassive.String() != "single-copy-passive" ||
		Active.String() != "active" ||
		CoordinatorCohort.String() != "coordinator-cohort" {
		t.Fatal("policy strings wrong")
	}
}

func TestNewRejectsEmptyServers(t *testing.T) {
	_, err := New(Config{})
	if !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v", err)
	}
}

func TestSingleCopyPassiveCommitCheckpointsAllStores(t *testing.T) {
	w := newWorld(t, 1, 3)
	ctx := context.Background()
	h := w.handle(t, SingleCopyPassive)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	resp, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("7")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Result) != "7" {
		t.Fatalf("result = %q", resp.Result)
	}
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for _, st := range w.sts {
		val, seq := w.storeValue(t, st)
		if val != "7" || seq != 2 {
			t.Fatalf("%s = %q seq=%d", st, val, seq)
		}
	}
}

func TestSingleCopyAbortLeavesStores(t *testing.T) {
	w := newWorld(t, 1, 2)
	ctx := context.Background()
	h := w.handle(t, SingleCopyPassive)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("7")}); err != nil {
		t.Fatal(err)
	}
	if err := a.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	for _, st := range w.sts {
		val, seq := w.storeValue(t, st)
		if val != "0" || seq != 1 {
			t.Fatalf("%s = %q seq=%d after abort", st, val, seq)
		}
	}
}

func TestSingleCopyServerCrashAbortsAction(t *testing.T) {
	// §3.2(1)/(2): the action must abort if the (single) server crashes
	// during execution.
	w := newWorld(t, 1, 2)
	ctx := context.Background()
	h := w.handle(t, SingleCopyPassive)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("sv1").Crash()
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")}); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v, want ErrNoServers", err)
	}
	if err := a.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if got := h.Broken(); len(got) != 1 || got[0] != "sv1" {
		t.Fatalf("broken = %v", got)
	}
}

func TestActiveReplicationMasksServerCrash(t *testing.T) {
	// §3.2(3): with k activated replicas, up to k-1 server failures are
	// masked during execution.
	w := newWorld(t, 3, 2)
	ctx := context.Background()
	h := w.handle(t, Active)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	// Two of three replicas die mid-action.
	w.cluster.Node("sv1").Crash()
	w.cluster.Node("sv3").Crash()
	resp, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")})
	if err != nil {
		t.Fatalf("masked invoke failed: %v", err)
	}
	if string(resp.Result) != "2" {
		t.Fatalf("result = %q", resp.Result)
	}
	if _, err := a.Commit(ctx); err != nil {
		t.Fatalf("commit with surviving replica: %v", err)
	}
	for _, st := range w.sts {
		val, seq := w.storeValue(t, st)
		if val != "2" || seq != 2 {
			t.Fatalf("%s = %q seq=%d", st, val, seq)
		}
	}
	if got := h.Broken(); len(got) != 2 {
		t.Fatalf("broken = %v", got)
	}
}

func TestActiveReplicationAllCrashAborts(t *testing.T) {
	w := newWorld(t, 2, 1)
	ctx := context.Background()
	h := w.handle(t, Active)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("sv1").Crash()
	w.cluster.Node("sv2").Crash()
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")}); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v", err)
	}
	_ = a.Abort(ctx)
}

func TestActiveReplicasConverge(t *testing.T) {
	w := newWorld(t, 2, 1)
	ctx := context.Background()
	h := w.handle(t, Active)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	for i := 0; i < 4; i++ {
		if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// Both replicas report the same committed value.
	for _, sv := range w.svs {
		h2 := w.handle(t, SingleCopyPassive)
		h2.cfg.Servers = []transport.Addr{sv}
		if err := h2.Activate(ctx); err != nil {
			t.Fatal(err)
		}
		a2 := w.begin(t, h2)
		resp, err := h2.Invoke(ctx, a2, Call{Method: "get"})
		if err != nil || string(resp.Result) != "4" {
			t.Fatalf("%s value = %q %v", sv, resp.Result, err)
		}
		if _, err := a2.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCommitTimeStoreFailureRecordedForExclude(t *testing.T) {
	// §3.2(2): nodes whose copy failed must be removed from St; the handle
	// surfaces them.
	w := newWorld(t, 1, 3)
	ctx := context.Background()
	h := w.handle(t, SingleCopyPassive)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("5")}); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("st2").Crash()
	if _, err := a.Commit(ctx); err != nil {
		t.Fatalf("commit should survive one store failure: %v", err)
	}
	if got := h.FailedStores(); len(got) != 1 || got[0] != "st2" {
		t.Fatalf("failed stores = %v", got)
	}
	for _, st := range []transport.Addr{"st1", "st3"} {
		val, _ := w.storeValue(t, st)
		if val != "5" {
			t.Fatalf("%s = %q", st, val)
		}
	}
}

func TestAllStoresDownAbortsAction(t *testing.T) {
	w := newWorld(t, 1, 2)
	ctx := context.Background()
	h := w.handle(t, SingleCopyPassive)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("5")}); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("st1").Crash()
	w.cluster.Node("st2").Crash()
	_, err := a.Commit(ctx)
	if !errors.Is(err, action.ErrPrepareFailed) {
		t.Fatalf("err = %v, want prepare failure", err)
	}
	if a.Status() != action.StatusAborted {
		t.Fatalf("status = %v", a.Status())
	}
}

func TestCoordinatorCohortCheckpointAndFailover(t *testing.T) {
	// §2.3(ii): the coordinator checkpoints committed state to cohorts; on
	// coordinator failure the next action continues at a cohort — without
	// reading the object stores.
	w := newWorld(t, 3, 1)
	ctx := context.Background()
	h := w.handle(t, CoordinatorCohort)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("9")}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// Coordinator and the only store die.
	w.cluster.Node("sv1").Crash()
	w.cluster.Node("st1").Crash()
	// A new action binds to the surviving cohorts (sv2 is now
	// coordinator); the checkpointed state carries the day.
	h2 := w.handle(t, CoordinatorCohort)
	h2.markBroken("sv1")
	if err := h2.Activate(ctx); err != nil {
		t.Fatalf("cohort activation should not need the store: %v", err)
	}
	a2 := w.begin(t, h2)
	resp, err := h2.Invoke(ctx, a2, Call{Method: "get"})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Result) != "9" {
		t.Fatalf("cohort state = %q, want 9 (checkpoint lost?)", resp.Result)
	}
	if _, err := a2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorCrashMidActionAborts(t *testing.T) {
	w := newWorld(t, 2, 1)
	ctx := context.Background()
	h := w.handle(t, CoordinatorCohort)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("3")}); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("sv1").Crash()
	// The binding broke; this action cannot continue (uncommitted state
	// died with the coordinator).
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")}); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v", err)
	}
	_ = a.Abort(ctx)
	// Store still holds the original value.
	val, _ := w.storeValue(t, "st1")
	if val != "0" {
		t.Fatalf("store = %q after aborted action", val)
	}
}

func TestReadOnlyActionNoStoreTraffic(t *testing.T) {
	w := newWorld(t, 1, 2)
	ctx := context.Background()
	h := w.handle(t, SingleCopyPassive)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "get"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for _, st := range w.sts {
		_, seq := w.storeValue(t, st)
		if seq != 1 {
			t.Fatalf("%s seq = %d; read-only action must not bump versions", st, seq)
		}
	}
}

func TestActivateAllServersDown(t *testing.T) {
	w := newWorld(t, 2, 1)
	w.cluster.Node("sv1").Crash()
	w.cluster.Node("sv2").Crash()
	h := w.handle(t, Active)
	if err := h.Activate(context.Background()); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v", err)
	}
}

func TestMutualConsistencyOfStoresAfterMixedFailures(t *testing.T) {
	// Invariant behind the St set: every store that remains "in" holds the
	// same committed seq. Run several actions with store crashes between
	// them and verify all surviving stores agree.
	w := newWorld(t, 1, 3)
	ctx := context.Background()
	stView := append([]transport.Addr(nil), w.sts...)
	total := 0
	for round := 0; round < 3; round++ {
		h, err := New(Config{
			UID: w.id, Class: "counter", Policy: SingleCopyPassive,
			Servers: w.svs, StNodes: stView,
			Client: w.cluster.Node("client").Client(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Activate(ctx); err != nil {
			t.Fatal(err)
		}
		a := w.begin(t, h)
		if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")}); err != nil {
			t.Fatal(err)
		}
		if round == 1 {
			w.cluster.Node("st3").Crash()
		}
		if _, err := a.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		total++
		// Remove failed stores from the view, as the Exclude protocol
		// would.
		for _, bad := range h.FailedStores() {
			var next []transport.Addr
			for _, st := range stView {
				if st != bad {
					next = append(next, st)
				}
			}
			stView = next
		}
	}
	if len(stView) != 2 {
		t.Fatalf("view = %v, want st3 excluded", stView)
	}
	var seqs []uint64
	for _, st := range stView {
		val, seq := w.storeValue(t, st)
		if val != strconv.Itoa(total) {
			t.Fatalf("%s = %q, want %d", st, val, total)
		}
		seqs = append(seqs, seq)
	}
	if seqs[0] != seqs[1] {
		t.Fatalf("surviving stores disagree on seq: %v", seqs)
	}
}

func TestOnePhaseReplyLostResolvedByReprepare(t *testing.T) {
	// Figure-1 ambiguity, resolved: the one-phase round
	// executes at the server (the store durably commits) but the reply is
	// lost. The coordinator must not report an abort — the 2PC fallback
	// re-prepares, the server answers clean (it released the action when
	// the one-phase round committed), and the store's committed TxID
	// affirms the outcome, so the commit stands.
	w := newWorld(t, 1, 1)
	ctx := context.Background()
	w.cluster.Faults().DropReplies(1,
		transport.ToMethod("sv1", object.ServiceName, object.MethodPrepare))
	h := w.handle(t, SingleCopyPassive)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("7")}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(ctx); err != nil {
		t.Fatalf("commit should resolve the lost reply affirmatively, got %v", err)
	}
	val, seq := w.storeValue(t, "st1")
	if val != "7" || seq != 2 {
		t.Fatalf("st1 = %q seq=%d, want 7 seq=2", val, seq)
	}
}

func TestOnePhaseReplyLostThenCrashReportsOutcomeUnknown(t *testing.T) {
	// Figure-1 ambiguity, unresolvable: the one-phase round commits at the
	// store, the reply is lost, and the server crashes before the fallback
	// can re-prepare. No definite answer exists anywhere the coordinator
	// can reach, so the commit must fail with ErrOutcomeUnknown — a plain
	// "aborted" here would deny a durably committed write (the phantom
	// update a mux-transport chaos seed caught).
	w := newWorld(t, 1, 1)
	ctx := context.Background()
	rule := transport.ToMethod("sv1", object.ServiceName, object.MethodPrepare)
	w.cluster.Faults().OnReply(1, rule, func(transport.Request) {
		w.cluster.Node("sv1").Crash()
	})
	w.cluster.Faults().DropReplies(1, rule)
	h := w.handle(t, SingleCopyPassive)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("7")}); err != nil {
		t.Fatal(err)
	}
	_, err := a.Commit(ctx)
	if err == nil {
		t.Fatal("commit reported success with the only witness crashed")
	}
	if !errors.Is(err, action.ErrOutcomeUnknown) {
		t.Fatalf("err = %v, want ErrOutcomeUnknown", err)
	}
	// The write really is durable at the store — the exact state a
	// definite abort report would contradict.
	val, seq := w.storeValue(t, "st1")
	if val != "7" || seq != 2 {
		t.Fatalf("st1 = %q seq=%d, want committed 7 seq=2", val, seq)
	}
}

// serverStatus reads the object's instance status at sv from outside any
// action.
func (w *world) serverStatus(t *testing.T, sv transport.Addr) object.StatusResp {
	t.Helper()
	st, err := object.ServerRef{Client: w.cluster.Node("client").Client(), Node: sv, UID: w.id}.Status(context.Background())
	if err != nil {
		t.Fatalf("status %s: %v", sv, err)
	}
	return st
}

// TestFirstInvokeWalksPastDefiniteFailures: under single-copy passive the
// binding's first request is the §4.1.2 probe. A candidate that provably
// never ran it — crashed, the request lost on the way, or unable to
// activate the object — is marked broken and the next one is tried; the
// action commits there.
func TestFirstInvokeWalksPastDefiniteFailures(t *testing.T) {
	for _, c := range []struct {
		name string
		fail func(w *world)
	}{
		{"crashed", func(w *world) { w.cluster.Node("sv1").Crash() }},
		{"request-lost", func(w *world) {
			w.cluster.Faults().DropRequests(1, transport.ToMethod("sv1", object.ServiceName, object.MethodInvoke))
		}},
		{"cannot-activate", func(w *world) {
			for _, st := range w.sts {
				w.cluster.Faults().Partition("sv1", st)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 3, 2)
			ctx := context.Background()
			c.fail(w)
			h := w.handle(t, SingleCopyPassive)
			if got := h.Bound(); len(got) != 1 || got[0] != "sv1" {
				t.Fatalf("bound before the first request = %v, want the first candidate", got)
			}
			a := w.begin(t, h)
			resp, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("7")})
			if err != nil || string(resp.Result) != "7" {
				t.Fatalf("first invoke = %q, %v", resp.Result, err)
			}
			if got := h.Broken(); len(got) != 1 || got[0] != "sv1" {
				t.Fatalf("broken = %v, want [sv1]", got)
			}
			if got := h.Bound(); len(got) != 1 || got[0] != "sv2" {
				t.Fatalf("bound = %v, want [sv2]", got)
			}
			if _, err := a.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if val, seq := w.storeValue(t, "st1"); val != "7" || seq != 2 {
				t.Fatalf("st1 = %q seq=%d", val, seq)
			}
			if w.serverStatus(t, "sv3").Active {
				t.Fatal("the walk went past the candidate that answered")
			}
		})
	}
}

// TestFailoverReadIsNotServedALeftBehindCopy: sv2 stood in while sv1 was
// away and nothing passivated its copy; the writers went back to sv1. A
// reader that cannot reach sv1 lands on sv2 again and must read what the
// stores hold now, not what sv2 held then — its first request says it came
// by failover and sv2 re-checks its copy (object.InvokeReq.Failover). A
// binding that reaches sv2 as its first choice asks for no check.
func TestFailoverReadIsNotServedALeftBehindCopy(t *testing.T) {
	w := newWorld(t, 2, 2)
	ctx := context.Background()
	add := func(delta string) {
		t.Helper()
		h := w.handle(t, SingleCopyPassive)
		a := w.begin(t, h)
		if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte(delta)}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	read := func() string {
		t.Helper()
		h := w.handle(t, SingleCopyPassive)
		a := w.begin(t, h)
		resp, err := h.Invoke(ctx, a, Call{Method: "get"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		return string(resp.Result)
	}
	w.cluster.Faults().Partition("client", "sv1")
	add("1") // fails over: sv2 activates the object and commits 1
	w.cluster.Faults().Heal("client", "sv1")
	add("1") // sv1 activates from the stores and commits 2; sv2 keeps 1
	if st := w.serverStatus(t, "sv2"); !st.Active || st.Seq != 2 {
		t.Fatalf("sv2 = %+v, want its copy left activated at seq 2", st)
	}
	w.cluster.Faults().Partition("client", "sv1")
	if got := read(); got != "2" {
		t.Fatalf("read by failover = %s, want the committed 2", got)
	}
	if st := w.serverStatus(t, "sv2"); st.Seq != 3 {
		t.Fatalf("sv2 after the failover read = %+v, want the copy reloaded at seq 3", st)
	}
}

// TestFirstInvokeAllCandidatesDown keeps the total-failure error's shape:
// ErrNoServers with the last per-server cause on the chain.
func TestFirstInvokeAllCandidatesDown(t *testing.T) {
	w := newWorld(t, 2, 1)
	w.cluster.Node("sv1").Crash()
	w.cluster.Node("sv2").Crash()
	h := w.handle(t, SingleCopyPassive)
	a := w.begin(t, h)
	_, err := h.Invoke(context.Background(), a, Call{Method: "add", Args: []byte("1")})
	if !errors.Is(err, ErrNoServers) || !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrNoServers wrapping ErrUnreachable", err)
	}
	if got := h.Broken(); len(got) != 2 {
		t.Fatalf("broken = %v, want both", got)
	}
	if err := a.Abort(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFirstInvokeReplyLostAbortsWithoutFailover: the first request ran at
// sv1 under the action's lock and only its reply was lost. The operation
// must never be executed at a second server, so the binding breaks and
// the action aborts — and sv1 is left exactly as a reply lost on a later
// invoke leaves it (Abort addresses live servers only).
func TestFirstInvokeReplyLostAbortsWithoutFailover(t *testing.T) {
	invokeAt := transport.ToMethod("sv1", object.ServiceName, object.MethodInvoke)
	status := make(map[string]object.StatusResp)
	for _, lostOn := range []string{"first", "later"} {
		w := newWorld(t, 2, 1)
		ctx := context.Background()
		h := w.handle(t, SingleCopyPassive)
		a := w.begin(t, h)
		if lostOn == "later" {
			if _, err := h.Invoke(ctx, a, Call{Method: "get"}); err != nil {
				t.Fatal(err)
			}
		}
		w.cluster.Faults().DropReplies(1, invokeAt)
		if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")}); !errors.Is(err, ErrNoServers) {
			t.Fatalf("reply lost on the %s invoke: err = %v, want ErrNoServers", lostOn, err)
		}
		if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")}); !errors.Is(err, ErrNoServers) {
			t.Fatalf("invoke on the broken binding: err = %v, want ErrNoServers", err)
		}
		if err := a.Abort(ctx); err != nil {
			t.Fatal(err)
		}
		if got := h.Broken(); len(got) != 1 || got[0] != "sv1" {
			t.Fatalf("%s: broken = %v, want [sv1]", lostOn, got)
		}
		if w.serverStatus(t, "sv2").Active {
			t.Fatalf("%s: the operation was taken to a second server", lostOn)
		}
		status[lostOn] = w.serverStatus(t, "sv1")
	}
	if status["first"] != status["later"] {
		t.Fatalf("sv1 after a reply lost on the first invoke: %+v; on a later one: %+v", status["first"], status["later"])
	}
}

// TestBoundNeverInvokedCommitsWithoutAServer: a single-copy-passive
// binding that is never invoked has sent nothing, so its commit (and its
// abort) contact no server either and it votes read-only.
func TestBoundNeverInvokedCommitsWithoutAServer(t *testing.T) {
	w := newWorld(t, 2, 1)
	ctx := context.Background()
	contacted := 0
	w.cluster.Faults().OnRequest(-1, func(req transport.Request) bool { return req.Service == object.ServiceName },
		func(transport.Request) { contacted++ })
	for _, commit := range []bool{true, false} {
		h := w.handle(t, SingleCopyPassive)
		if err := h.Activate(ctx); err != nil {
			t.Fatal(err)
		}
		a := w.begin(t, h)
		if !commit {
			if err := a.Abort(ctx); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rep, err := a.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ReadOnlyVoters != 1 {
			t.Fatalf("report = %+v, want one read-only voter", rep)
		}
	}
	if contacted != 0 {
		t.Fatalf("%d requests reached an object server", contacted)
	}
}

// TestCommitWaitsOutLeaseClockWhenFallbackCoordinatorDies: the view primary
// is gone and the action commits at the fallback coordinator, whose first
// commit is what waits out the read leases the primary had granted. That
// server dies in phase two, after the stores have the commit; the client
// finishes the commit at the stores itself — and must then wait the lease
// clock out in the server's stead before it acknowledges, not only when the
// server that failed was the primary.
func TestCommitWaitsOutLeaseClockWhenFallbackCoordinatorDies(t *testing.T) {
	const ttl = 40 * time.Millisecond
	w := newWorld(t, 2, 2)
	ctx := context.Background()
	w.cluster.Node("sv1").Crash()
	h, err := New(Config{
		UID: w.id, Class: "counter", Policy: SingleCopyPassive,
		Servers: w.svs, StNodes: w.sts, LeaseTTL: ttl,
		Client: w.cluster.Node("client").Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	a := w.begin(t, h)
	if _, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	atCommit := transport.ToMethod("sv2", object.ServiceName, object.MethodCommit)
	w.cluster.Faults().OnReply(1, atCommit, func(transport.Request) { w.cluster.Node("sv2").Crash() })
	w.cluster.Faults().DropReplies(1, atCommit)
	start := time.Now()
	if _, err := a.Commit(ctx); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if waited := time.Since(start); waited < 2*ttl {
		t.Fatalf("commit acknowledged after %v, inside the %v lease clock", waited, 2*ttl)
	}
	for _, st := range w.sts {
		if val, seq := w.storeValue(t, st); val != "1" || seq != 2 {
			t.Fatalf("%s = %q seq=%d", st, val, seq)
		}
	}
}

// objsrvCalls counts the client's messages to object servers, by method.
func (w *world) objsrvCalls() map[string]int {
	calls := make(map[string]int)
	w.cluster.Faults().OnRequest(-1, func(req transport.Request) bool {
		return req.From == "client" && req.Service == object.ServiceName
	}, func(req transport.Request) { calls[req.Method]++ })
	return calls
}

// TestSoloWriteCarriesPhaseOne: a solo write's request carries the action's
// phase one. Over one store it is the handle's only message to its server —
// the commit answers from the vote the reply carried, and still counts as a
// one-phase commit vote, not a read-only one; under coordinator-cohort the
// checkpoint list rides the request too, so a cohort can take over after the
// one message. Over several stores the request carries the prepare, the
// coordinator logs the outcome, and Commit is the second and last message —
// with the coordinator's in-flight window open from before the intentions
// existed.
func TestSoloWriteCarriesPhaseOne(t *testing.T) {
	cases := []struct {
		name            string
		policy          Policy
		servers, stores int
		carry           object.Carry
		calls           map[string]int
	}{
		{"combined-round", SingleCopyPassive, 2, 1, object.CarryCommit, map[string]int{object.MethodInvoke: 1}},
		{"prepare", SingleCopyPassive, 1, 3, object.CarryPrepare, map[string]int{object.MethodInvoke: 1, object.MethodCommit: 1}},
		{"cohort-checkpoint", CoordinatorCohort, 2, 1, object.CarryCommit, map[string]int{object.MethodInvoke: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, c.servers, c.stores)
			ctx := context.Background()
			h := w.handle(t, c.policy)
			if err := h.Activate(ctx); err != nil {
				t.Fatal(err)
			}
			calls := w.objsrvCalls()
			a := w.begin(t, h)
			resp, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("7"), Solo: true})
			if err != nil || resp.Batched || string(resp.Result) != "7" || resp.Carried != c.carry {
				t.Fatalf("Invoke = %+v, %v; want result 7 carrying phase %d", resp, err, c.carry)
			}
			onePhase := c.carry == object.CarryCommit
			pending := 1
			if onePhase {
				pending = 0
			}
			for _, st := range w.sts {
				if pend := w.cluster.Node(st).Store().PendingTxs(); len(pend) != pending {
					t.Fatalf("%s holds intentions %v after the carried phase one, want %d", st, pend, pending)
				}
			}
			if got := w.mgr.Lookup(a.ID()); (got == store.OutcomeUnavailable) == onePhase {
				t.Fatalf("lookup between the carried phase one and Commit = %v; the window is open only for a carried prepare", got)
			}
			rep, err := a.Commit(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OnePhase != onePhase || rep.CommitVoters != 1 || rep.ReadOnlyVoters != 0 || rep.OutcomeLogged == onePhase {
				t.Fatalf("report = %+v; want a commit vote, one-phase %v, logged %v", rep, onePhase, !onePhase)
			}
			if !maps.Equal(calls, c.calls) {
				t.Fatalf("messages to servers: %v; want %v", calls, c.calls)
			}
			for _, st := range w.sts {
				if val, seq := w.storeValue(t, st); val != "7" || seq != 2 {
					t.Fatalf("%s = %q seq=%d, want 7 seq=2", st, val, seq)
				}
			}
			if st := w.serverStatus(t, "sv1"); st.Users != 0 {
				t.Fatalf("sv1 still has %d users", st.Users)
			}
			if c.policy == CoordinatorCohort {
				if st := w.serverStatus(t, "sv2"); !st.Active || st.Seq != 2 {
					t.Fatalf("cohort sv2 = %+v; want the checkpoint at seq 2", st)
				}
			}
		})
	}
}

// TestInvokeSoloRefusedVoteAborts: the carried vote is a refusal — no store
// took the state. The invocation succeeded and its reply carries the refusal;
// the commit fails with the error the one-phase Prepare message would have
// brought, and the roll-back reaches the server.
func TestInvokeSoloRefusedVoteAborts(t *testing.T) {
	w := newWorld(t, 1, 1)
	ctx := context.Background()
	h := w.handle(t, SingleCopyPassive)
	warm := w.begin(t, h)
	if _, err := h.Invoke(ctx, warm, Call{Method: "get", Solo: true, ReadOnly: true}); err != nil { // activates sv1 while st1 is up
		t.Fatal(err)
	}
	if _, err := warm.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("st1").Crash()
	h = w.handle(t, SingleCopyPassive)
	a := w.begin(t, h)
	resp, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("7"), Solo: true})
	if err != nil || string(resp.Result) != "7" {
		t.Fatalf("Invoke = %q, %v; the vote's refusal is not the invocation's", resp.Result, err)
	}
	if resp.Carried != object.CarryCommit || resp.Vote.Err() == nil {
		t.Fatalf("reply = %+v; want the carried refusal", resp)
	}
	if _, err := a.Commit(ctx); !errors.Is(err, action.ErrPrepareFailed) || errors.Is(err, action.ErrOutcomeUnknown) {
		t.Fatalf("commit err = %v, want a definite prepare failure", err)
	}
	if st := w.serverStatus(t, "sv1"); st.Users != 0 || st.Seq != 1 {
		t.Fatalf("sv1 after the roll-back = %+v", st)
	}
}

// TestInvokeSoloReplyLostIsInDoubtNotBroken: the solo request's reply is
// lost after the server committed. The binding is not broken and the error
// is a doubt; commit processing then establishes the commit from the
// store's committed TxID, with no second run of the operation anywhere.
func TestInvokeSoloReplyLostIsInDoubtNotBroken(t *testing.T) {
	w := newWorld(t, 2, 1)
	ctx := context.Background()
	w.cluster.Faults().DropReplies(1, transport.ToMethod("sv1", object.ServiceName, object.MethodInvoke))
	h := w.handle(t, SingleCopyPassive)
	a := w.begin(t, h)
	_, err := h.Invoke(ctx, a, Call{Method: "add", Args: []byte("7"), Solo: true})
	if !errors.Is(err, action.ErrOutcomeUnknown) || errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v, want a doubt and no ErrNoServers", err)
	}
	if len(h.Broken()) != 0 {
		t.Fatalf("broken = %v: an in-doubt server must stay addressable for the resolution", h.Broken())
	}
	rep, err := a.Commit(ctx)
	if err != nil || rep.ReadOnlyVoters != 1 {
		t.Fatalf("commit = %+v, %v; want the doubt resolved to committed-and-released", rep, err)
	}
	if val, seq := w.storeValue(t, "st1"); val != "7" || seq != 2 {
		t.Fatalf("st1 = %q seq=%d, want 7 seq=2", val, seq)
	}
	if st := w.serverStatus(t, "sv2"); st.Active {
		t.Fatal("the operation was taken to a second server")
	}
}

// TestInvokeSoloReadOnlyCarriesTheVote: flagged read-only, the solo request
// brings back the read-only vote and the version read — the reply's Seq is
// the carried vote's — on either store count and with no commit window
// opened; commit processing sends nothing. A later call through the handle
// drops the vote — the server holds the action again — and the method-less
// call re-reads the version under the lock, which then takes a phase-one
// message of its own to release.
func TestInvokeSoloReadOnlyCarriesTheVote(t *testing.T) {
	for _, stores := range []int{1, 3} {
		w := newWorld(t, 2, stores)
		ctx := context.Background()
		calls := w.objsrvCalls()
		h := w.handle(t, SingleCopyPassive)
		a := w.begin(t, h)
		read := Call{Method: "get", Solo: true, ReadOnly: true}
		resp, err := h.Invoke(ctx, a, read)
		if err != nil || string(resp.Result) != "0" {
			t.Fatalf("%d stores: Invoke(get) = %q, %v", stores, resp.Result, err)
		}
		if resp.Carried == object.CarryNone || resp.Vote.Err() != nil || resp.Vote.Dirty {
			t.Fatalf("%d stores: reply = %+v; want a carried read-only vote", stores, resp)
		}
		if resp.Seq != 1 || resp.Vote.NewSeq != resp.Seq {
			t.Fatalf("%d stores: reply Seq = %d, vote NewSeq = %d; want version 1 in both", stores, resp.Seq, resp.Vote.NewSeq)
		}
		if got := w.mgr.Lookup(a.ID()); got == store.OutcomeUnavailable {
			t.Fatalf("%d stores: a carried read opened the commit window", stores)
		}
		if st := w.serverStatus(t, "sv1"); st.Users != 0 {
			t.Fatalf("%d stores: sv1 holds the action after answering a carried read", stores)
		}
		rep, err := a.Commit(ctx)
		if err != nil || rep.ReadOnlyVoters != 1 || rep.CommitVoters != 0 || rep.OutcomeLogged {
			t.Fatalf("%d stores: commit = %+v, %v", stores, rep, err)
		}
		if calls[object.MethodInvoke] != 1 || calls[object.MethodPrepare]+calls[object.MethodCommit] != 0 {
			t.Fatalf("%d stores: messages to servers: %v; want one Invoke and no commit processing", stores, calls)
		}

		h = w.handle(t, SingleCopyPassive)
		a = w.begin(t, h)
		first, err := h.Invoke(ctx, a, read)
		if err != nil {
			t.Fatal(err)
		}
		check, err := h.Invoke(ctx, a, Call{})
		if err != nil || check.Seq != 1 {
			t.Fatalf("%d stores: method-less call = %+v, %v", stores, check, err)
		}
		if _, ok, _ := h.takeCarried(first.Carried); ok {
			t.Fatalf("%d stores: the carried vote outlived a later request", stores)
		}
		if st := w.serverStatus(t, "sv1"); st.Users != 1 {
			t.Fatalf("%d stores: sv1 users = %d after the method-less call, want the re-taken lock", stores, st.Users)
		}
		clear(calls)
		if _, err := a.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 1 || calls[object.MethodPrepare] != 1 {
			t.Fatalf("%d stores: commit after the method-less call sent %v; want one releasing message", stores, calls)
		}
		if st := w.serverStatus(t, "sv1"); st.Users != 0 {
			t.Fatalf("%d stores: sv1 still holds the action", stores)
		}
	}
}

// TestInvokeSoloReadOnlyReplyLostBreaksTheBinding: a read-only solo request
// whose reply is lost fails as a plain Invoke does — the binding breaks, no
// doubt is recorded, no second server is tried — and the server, having
// released the action in the request, holds nothing for it.
func TestInvokeSoloReadOnlyReplyLostBreaksTheBinding(t *testing.T) {
	w := newWorld(t, 2, 1)
	ctx := context.Background()
	w.cluster.Faults().DropReplies(1, transport.ToMethod("sv1", object.ServiceName, object.MethodInvoke))
	h := w.handle(t, SingleCopyPassive)
	a := w.begin(t, h)
	_, err := h.Invoke(ctx, a, Call{Method: "get", Solo: true, ReadOnly: true})
	if !errors.Is(err, ErrNoServers) || errors.Is(err, action.ErrOutcomeUnknown) {
		t.Fatalf("err = %v, want ErrNoServers and no doubt", err)
	}
	if broken := h.Broken(); len(broken) != 1 || broken[0] != "sv1" {
		t.Fatalf("broken = %v, want [sv1]", broken)
	}
	if err := a.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if st := w.serverStatus(t, "sv1"); st.Users != 0 {
		t.Fatalf("sv1 holds %d users for an action whose read it answered and released", st.Users)
	}
	if st := w.serverStatus(t, "sv2"); st.Active {
		t.Fatal("the read was taken to a second server")
	}
}

// TestMethodLessCallGoesToTheCoordinator: under active replication a call
// that names a method is multicast to the object's group, but the
// method-less check is one objsrv Invoke to the coordinator and no group
// message; it takes the read lock there and reports the committed version.
func TestMethodLessCallGoesToTheCoordinator(t *testing.T) {
	w := newWorld(t, 2, 1)
	ctx := context.Background()
	h := w.handle(t, Active)
	if err := h.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	sent := make(map[string]int)
	w.cluster.Faults().OnRequest(-1, func(req transport.Request) bool { return req.From == "client" },
		func(req transport.Request) { sent[req.Service+"/"+string(req.To)+"/"+req.Method]++ })
	a := w.begin(t, h)
	resp, err := h.Invoke(ctx, a, Call{})
	if err != nil || resp.Seq != 1 {
		t.Fatalf("method-less call = %+v, %v; want version 1", resp, err)
	}
	want := map[string]int{object.ServiceName + "/sv1/" + object.MethodInvoke: 1}
	if !maps.Equal(sent, want) {
		t.Fatalf("messages sent: %v; want %v", sent, want)
	}
	if st := w.serverStatus(t, "sv1"); st.Users != 1 {
		t.Fatalf("sv1 users = %d after the method-less call, want the read lock held", st.Users)
	}
	if _, err := h.Invoke(ctx, a, Call{Method: "get"}); err != nil {
		t.Fatal(err)
	}
	var group int
	for k, n := range sent {
		if strings.HasPrefix(k, "group/") {
			group += n
		}
	}
	if group == 0 || sent[object.ServiceName+"/sv1/"+object.MethodInvoke] != 1 {
		t.Fatalf("messages sent after a read: %v; want it multicast, not sent as an Invoke", sent)
	}
	if _, err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}
