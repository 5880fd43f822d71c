package object

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/uid"
)

// counterClass is a tiny persistent object: state is a decimal integer.
func counterClass() *Class {
	parse := func(state []byte) int {
		n, _ := strconv.Atoi(string(state))
		return n
	}
	return &Class{
		Name: "counter",
		Init: func() []byte { return []byte("0") },
		Methods: map[string]Method{
			"add": func(state, args []byte) ([]byte, []byte, error) {
				delta, err := strconv.Atoi(string(args))
				if err != nil {
					return nil, nil, err
				}
				n := parse(state) + delta
				out := []byte(strconv.Itoa(n))
				return out, out, nil
			},
			"get": func(state, args []byte) ([]byte, []byte, error) {
				return state, state, nil
			},
			"fail": func(state, args []byte) ([]byte, []byte, error) {
				return nil, nil, errors.New("intentional failure")
			},
		},
		ReadOnly: map[string]bool{"get": true},
	}
}

type world struct {
	cluster *sim.Cluster
	reg     *Registry
	id      uid.UID
}

// newWorld builds: server nodes sv1,sv2; store nodes st1,st2; client node.
// The counter object's initial state "0" (seq 1) is installed at both
// stores.
func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{cluster: sim.NewCluster(transport.MemOptions{}), reg: NewRegistry()}
	w.reg.Register(counterClass())
	for _, name := range []transport.Addr{"sv1", "sv2"} {
		n := w.cluster.Add(name)
		NewManager(n, w.reg)
	}
	for _, name := range []transport.Addr{"st1", "st2"} {
		w.cluster.Add(name)
	}
	w.cluster.Add("client")
	gen := uid.NewGenerator("test", 1)
	w.id = gen.New()
	w.cluster.Node("st1").Store().Put(w.id, []byte("0"), 1)
	w.cluster.Node("st2").Store().Put(w.id, []byte("0"), 1)
	return w
}

func (w *world) ref(node transport.Addr) ServerRef {
	return ServerRef{Client: w.cluster.Node("client").Client(), Node: node, UID: w.id}
}

// activate sends a binding's activation probe through ref: a method-less
// request naming the class and the St view and no action, which activates
// the object and locks nothing.
func activate(ctx context.Context, ref ServerRef, class string, stNodes ...transport.Addr) (InvokeResp, error) {
	ref.Class, ref.StNodes = class, stNodes
	return ref.Invoke(ctx, InvokeReq{})
}

// call invokes method under action through ref and returns its result.
func call(ctx context.Context, ref ServerRef, action, method string, args []byte) ([]byte, error) {
	resp, err := ref.Invoke(ctx, InvokeReq{Action: action, Method: method, Args: args})
	return resp.Result, err
}

func TestActivateLoadsFromStore(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	resp, err := activate(ctx, w.ref("sv1"), "counter", "st1", "st2")
	if err != nil {
		t.Fatalf("activate: %v", err)
	}
	if resp.Seq != 1 || resp.Result != nil || resp.Modified {
		t.Fatalf("resp = %+v", resp)
	}
	if st, err := w.ref("sv1").Status(ctx); err != nil || !st.Active || st.Users != 0 {
		t.Fatalf("status after activation = %+v, %v; want active with no user", st, err)
	}
	// Second activation is idempotent: the copy in memory stands, however
	// far the stores have moved on.
	w.cluster.Node("st1").Store().Put(w.id, []byte("9"), 2)
	resp2, err := activate(ctx, w.ref("sv1"), "counter", "st1")
	if err != nil || resp2.Seq != 1 {
		t.Fatalf("re-activate: %+v %v", resp2, err)
	}
	// With no class the request activates nothing: it reports the version
	// of a server already there, and refuses where there is none.
	if resp, err := w.ref("sv1").Invoke(ctx, InvokeReq{}); err != nil || resp.Seq != 1 {
		t.Fatalf("method-less request without class = %+v, %v", resp, err)
	}
	if _, err := w.ref("sv2").Invoke(ctx, InvokeReq{}); !IsNotActive(err) {
		t.Fatalf("method-less request without class at a passive node: err = %v, want not-active", err)
	}
}

func TestActivateFallsBackAcrossStores(t *testing.T) {
	w := newWorld(t)
	// Only st2 holds version 2: a copy at 2 was loaded from st2.
	w.cluster.Node("st2").Store().Put(w.id, []byte("4"), 2)
	w.cluster.Node("st1").Crash()
	resp, err := activate(context.Background(), w.ref("sv1"), "counter", "st1", "st2")
	if err != nil {
		t.Fatalf("activate: %v", err)
	}
	if resp.Seq != 2 {
		t.Fatalf("loaded seq %d, want st2's 2", resp.Seq)
	}
}

func TestActivateNoStoreAvailable(t *testing.T) {
	w := newWorld(t)
	w.cluster.Node("st1").Crash()
	w.cluster.Node("st2").Crash()
	_, err := activate(context.Background(), w.ref("sv1"), "counter", "st1", "st2")
	if rpc.CodeOf(err) != CodeUnavailable {
		t.Fatalf("err = %v, want unavailable", err)
	}
}

func TestActivateUnknownClass(t *testing.T) {
	w := newWorld(t)
	_, err := activate(context.Background(), w.ref("sv1"), "nonesuch", "st1")
	if rpc.CodeOf(err) != rpc.CodeNotFound {
		t.Fatalf("err = %v", err)
	}
}

// TestMethodLessInvokeHoldsReadLockUntilReadOnlyVote: a method-less request
// under an action takes the read lock and binds the action as a read does:
// a writer queues behind it until the action's Prepare releases it as a
// read-only vote, reporting the version the check saw.
func TestMethodLessInvokeHoldsReadLockUntilReadOnlyVote(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	check, err := ref.Invoke(ctx, InvokeReq{Action: "checker"})
	if err != nil || check.Seq != 1 || check.Modified || check.Lease != nil {
		t.Fatalf("check = %+v, %v; want seq 1, nothing written or granted", check, err)
	}
	if st, err := ref.Status(ctx); err != nil || st.Users != 1 {
		t.Fatalf("status = %+v, %v; want the checker bound", st, err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := call(ctx, ref, "writer", "add", []byte("1"))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("writer ran past the check's read lock: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	vote, err := ref.Prepare(ctx, "checker", []transport.Addr{"st1", "st2"}, false)
	if err != nil || vote.Dirty || vote.NewSeq != check.Seq {
		t.Fatalf("checker's prepare = %+v, %v; want a read-only vote at seq %d", vote, err, check.Seq)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("writer after the read-only vote: %v", err)
	}
	if _, err := ref.Abort(ctx, "writer"); err != nil {
		t.Fatal(err)
	}
}

func TestInvokeRequiresActivation(t *testing.T) {
	w := newWorld(t)
	_, err := call(context.Background(), w.ref("sv1"), "a1", "get", nil)
	if !IsNotActive(err) {
		t.Fatalf("err = %v, want not-active", err)
	}
}

func TestInvokeCommitWritesBackToAllStores(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	res, err := call(ctx, ref, "act1", "add", []byte("5"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "5" {
		t.Fatalf("result = %q", res)
	}
	prep, err := ref.Prepare(ctx, "act1", []transport.Addr{"st1", "st2"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Dirty || prep.NewSeq != 2 || len(prep.PreparedNodes) != 2 || len(prep.FailedNodes) != 0 {
		t.Fatalf("prepare = %+v", prep)
	}
	if _, err := ref.Commit(ctx, "act1"); err != nil {
		t.Fatal(err)
	}
	for _, st := range []transport.Addr{"st1", "st2"} {
		v, err := w.cluster.Node(st).Store().Read(w.id)
		if err != nil || string(v.Data) != "5" || v.Seq != 2 {
			t.Fatalf("%s: %+v %v", st, v, err)
		}
	}
	// Server's base version advanced.
	status, _ := ref.Status(ctx)
	if status.Seq != 2 || status.Users != 0 {
		t.Fatalf("status = %+v", status)
	}
}

func TestPrepareReportsFailedStores(t *testing.T) {
	// §3.2(2): "the names of all those nodes for which the copy operation
	// failed must be removed from St" — the server reports them.
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "act1", "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("st2").Crash()
	prep, err := ref.Prepare(ctx, "act1", []transport.Addr{"st1", "st2"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.PreparedNodes) != 1 || prep.PreparedNodes[0] != "st1" {
		t.Fatalf("prepared = %v", prep.PreparedNodes)
	}
	if len(prep.FailedNodes) != 1 || prep.FailedNodes[0] != "st2" {
		t.Fatalf("failed = %v", prep.FailedNodes)
	}
	if _, err := ref.Commit(ctx, "act1"); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.cluster.Node("st1").Store().Read(w.id); string(v.Data) != "1" {
		t.Fatal("surviving store missed the commit")
	}
}

func TestPrepareAllStoresDownAborts(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "act1", "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("st1").Crash()
	w.cluster.Node("st2").Crash()
	_, err := ref.Prepare(ctx, "act1", []transport.Addr{"st1", "st2"}, false)
	if rpc.CodeOf(err) != CodeUnavailable {
		t.Fatalf("err = %v, want unavailable", err)
	}
}

func TestAbortRestoresSnapshotAndStores(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "act1", "add", []byte("7")); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Prepare(ctx, "act1", []transport.Addr{"st1", "st2"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Abort(ctx, "act1"); err != nil {
		t.Fatal(err)
	}
	// In-memory state restored.
	res, err := call(ctx, ref, "act2", "get", nil)
	if err != nil || string(res) != "0" {
		t.Fatalf("after abort get = %q, %v", res, err)
	}
	// Stores unchanged (intentions rolled back).
	if v, _ := w.cluster.Node("st1").Store().Read(w.id); string(v.Data) != "0" || v.Seq != 1 {
		t.Fatalf("st1 = %+v", v)
	}
	if got := w.cluster.Node("st1").Store().PendingTxs(); len(got) != 0 {
		t.Fatalf("leftover intentions: %v", got)
	}
}

func TestReadOnlyActionNeedsNoCopy(t *testing.T) {
	// §4.2.1: "if the client has not changed the state of the object, then
	// no copying to object stores is necessary."
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "ro-act", "get", nil); err != nil {
		t.Fatal(err)
	}
	prep, err := ref.Prepare(ctx, "ro-act", []transport.Addr{"st1", "st2"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Dirty {
		t.Fatal("read-only action reported dirty")
	}
	if _, err := ref.Commit(ctx, "ro-act"); err != nil {
		t.Fatal(err)
	}
}

func TestWriteLockSerializesActions(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "writer1", "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	// A second action's write blocks until the first ends.
	blockedCtx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	_, err := call(blockedCtx, ref, "writer2", "add", []byte("1"))
	if rpc.CodeOf(err) != rpc.CodeRefused {
		t.Fatalf("expected lock refusal, got %v", err)
	}
	// After the first action ends, the second proceeds.
	if _, err := ref.Commit(ctx, "writer1"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "writer2", "add", []byte("1")); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if _, err := ref.Abort(ctx, "writer2"); err != nil {
		t.Fatal(err)
	}
}

func TestSharedReadersDontBlock(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		act := fmt.Sprintf("reader%d", i)
		if _, err := call(ctx, ref, act, "get", nil); err != nil {
			t.Fatalf("%s: %v", act, err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := ref.Commit(ctx, fmt.Sprintf("reader%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFailedMethodLeavesStateIntact(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "a", "fail", nil); rpc.CodeOf(err) != rpc.CodeInternal {
		t.Fatalf("err = %v", err)
	}
	if _, err := ref.Abort(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	res, err := call(ctx, ref, "b", "get", nil)
	if err != nil || string(res) != "0" {
		t.Fatalf("get = %q %v", res, err)
	}
	if _, err := ref.Commit(ctx, "b"); err != nil {
		t.Fatal(err)
	}
}

func TestPassivationQuiescence(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "user1", "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Not quiescent: refuse.
	if _, err := ref.Passivate(ctx, false); rpc.CodeOf(err) != CodeBusy {
		t.Fatalf("err = %v, want busy", err)
	}
	if _, err := ref.Commit(ctx, "user1"); err != nil {
		t.Fatal(err)
	}
	ok, err := ref.Passivate(ctx, false)
	if err != nil || !ok {
		t.Fatalf("passivate: %v %v", ok, err)
	}
	st, _ := ref.Status(ctx)
	if st.Active {
		t.Fatal("still active after passivation")
	}
	// Passivating again reports false, no error.
	ok, err = ref.Passivate(ctx, false)
	if err != nil || ok {
		t.Fatalf("double passivate: %v %v", ok, err)
	}
}

func TestCrashDestroysActivatedObjects(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	node := w.cluster.Node("sv1")
	node.Crash()
	node.Recover(nil)
	st, err := ref.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Active {
		t.Fatal("activated object survived a crash — volatile storage leak")
	}
}

func TestGroupInvocationTotalOrderAcrossReplicas(t *testing.T) {
	// Two server replicas process the same ordered stream of invocations
	// (active replication, §2.3) and stay identical.
	w := newWorld(t)
	ctx := context.Background()
	for _, sv := range []transport.Addr{"sv1", "sv2"} {
		n := w.cluster.Node(sv)
		mgr := NewManager(n, w.reg) // fresh manager with group support
		host := group.NewHost(n.Server(), n.Client())
		mgr.EnableGroupInvocation(host)
		ref := ServerRef{Client: w.cluster.Node("client").Client(), Node: sv, UID: w.id}
		if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
			t.Fatal(err)
		}
	}
	g := group.Group{ID: GroupPrefix + w.id.String(), Members: []transport.Addr{"sv1", "sv2"}}
	cli := w.cluster.Node("client").Client()
	for i := 0; i < 5; i++ {
		payload, err := rpc.Encode(&InvokeReq{UID: w.id.String(), Action: "act", Method: "add", Args: []byte("1")})
		if err != nil {
			t.Fatal(err)
		}
		res, err := group.Multicast(ctx, cli, g, KindInvoke, payload)
		if err != nil {
			t.Fatalf("multicast %d: %v", i, err)
		}
		if len(res.Replies) != 2 {
			t.Fatalf("replies = %d", len(res.Replies))
		}
	}
	// End the writing action first (it holds the write lock), then verify
	// both replicas hold the same value.
	for _, sv := range []transport.Addr{"sv1", "sv2"} {
		ref := ServerRef{Client: cli, Node: sv, UID: w.id}
		if _, err := ref.Commit(ctx, "act"); err != nil {
			t.Fatal(err)
		}
		got, err := call(ctx, ref, "check", "get", nil)
		if err != nil || string(got) != "5" {
			t.Fatalf("%s value = %q, %v", sv, got, err)
		}
		if _, err := ref.Commit(ctx, "check"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmitLosingRaceKeepsResidentInstance: an instance admitted for an
// object the table already holds — a cohort checkpoint losing the race to
// an activation — is dropped. The resident instance is returned and stays
// the group member, so group deliveries still reach it.
func TestAdmitLosingRaceKeepsResidentInstance(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	n := w.cluster.Node("sv1")
	mgr := NewManager(n, w.reg)
	mgr.EnableGroupInvocation(group.NewHost(n.Server(), n.Client()))
	if _, err := activate(ctx, w.ref("sv1"), "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	resident, _ := mgr.lookup(w.id)
	class, _ := w.reg.Lookup("counter")
	if got, admitted := mgr.admit(mgr.newInstance(class, w.id, []byte("100"), 5, nil)); admitted || got != resident {
		t.Fatalf("admit over a resident instance: admitted %v, resident returned %v", admitted, got == resident)
	}
	g := group.Group{ID: GroupPrefix + w.id.String(), Members: []transport.Addr{"sv1"}}
	payload, err := rpc.Encode(&InvokeReq{UID: w.id.String(), Action: "act", Method: "add", Args: []byte("1")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := group.Multicast(ctx, w.cluster.Node("client").Client(), g, KindInvoke, payload)
	if err != nil || len(res.Replies) != 1 || res.Replies[0].Err != "" {
		t.Fatalf("multicast: %+v, %v", res, err)
	}
	var resp InvokeResp
	if err := rpc.Decode(res.Replies[0].Payload, &resp); err != nil || string(resp.Result) != "1" || resp.Seq != 1 {
		t.Fatalf("group delivery answered %+v, %v; want the resident copy's 1 at seq 1", resp, err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register(counterClass())
	if _, err := r.Lookup("counter"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("nope"); err == nil {
		t.Fatal("expected unknown class error")
	}
	c, _ := r.Lookup("counter")
	if c.Name != "counter" {
		t.Fatalf("lookup(counter) = class %q", c.Name)
	}
	if !c.IsReadOnly("get") || c.IsReadOnly("add") {
		t.Fatal("readonly flags wrong")
	}
	if _, err := c.Method("nope"); err == nil {
		t.Fatal("expected missing method error")
	}
}

func TestReadOnlyPrepareReleasesServer(t *testing.T) {
	// The §4.1.2 voting fast path: a read-only prepare releases the action
	// at the server — user entry dropped, locks freed — so no phase-two
	// RPC is ever needed.
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1", "st2"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "reader", "get", nil); err != nil {
		t.Fatal(err)
	}
	prep, err := ref.Prepare(ctx, "reader", []transport.Addr{"st1", "st2"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Dirty {
		t.Fatal("read-only action reported dirty")
	}
	st, err := ref.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 0 {
		t.Fatalf("users after read-only prepare = %d, want 0 (released)", st.Users)
	}
	// The read lock is gone: a writer acquires immediately.
	if _, err := call(ctx, ref, "writer", "add", []byte("1")); err != nil {
		t.Fatalf("write after read-only release: %v", err)
	}
}

func TestOnePhasePrepareSingleStore(t *testing.T) {
	// A one-phase prepare against a single St node: one client→server RPC,
	// one server→store RPC, state committed and the action released.
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "op-act", "add", []byte("7")); err != nil {
		t.Fatal(err)
	}
	resp, err := ref.Prepare(ctx, "op-act", []transport.Addr{"st1"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Dirty || resp.NewSeq != 2 || len(resp.FailedNodes) != 0 {
		t.Fatalf("resp = %+v, want dirty commit at seq 2", resp)
	}
	v, err := w.cluster.Node("st1").Store().Read(w.id)
	if err != nil || string(v.Data) != "7" || v.Seq != 2 {
		t.Fatalf("store state = %+v err=%v, want 7@2", v, err)
	}
	if pend := w.cluster.Node("st1").Store().PendingTxs(); len(pend) != 0 {
		t.Fatalf("pending txs after one-phase commit = %v, want none", pend)
	}
	st, err := ref.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 0 || st.Seq != 2 {
		t.Fatalf("server status = %+v, want released at seq 2", st)
	}
}

func TestOnePhasePrepareReadOnlyReleases(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "ro", "get", nil); err != nil {
		t.Fatal(err)
	}
	resp, err := ref.Prepare(ctx, "ro", []transport.Addr{"st1"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Dirty {
		t.Fatal("read-only one-phase prepare reported dirty")
	}
	st, err := ref.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 0 {
		t.Fatalf("users = %d, want 0", st.Users)
	}
}

// TestPrepareNeverExcludesTheStoreThatIsAhead pins the chaos-found chain
// fork (disk bank seed 401): st1 already holds seq 2 — a commit this copy
// was loaded underneath — while st2 lags at seq 1 like the copy itself. The
// write-back of seq 2 is accepted by the laggard and refused by st1. That
// one refusal proves the copy stale: the action must abort and the instance
// go, and st1 must NOT be reported failed for the caller to exclude — that
// would hand the view to st2 and commit a second seq 2 over st1's.
func TestPrepareNeverExcludesTheStoreThatIsAhead(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	stNodes := []transport.Addr{"st1", "st2"}
	if _, err := activate(ctx, ref, "counter", stNodes...); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "stale-act", "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	w.cluster.Node("st1").Store().Put(w.id, []byte("9"), 2)
	_, err := ref.Prepare(ctx, "stale-act", stNodes, false)
	if rpc.CodeOf(err) != CodeStaleServer {
		t.Fatalf("err = %v, want stale-server (st1 is ahead of this copy)", err)
	}
	if st, err := ref.Status(ctx); err != nil || st.Active {
		t.Fatalf("stale instance should have been destroyed (status %+v, err %v)", st, err)
	}

	// The opposite direction stays an exclusion: a fresh copy (seq 2, from
	// st1) writes seq 3; st2, still at seq 1, is the one behind.
	if _, err := activate(ctx, ref, "counter", stNodes...); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "fresh-act", "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	// st2 still carries stale-act's orphaned intention; clear it so the
	// refusal below is the version check's, not the pin's.
	if err := w.cluster.Node("st2").Store().Abort("stale-act"); err != nil {
		t.Fatal(err)
	}
	resp, err := ref.Prepare(ctx, "fresh-act", stNodes, false)
	if err != nil {
		t.Fatalf("prepare on the current copy: %v", err)
	}
	if len(resp.PreparedNodes) != 1 || resp.PreparedNodes[0] != "st1" || len(resp.FailedNodes) != 1 || resp.FailedNodes[0] != "st2" {
		t.Fatalf("prepared %v failed %v, want st1 prepared and the lagging st2 failed", resp.PreparedNodes, resp.FailedNodes)
	}
}

// TestOnePhasePrepareOverTwoStoresIsRefused: only one store's apply is
// atomic without the coordinator's outcome log, so a one-phase prepare over
// two is malformed — refused before anything is written anywhere.
func TestOnePhasePrepareOverTwoStoresIsRefused(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	stNodes := []transport.Addr{"st1", "st2"}
	if _, err := activate(ctx, ref, "counter", stNodes...); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "a1", "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Prepare(ctx, "a1", stNodes, true); rpc.CodeOf(err) != rpc.CodeInternal {
		t.Fatalf("err = %v, want %s", err, rpc.CodeInternal)
	}
	for _, st := range stNodes {
		if pend := w.cluster.Node(st).Store().PendingTxs(); len(pend) != 0 {
			t.Fatalf("%s holds intentions %v", st, pend)
		}
		if v, err := w.cluster.Node(st).Store().Read(w.id); err != nil || v.Seq != 1 {
			t.Fatalf("%s holds %+v, %v; want version 1", st, v, err)
		}
	}
	if st, err := ref.Status(ctx); err != nil || st.Users != 1 || st.Prepared != 0 {
		t.Fatalf("status = %+v, %v: the action should still hold the object, unprepared", st, err)
	}
}

func TestOnePhasePrepareStaleSingleStoreAborts(t *testing.T) {
	// A stale activated copy taking the one-phase path must be refused and
	// destroyed, exactly like the two-phase stale-server handling.
	w := newWorld(t)
	ctx := context.Background()
	ref := w.ref("sv1")
	if _, err := activate(ctx, ref, "counter", "st1"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(ctx, ref, "stale-act", "add", []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Another server commits seq 2 behind this copy's back.
	w.cluster.Node("st1").Store().Put(w.id, []byte("9"), 2)
	_, err := ref.Prepare(ctx, "stale-act", []transport.Addr{"st1"}, true)
	if rpc.CodeOf(err) != CodeStaleServer {
		t.Fatalf("err = %v, want stale-server", err)
	}
	st, err := ref.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Active {
		t.Fatal("stale instance should have been destroyed")
	}
}
