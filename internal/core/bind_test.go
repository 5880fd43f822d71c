package core

import (
	"context"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// TestSelectServers pins the fixed selection rule the database and the
// binder share.
func TestSelectServers(t *testing.T) {
	type useLists = map[transport.Addr]map[transport.Addr]int
	sv := []transport.Addr{"sv3", "sv1", "sv2"}
	for _, c := range []struct {
		name   string
		sv     []transport.Addr
		use    useLists
		degree int
		want   []transport.Addr
		n      int
	}{
		{"empty Sv", nil, useLists{"sv1": {"c1": 1}}, 1, nil, 0},
		{"no use lists: Sv in its own order", sv, nil, 0, sv, 3},
		{"all use lists empty: Sv in its own order", sv, useLists{"sv1": {}, "sv2": {"c9": 0}}, 0, sv, 3},
		{"non-zero use lists win, sorted", sv, useLists{"sv3": {"c1": 1}, "sv2": {}, "sv1": {"c2": 2, "c3": 0}},
			0, []transport.Addr{"sv1", "sv3"}, 2},
		{"a use list for a node outside Sv is ignored", sv, useLists{"sv9": {"c1": 1}}, 0, sv, 3},
		{"degree truncates the count, not the candidates", sv, nil, 2, sv, 2},
		{"degree above the candidates", sv, useLists{"sv2": {"c1": 1}}, 3, []transport.Addr{"sv2"}, 1},
		{"negative degree means all", sv, nil, -1, sv, 3},
	} {
		got, n := selectServers(c.sv, c.use, c.degree, false, "c1")
		if !reflect.DeepEqual(got, c.want) || n != c.n {
			t.Errorf("%s: selectServers = %v, %d; want %v, %d", c.name, got, n, c.want, c.n)
		}
	}
}

// TestSelectServersReadOnlyHashTopBit: the read optimisation spreads
// clients over Sv by a hash of their name. "c1" hashes (FNV-1a) to
// 0x8829dfd9 — top bit set — which as a 32-bit int is negative, and a
// negative remainder indexed Sv out of range; the modulus is unsigned.
func TestSelectServersReadOnlyHashTopBit(t *testing.T) {
	h := fnv.New32a()
	_, _ = h.Write([]byte("c1"))
	sum := h.Sum32()
	if sum&0x8000_0000 == 0 {
		t.Fatalf("FNV-1a(c1) = %#x: the test needs a name whose hash has the top bit set", sum)
	}
	sv := []transport.Addr{"sv1", "sv2", "sv3"}
	got, n := selectServers(sv, map[transport.Addr]map[transport.Addr]int{"sv1": {"c9": 4}}, 0, true, "c1")
	if want := sv[sum%3]; len(got) != 1 || got[0] != want || n != 1 {
		t.Fatalf("read-only selectServers = %v, %d; want [%s], 1", got, n, want)
	}
	if got, n := selectServers(nil, nil, 0, true, "c1"); got != nil || n != 0 {
		t.Fatalf("read-only selectServers over an empty Sv = %v, %d", got, n)
	}
}

// TestBindOpCountsWhatItSelects: DB.Bind is GetServer, the selection rule
// and Increment in one step — the reply carries the rule's candidates and
// the counted prefix of them, and nothing of the use lists; the count is the
// bind action's to commit or undo. The fast bind holds the Adjust lock
// alone, and the lock keeps Sv still all the same: a Remove cannot have it.
// Run as a message's own action, the bind commits with the message.
func TestBindOpCountsWhatItSelects(t *testing.T) {
	w := newWorld(t, 3, 1, 2)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	useOf := func() map[transport.Addr]map[transport.Addr]int {
		t.Helper()
		res, err := cli.Do(ctx, GetServerOp("", w.id, true, false))
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Use
	}

	// Fast: Adjust alone under the bind action; degree 2 of 3.
	res, err := cli.Do(ctx, BindOp("b1", w.id, "c1", 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0]; !reflect.DeepEqual(got.Nodes, w.svs) || !reflect.DeepEqual(got.Hosts, w.svs[:2]) || got.Use != nil {
		t.Fatalf("first bind = %+v; want candidates %v, counted %v, no use lists", got, w.svs, w.svs[:2])
	}
	if h := w.db.locks.HolderModes(svKey(w.id)); len(h) != 1 || h[0].Owner != "b1" || h[0].Mode != lockmgr.Adjust {
		t.Fatalf("Sv lock holders = %v; want the fast bind action's Adjust lock alone", h)
	}
	rmCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	_, err = cli.Do(rmCtx, RemoveOp("rm", w.id, "sv3"))
	cancel()
	if rpc.CodeOf(err) != CodeLockRefused {
		t.Fatalf("Remove beside the fast bind = %v, want it refused", err)
	}
	for _, act := range []string{"rm", "b1"} {
		if err := cli.EndAction(ctx, act, true); err != nil {
			t.Fatal(err)
		}
	}

	// Exclusive: the write lock; the counted servers of the first bind now
	// win the selection, whatever the degree asks for.
	res, err = cli.Do(ctx, BindOp("b2", w.id, "c2", 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0]; !reflect.DeepEqual(got.Nodes, w.svs[:2]) || !reflect.DeepEqual(got.Hosts, w.svs[:2]) {
		t.Fatalf("second bind = %+v; want candidates and counted %v", got, w.svs[:2])
	}
	if !w.db.locks.Holds("b2", svKey(w.id), lockmgr.Write) {
		t.Fatal("the exclusive bind action does not hold the write lock")
	}
	// Aborted, the exclusive bind's count goes; the committed one stays.
	if err := cli.EndAction(ctx, "b2", false); err != nil {
		t.Fatal(err)
	}
	if use := useOf(); use["sv1"]["c1"] != 1 || use["sv2"]["c1"] != 1 || len(use["sv3"]) != 0 || use["sv1"]["c2"] != 0 {
		t.Fatalf("use lists = %v; want c1 counted once at sv1 and sv2 only", use)
	}

	// The message's own action: committed with the message, nothing held.
	if _, err := cli.Do(ctx, BindOp("", w.id, "c2", 1, false)); err != nil {
		t.Fatal(err)
	}
	if n := w.lockHolders(); n != 0 {
		t.Fatalf("%d lock holders after the own bind", n)
	}
	if use := useOf(); use["sv1"]["c2"] != 1 {
		t.Fatalf("use lists = %v; want the own bind's count committed at sv1", use)
	}
}

// TestSelectOpFollowsTheUseLists: DB.Select is Bind without the count — the
// servers in use win, else Sv in its own order — under the shared Read lock
// alone, and its reply carries the candidates and nothing of the use lists.
// A read-only binder under single-copy passive binds by it, so it meets the
// copy the writers keep current; only under active replication is it spread
// over Sv by name.
func TestSelectOpFollowsTheUseLists(t *testing.T) {
	w := newWorld(t, 3, 1, 2)
	ctx := context.Background()
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	sel := func() OpResult {
		t.Helper()
		res, err := cli.Do(ctx, SelectOp("s", w.id))
		if err != nil {
			t.Fatal(err)
		}
		if !w.db.locks.Holds("s", svKey(w.id), lockmgr.Read) || w.db.locks.Holds("s", svKey(w.id), lockmgr.Adjust) {
			t.Fatal("Select holds something other than the Read lock")
		}
		if err := cli.EndAction(ctx, "s", true); err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	if got := sel(); !reflect.DeepEqual(got.Nodes, w.svs) || got.Use != nil || got.Hosts != nil {
		t.Fatalf("nothing in use: Select = %+v, want Sv %v alone", got, w.svs)
	}
	if _, err := cli.Do(ctx, IncrementOp("w", w.id, "c2", []transport.Addr{"sv2"}), EndActionOp("w", true)); err != nil {
		t.Fatal(err)
	}
	if got := sel(); !reflect.DeepEqual(got.Nodes, []transport.Addr{"sv2"}) || got.Use != nil || got.Hosts != nil {
		t.Fatalf("sv2 in use: Select = %+v, want [sv2] alone", got)
	}
	if w.quiescent(w.id) {
		t.Fatal("the writer's count went")
	}

	for _, c := range []struct {
		policy replica.Policy
		want   transport.Addr
	}{{replica.SingleCopyPassive, "sv2"}, {replica.CoordinatorCohort, "sv2"}} {
		b := w.binder("c1", SchemeIndependent, c.policy, 1)
		b.ReadOnly = true
		act := b.Actions.BeginTop()
		bd, err := b.Bind(ctx, act, w.id)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := bd.Invoke(ctx, replica.Call{Method: "get"}); err != nil || string(resp.Result) != "0" {
			t.Fatalf("%v: read = %q, %v", c.policy, resp.Result, err)
		}
		if got := bd.Servers(); len(got) != 1 || got[0] != c.want {
			t.Fatalf("%v: a read-only binding landed on %v, want the server in use, %s", c.policy, got, c.want)
		}
		if _, err := act.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if use := w.db.servers[w.id].Use; len(use["sv1"])+len(use["sv3"]) != 0 || use["sv2"]["c1"] != 0 {
		t.Fatalf("use lists = %v: a read-only binding was counted", use)
	}
}

// objsrvCalls counts the requests that reach any object server.
func objsrvCalls(w *world) *int {
	n := new(int)
	w.cluster.Faults().OnRequest(-1,
		func(req transport.Request) bool { return req.Service == object.ServiceName },
		func(transport.Request) { *n++ })
	return n
}

// TestBoundNeverInvokedDrainsItsUseCount: a binding that is bound and
// never invoked commits read-only without a message to any server, and
// the count its bind action made drains at the action's end — commit and
// abort alike.
func TestBoundNeverInvokedDrainsItsUseCount(t *testing.T) {
	for _, scheme := range []Scheme{SchemeStandard, SchemeIndependent, SchemeNestedTopLevel} {
		w := newWorld(t, 2, 2, 1)
		ctx := context.Background()
		calls := objsrvCalls(w)
		b := w.binder("c1", scheme, replica.SingleCopyPassive, 1)
		b.FastBind = true
		for _, commit := range []bool{true, false} {
			act := b.Actions.BeginTop()
			bd, err := b.Bind(ctx, act, w.id)
			if err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
			if got := bd.Servers(); len(got) != 1 || got[0] != "sv1" {
				t.Fatalf("%v: bound to %v, want [sv1]", scheme, got)
			}
			if counted := !w.quiescent(w.id); counted != (scheme != SchemeStandard) {
				t.Fatalf("%v: binding counted in the use lists = %v", scheme, counted)
			}
			if !commit {
				if err := act.Abort(ctx); err != nil {
					t.Fatal(err)
				}
			} else if rep, err := act.Commit(ctx); err != nil || rep.ReadOnlyVoters != 1 {
				t.Fatalf("%v: commit = %+v, %v; want one read-only voter", scheme, rep, err)
			}
			if !w.quiescent(w.id) {
				t.Fatalf("%v: use count did not drain (commit=%v)", scheme, commit)
			}
			if n := w.lockHolders(); n != 0 {
				t.Fatalf("%v: %d database locks left (commit=%v)", scheme, n, commit)
			}
		}
		if *calls != 0 {
			t.Fatalf("%v: %d requests reached an object server", scheme, *calls)
		}
	}
}

// TestServerCrashedBetweenActionsFailsOverOnFirstInvoke: sv1 dies while
// nothing is bound. The next action is counted at sv1 by its bind, finds
// it dead with its first invoke, commits at sv2 — and under the enhanced
// schemes one repair conversation takes sv1 out of Sv and moves the count,
// so nothing is left behind and later actions do not probe; under the
// standard scheme every action probes again.
func TestServerCrashedBetweenActionsFailsOverOnFirstInvoke(t *testing.T) {
	for _, c := range []struct {
		scheme Scheme
		fast   bool
	}{{SchemeStandard, false}, {SchemeIndependent, false}, {SchemeIndependent, true}, {SchemeNestedTopLevel, true}} {
		w := newWorld(t, 2, 2, 1)
		b := w.binder("c1", c.scheme, replica.SingleCopyPassive, 1)
		b.FastBind = c.fast
		if _, err := w.runAction(b, 1); err != nil {
			t.Fatal(err)
		}
		w.cluster.Node("sv1").Crash()
		for round := 0; round < 3; round++ {
			bd, err := w.runAction(b, 1)
			if err != nil {
				t.Fatalf("%v fast=%v round %d: the action did not fail over: %v", c.scheme, c.fast, round, err)
			}
			probes := len(bd.BrokenServers())
			if want := c.scheme == SchemeStandard || round == 0; (probes == 1) != want || probes > 1 {
				t.Fatalf("%v fast=%v round %d: broken = %v", c.scheme, c.fast, round, bd.BrokenServers())
			}
			if got := bd.Servers(); len(got) != 1 || got[0] != "sv2" {
				t.Fatalf("%v fast=%v round %d: bound = %v, want [sv2]", c.scheme, c.fast, round, got)
			}
			if !w.quiescent(w.id) {
				t.Fatalf("%v fast=%v round %d: use counts did not drain", c.scheme, c.fast, round)
			}
			if n := w.lockHolders(); n != 0 {
				t.Fatalf("%v fast=%v round %d: %d database locks left", c.scheme, c.fast, round, n)
			}
		}
		cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
		sv, _, err := cli.GetServer(context.Background(), "peek", w.id, false, false)
		if err != nil {
			t.Fatal(err)
		}
		_ = cli.EndAction(context.Background(), "peek", true)
		if want := map[bool]int{true: 2, false: 1}[c.scheme == SchemeStandard]; len(sv) != want {
			t.Fatalf("%v fast=%v: Sv = %v, want %d member(s)", c.scheme, c.fast, sv, want)
		}
		if val, _ := w.storeValue("st1"); val != "4" {
			t.Fatalf("%v fast=%v: committed value %q, want 4", c.scheme, c.fast, val)
		}
	}
}

// TestRepairMovesUseCountsMidAction looks at the database between the
// failover and the action's end: the repair has removed the dead server
// with the count the bind put there and counted the binding where it runs.
func TestRepairMovesUseCountsMidAction(t *testing.T) {
	w := newWorld(t, 3, 1, 1)
	ctx := context.Background()
	w.cluster.Node("sv1").Crash()
	w.cluster.Node("sv2").Crash()
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	b.FastBind = true
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	sv, use, err := cli.GetServer(ctx, "peek", w.id, true, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.EndAction(ctx, "peek", true)
	if len(sv) != 1 || sv[0] != "sv3" || use["sv3"]["c1"] != 1 || len(use) != 1 {
		t.Fatalf("mid-action: Sv = %v, use = %v; want [sv3] with c1 counted there once", sv, use)
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if !w.quiescent(w.id) {
		t.Fatal("use counts did not drain")
	}
}

// TestRepairAfterActiveExplicitProbe: active replication keeps its
// explicit probe, now after the bind message. A counted replica found dead
// is removed by the same repair, and the count moves to the replica that
// took its place.
func TestRepairAfterActiveExplicitProbe(t *testing.T) {
	w := newWorld(t, 3, 1, 1)
	ctx := context.Background()
	w.cluster.Node("sv1").Crash()
	b := w.binder("c1", SchemeIndependent, replica.Active, 2)
	b.FastBind = true
	act := b.Actions.BeginTop()
	bd, err := b.Bind(ctx, act, w.id)
	if err != nil {
		t.Fatal(err)
	}
	if got := bd.Servers(); len(got) != 2 || got[0] != "sv2" || got[1] != "sv3" {
		t.Fatalf("bound = %v, want [sv2 sv3]", got)
	}
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	sv, use, err := cli.GetServer(ctx, "peek", w.id, true, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.EndAction(ctx, "peek", true)
	if len(sv) != 2 || use["sv2"]["c1"] != 1 || use["sv3"]["c1"] != 1 {
		t.Fatalf("after the bind: Sv = %v, use = %v; want sv2 and sv3 counted once each", sv, use)
	}
	if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := act.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if !w.quiescent(w.id) {
		t.Fatal("use counts did not drain")
	}

	// No replica answers the probe: the bind fails, and the count its bind
	// action committed is dropped on the spot.
	w.cluster.Node("sv2").Crash()
	w.cluster.Node("sv3").Crash()
	act = b.Actions.BeginTop()
	if _, err := b.Bind(ctx, act, w.id); err == nil {
		t.Fatal("Bind succeeded with every replica down")
	}
	if !w.quiescent(w.id) {
		t.Fatal("a failed bind left its use count behind")
	}
	if err := act.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if n := w.lockHolders(); n != 0 {
		t.Fatalf("%d database locks left", n)
	}
}

// TestFirstInvokeReplyLostDoesNotRepair: an ambiguous first invoke aborts
// the action; Sv is left alone (nothing proved the server dead) and the
// count drains with the abort.
func TestFirstInvokeReplyLostDoesNotRepair(t *testing.T) {
	w := newWorld(t, 2, 1, 1)
	ctx := context.Background()
	b := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
	b.FastBind = true
	w.cluster.Faults().DropReplies(1, transport.ToMethod("sv1", object.ServiceName, object.MethodInvoke))
	bd, err := w.runAction(b, 1)
	if err == nil {
		t.Fatal("the action committed although its first invoke's reply was lost")
	}
	if got := bd.BrokenServers(); len(got) != 1 || got[0] != "sv1" {
		t.Fatalf("broken = %v, want [sv1]", got)
	}
	if st, err := (object.ServerRef{Client: w.cluster.Node("c1").Client(), Node: "sv2", UID: w.id}).Status(ctx); err != nil || st.Active {
		t.Fatalf("sv2 status = %+v, %v: the operation was taken to a second server", st, err)
	}
	if !w.quiescent(w.id) {
		t.Fatal("use counts did not drain")
	}
	cli := Client{RPC: w.cluster.Node("c1").Client(), DB: "db"}
	sv, _, err := cli.GetServer(ctx, "peek", w.id, false, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.EndAction(ctx, "peek", true)
	if len(sv) != 2 {
		t.Fatalf("Sv = %v: an ambiguous failure must not remove a server", sv)
	}
}

// TestRepairRefusedWhileOthersUseTheServer: sv1 is cut off from c1 only.
// c1's bind counts it at sv1; before c1's first invoke finds sv1
// unreachable, c2 binds and starts work there. Taking sv1 out of Sv now
// would leave c2 on one activated copy and c1 on another, so c1's repair is
// refused, its action aborts, and Sv and c2's count stand.
func TestRepairRefusedWhileOthersUseTheServer(t *testing.T) {
	for _, fast := range []bool{false, true} {
		w := newWorld(t, 2, 1, 2)
		ctx := context.Background()
		w.cluster.Faults().Partition("c1", "sv1")
		b1 := w.binder("c1", SchemeIndependent, replica.SingleCopyPassive, 1)
		b2 := w.binder("c2", SchemeIndependent, replica.SingleCopyPassive, 1)
		b1.FastBind, b2.FastBind = fast, fast
		act1, act2 := b1.Actions.BeginTop(), b2.Actions.BeginTop()
		bd1, err := b1.Bind(ctx, act1, w.id)
		if err != nil {
			t.Fatal(err)
		}
		bd2, err := b2.Bind(ctx, act2, w.id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bd2.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
			t.Fatal(err)
		}
		if _, err := bd1.Invoke(ctx, replica.Call{Method: "get"}); !errors.Is(err, replica.ErrNoServers) {
			t.Fatalf("fast=%v: c1's invoke: err = %v, want ErrNoServers (repair refused)", fast, err)
		}
		if err := act1.Abort(ctx); err != nil {
			t.Fatal(err)
		}
		w.flushEnds()
		cli := Client{RPC: w.cluster.Node("c2").Client(), DB: "db"}
		sv, use, err := cli.GetServer(ctx, "peek", w.id, true, false)
		if err != nil {
			t.Fatal(err)
		}
		_ = cli.EndAction(ctx, "peek", true)
		if len(sv) != 2 || use["sv1"]["c2"] != 1 || use["sv1"]["c1"] != 0 || len(use["sv2"]) != 0 {
			t.Fatalf("fast=%v: Sv = %v, use = %v; want both servers and only c2 counted, at sv1", fast, sv, use)
		}
		if st, err := (object.ServerRef{Client: w.cluster.Node("c2").Client(), Node: "sv2", UID: w.id}).Status(ctx); err != nil || st.Users != 0 {
			t.Fatalf("fast=%v: sv2 status = %+v, %v: c1's abort did not release it", fast, st, err)
		}
		if _, err := act2.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if !w.quiescent(w.id) || w.lockHolders() != 0 {
			t.Fatalf("fast=%v: use counts or locks left behind", fast)
		}
	}
}
