package group

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// member is a test replica: it appends every delivered message to a log.
type member struct {
	mu  sync.Mutex
	log []string
}

func (m *member) apply(_ context.Context, msg Delivered) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.log = append(m.log, msg.Kind+":"+string(msg.Payload))
	return []byte("ack-" + msg.Kind), nil
}

func (m *member) history() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return strings.Join(m.log, ",")
}

type fixture struct {
	cluster *sim.Cluster
	members map[transport.Addr]*member
	hosts   map[transport.Addr]*Host
	grp     Group
}

func newFixture(t *testing.T, names ...transport.Addr) *fixture {
	t.Helper()
	return newFixtureOn(t, sim.NewCluster(transport.MemOptions{}), names...)
}

func newFixtureOn(t *testing.T, cluster *sim.Cluster, names ...transport.Addr) *fixture {
	t.Helper()
	f := &fixture{
		cluster: cluster,
		members: make(map[transport.Addr]*member),
		hosts:   make(map[transport.Addr]*Host),
		grp:     Group{ID: "G", Members: names},
	}
	for _, name := range names {
		n := f.cluster.Add(name)
		h := NewHost(n.Server(), n.Client())
		m := &member{}
		h.Join("G", m.apply)
		f.members[name] = m
		f.hosts[name] = h
	}
	// A separate client node.
	f.cluster.Add("client")
	return f
}

func (f *fixture) client() rpc.Client { return f.cluster.Node("client").Client() }

// deliverOne sends it to member as a one-item deliver frame of group G.
func deliverOne(ctx context.Context, cli rpc.Client, member transport.Addr, it BatchItem) (DeliverBatchResp, error) {
	return rpc.Invoke[DeliverBatchReq, DeliverBatchResp](ctx, cli, member, ServiceName, MethodDeliverBatch,
		DeliverBatchReq{Group: "G", Items: []BatchItem{it}})
}

func TestMulticastDeliversToAllInOrder(t *testing.T) {
	f := newFixture(t, "a1", "a2", "a3")
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		res, err := Multicast(ctx, f.client(), f.grp, "op", []byte{byte('0' + i)})
		if err != nil {
			t.Fatalf("multicast %d: %v", i, err)
		}
		if res.Seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", res.Seq, i+1)
		}
		if len(res.Replies) != 3 || len(res.Failed) != 0 {
			t.Fatalf("replies=%d failed=%v", len(res.Replies), res.Failed)
		}
	}
	want := f.members["a1"].history()
	if want == "" {
		t.Fatal("no deliveries")
	}
	for name, m := range f.members {
		if got := m.history(); got != want {
			t.Fatalf("member %s history %q != %q", name, got, want)
		}
	}
}

func TestMulticastReportsCrashedMember(t *testing.T) {
	f := newFixture(t, "a1", "a2", "a3")
	f.cluster.Node("a3").Crash()
	res, err := Multicast(context.Background(), f.client(), f.grp, "op", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != "a3" {
		t.Fatalf("failed = %v, want [a3]", res.Failed)
	}
	if len(res.Replies) != 2 {
		t.Fatalf("replies = %d", len(res.Replies))
	}
}

func TestMulticastSequencerFailover(t *testing.T) {
	f := newFixture(t, "a1", "a2", "a3")
	// The deterministic sequencer (first member) is down: callers fail
	// over to a2, and surviving members still agree.
	f.cluster.Node("a1").Crash()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := Multicast(ctx, f.client(), f.grp, "op", []byte{byte('a' + i)})
		if err != nil {
			t.Fatalf("multicast: %v", err)
		}
		if len(res.Failed) != 1 || res.Failed[0] != "a1" {
			t.Fatalf("failed = %v", res.Failed)
		}
	}
	if f.members["a2"].history() != f.members["a3"].history() {
		t.Fatalf("divergence after failover: %q vs %q",
			f.members["a2"].history(), f.members["a3"].history())
	}
}

func TestMulticastAllMembersDown(t *testing.T) {
	f := newFixture(t, "a1", "a2")
	f.cluster.Node("a1").Crash()
	f.cluster.Node("a2").Crash()
	_, err := Multicast(context.Background(), f.client(), f.grp, "op", nil)
	if err == nil {
		t.Fatal("expected error with no reachable sequencer")
	}
}

func TestMulticastRetryDeduplicates(t *testing.T) {
	f := newFixture(t, "a1", "a2")
	ctx := context.Background()
	msgID := "stable-id/1"
	first, err := multicastWithID(ctx, f.client(), f.grp, "op", []byte("x"), msgID)
	if err != nil {
		t.Fatal(err)
	}
	// Retry of the same logical message: members must not apply twice.
	retry, err := multicastWithID(ctx, f.client(), f.grp, "op", []byte("x"), msgID)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.members["a1"].history(); got != "op:x" {
		t.Fatalf("a1 history = %q, want single delivery", got)
	}
	if got := f.members["a2"].history(); got != "op:x" {
		t.Fatalf("a2 history = %q, want single delivery", got)
	}
	// The retried multicast must return the complete fan-out outcome —
	// the same seq and every member's cached reply, not a bare Seq.
	if retry.Seq != first.Seq {
		t.Fatalf("retry seq = %d, want %d", retry.Seq, first.Seq)
	}
	if len(retry.Replies) != 2 || len(retry.Failed) != 0 {
		t.Fatalf("retry replies=%d failed=%v, want full replies", len(retry.Replies), retry.Failed)
	}
	for _, r := range retry.Replies {
		if r.Err != "" || string(r.Payload) != "ack-op" {
			t.Fatalf("retry reply from %s = (%q, %q), want cached ack", r.Member, r.Payload, r.Err)
		}
	}
}

func TestMulticastRetryAfterSequencerCrashReturnsFullReplies(t *testing.T) {
	// The first multicast succeeds through sequencer a1; a1 then crashes,
	// and the retry fails over to a2. a2 only ever saw the message as a
	// receiver, yet the retry must still return the full fan-out outcome
	// under the original sequence number (a2 re-relays; survivors answer
	// from their dedup caches).
	f := newFixture(t, "a1", "a2", "a3")
	ctx := context.Background()
	msgID := "stable-id/2"
	first, err := multicastWithID(ctx, f.client(), f.grp, "op", []byte("x"), msgID)
	if err != nil {
		t.Fatal(err)
	}
	f.cluster.Node("a1").Crash()
	retry, err := multicastWithID(ctx, f.client(), f.grp, "op", []byte("x"), msgID)
	if err != nil {
		t.Fatal(err)
	}
	if retry.Seq != first.Seq {
		t.Fatalf("retry seq = %d, want original %d", retry.Seq, first.Seq)
	}
	if len(retry.Replies) != 2 {
		t.Fatalf("retry replies = %d, want the 2 surviving members", len(retry.Replies))
	}
	for _, r := range retry.Replies {
		if r.Err != "" || string(r.Payload) != "ack-op" {
			t.Fatalf("retry reply from %s = (%q, %q), want cached ack", r.Member, r.Payload, r.Err)
		}
	}
	if got := f.members["a2"].history(); got != "op:x" {
		t.Fatalf("a2 applied twice: history %q", got)
	}
}

func TestConcurrentMulticastsSameTotalOrderEverywhere(t *testing.T) {
	f := newFixture(t, "a1", "a2", "a3")
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := Multicast(ctx, f.client(), f.grp, "op", []byte(fmt.Sprintf("%d", i))); err != nil {
				t.Errorf("multicast %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	h1 := f.members["a1"].history()
	for _, name := range []transport.Addr{"a2", "a3"} {
		if got := f.members[name].history(); got != h1 {
			t.Fatalf("total order violated:\n a1: %s\n %s: %s", h1, name, got)
		}
	}
	if got := len(f.members["a1"].log); got != 10 {
		t.Fatalf("deliveries = %d, want 10", got)
	}
}

func TestConcurrentMulticastsFiveMembersConvergeUnderParallelFanout(t *testing.T) {
	// The concurrent-fan-out invariant: with parallel delivery at the
	// sequencer, many concurrent callers on a 5-member group must still
	// produce identical apply histories at every member (total order is
	// carried by the assigned seq, not by delivery timing). Run with
	// -race to check the fan-out's memory discipline too.
	f := newFixture(t, "b1", "b2", "b3", "b4", "b5")
	ctx := context.Background()
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Multicast(ctx, f.client(), f.grp, "op", []byte(fmt.Sprintf("%d", i)))
			if err != nil {
				t.Errorf("multicast %d: %v", i, err)
				return
			}
			if len(res.Replies) != 5 || len(res.Failed) != 0 {
				t.Errorf("multicast %d: replies=%d failed=%v", i, len(res.Replies), res.Failed)
			}
		}(i)
	}
	wg.Wait()
	h1 := f.members["b1"].history()
	if h1 == "" {
		t.Fatal("no deliveries")
	}
	for _, name := range []transport.Addr{"b2", "b3", "b4", "b5"} {
		if got := f.members[name].history(); got != h1 {
			t.Fatalf("total order violated:\n b1: %s\n %s: %s", h1, name, got)
		}
	}
	if got := len(f.members["b1"].log); got != callers {
		t.Fatalf("deliveries = %d, want %d", got, callers)
	}
}

func TestFanOutRepliesSortedByMember(t *testing.T) {
	// Parallel fan-out must not make reply order a race: replies come
	// back sorted by member address regardless of completion order.
	f := newFixture(t, "c3", "c1", "c2")
	res, err := Multicast(context.Background(), f.client(), f.grp, "op", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	want := []transport.Addr{"c1", "c2", "c3"}
	if len(res.Replies) != len(want) {
		t.Fatalf("replies = %d", len(res.Replies))
	}
	for i, r := range res.Replies {
		if r.Member != want[i] {
			t.Fatalf("reply %d from %s, want %s", i, r.Member, want[i])
		}
	}
}

func TestNaiveMulticastDivergesOnReplyLoss(t *testing.T) {
	// Figure 1 in miniature: the naive fan-out loses the reply from a2;
	// the sender believes a2 failed while a2 actually applied the message.
	// A subsequent compensating action at the "failed" member only (as a
	// real application would do) diverges the replicas. The reliable
	// multicast cannot produce this state: the sender's single sequencer
	// call either orders the message for everyone or no one.
	f := newFixture(t, "a1", "a2")
	f.cluster.Faults().DropReplies(1, transport.Between("client", "a2"))
	res := NaiveMulticast(context.Background(), f.client(), f.grp, "op", []byte("x"))
	// The sender cannot distinguish this from a crashed member; but the
	// member state shows the message WAS applied.
	sawA2 := false
	for _, r := range res.Replies {
		if r.Member == "a2" && r.Err == "" {
			sawA2 = true
		}
	}
	if sawA2 {
		t.Fatal("sender should not have received a2's reply")
	}
	if got := f.members["a2"].history(); got != "op:x" {
		t.Fatalf("a2 should have applied despite lost reply, history=%q", got)
	}
	// Histories are equal only by luck of this single message; the
	// sender's *knowledge* has diverged from reality, which is the seed of
	// the Figure 1 anomaly. The E1 experiment quantifies the resulting
	// state divergence.
}

func TestDeliverToNonMemberRefused(t *testing.T) {
	f := newFixture(t, "a1")
	// The client node has a Host? No — invoking Deliver at a node that
	// never joined must yield not-found.
	n := f.cluster.Node("client")
	NewHost(n.Server(), n.Client()) // host exists but no membership
	cli := f.cluster.Node("a1").Client()
	_, err := deliverOne(context.Background(), cli, "client", BatchItem{MsgID: "m", Kind: "k", Seq: 1})
	if rpc.CodeOf(err) != rpc.CodeNotFound {
		t.Fatalf("err = %v, want not-found", err)
	}
}

func TestLeaveStopsDelivery(t *testing.T) {
	f := newFixture(t, "a1", "a2")
	f.hosts["a2"].Leave("G")
	res, err := Multicast(context.Background(), f.client(), f.grp, "op", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// a2 replies with an application error (not a failure) — it is
	// reachable but not a member.
	var a2Err string
	for _, r := range res.Replies {
		if r.Member == "a2" {
			a2Err = r.Err
		}
	}
	if a2Err == "" {
		t.Fatalf("expected a2 to refuse delivery, res=%+v", res)
	}
	if f.members["a2"].history() != "" {
		t.Fatal("a2 applied after leaving")
	}
}

func TestHoldbackDeliversInSeqOrder(t *testing.T) {
	// Drive Deliver directly with out-of-order sequence numbers: seq 2
	// must wait until seq 1 has been applied.
	f := newFixture(t, "a1")
	cli := f.client()
	ctx := context.Background()

	done2 := make(chan error, 1)
	go func() {
		_, err := deliverOne(ctx, cli, "a1", BatchItem{MsgID: "m2", Kind: "op", Payload: []byte("second"), Seq: 2})
		done2 <- err
	}()
	// seq 2 is held back.
	select {
	case err := <-done2:
		t.Fatalf("seq 2 delivered before seq 1 (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := deliverOne(ctx, cli, "a1", BatchItem{MsgID: "m1", Kind: "op", Payload: []byte("first"), Seq: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done2:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("held-back message never delivered")
	}
	if got := f.members["a1"].history(); got != "op:first,op:second" {
		t.Fatalf("history = %q", got)
	}
}

func TestHoldbackRespectsContext(t *testing.T) {
	f := newFixture(t, "a1")
	cli := f.client()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := deliverOne(ctx, cli, "a1", BatchItem{MsgID: "gap", Kind: "op", Seq: 5})
	if err == nil {
		t.Fatal("gapped delivery should fail when the context expires")
	}
}

func TestDedupStateBoundedUnderSustainedTraffic(t *testing.T) {
	// The per-msgID dedup cache, and the sequencer's record of the numbers
	// it gave, must not grow without limit: once every
	// member has acknowledged delivery past a message's seq (plus the
	// retry grace margin), its entry is evicted via the stability
	// watermark shipped with later deliveries.
	f := newFixture(t, "a1", "a2", "a3")
	ctx := context.Background()
	const msgs = 4 * dedupRetention
	for i := 0; i < msgs; i++ {
		if _, err := Multicast(ctx, f.client(), f.grp, "op", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for name, h := range f.hosts {
		h.mu.Lock()
		m := h.groups["G"]
		h.mu.Unlock()
		m.mu.Lock()
		size := len(m.seen)
		m.mu.Unlock()
		if size > dedupRetention+4 {
			t.Fatalf("%s dedup cache holds %d of %d entries: unbounded growth", name, size, msgs)
		}
		m.seq.mu.Lock()
		size = len(m.seq.numbered)
		m.seq.mu.Unlock()
		if size > dedupRetention+4 {
			t.Fatalf("%s keeps the numbers of %d of %d messages: unbounded growth", name, size, msgs)
		}
	}
}

func TestBatchedDeliveryHoldsBackGaps(t *testing.T) {
	// A batch frame whose predecessor has not arrived yet must hold back
	// until the gap is filled, then apply the whole frame in order.
	f := newFixture(t, "a1")
	cli := f.client()
	ctx := context.Background()

	done := make(chan error, 1)
	go func() {
		_, err := rpc.Invoke[DeliverBatchReq, DeliverBatchResp](ctx, cli, "a1", ServiceName, MethodDeliverBatch,
			DeliverBatchReq{Group: "G", Items: []BatchItem{
				{MsgID: "m2", Kind: "op", Payload: []byte("second"), Seq: 2},
				{MsgID: "m3", Kind: "op", Payload: []byte("third"), Seq: 3},
			}})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("batch delivered before seq 1 (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := deliverOne(ctx, cli, "a1", BatchItem{MsgID: "m1", Kind: "op", Payload: []byte("first"), Seq: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("held-back batch never delivered")
	}
	if got := f.members["a1"].history(); got != "op:first,op:second,op:third" {
		t.Fatalf("history = %q", got)
	}
}

func TestBatchedDeliveryDeduplicates(t *testing.T) {
	// An item already seen (retry folded into a batch) returns its cached
	// reply and is not applied twice; fresh items in the same frame apply.
	f := newFixture(t, "a1")
	cli := f.client()
	ctx := context.Background()
	if _, err := deliverOne(ctx, cli, "a1", BatchItem{MsgID: "m1", Kind: "op", Payload: []byte("x"), Seq: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := rpc.Invoke[DeliverBatchReq, DeliverBatchResp](ctx, cli, "a1", ServiceName, MethodDeliverBatch,
		DeliverBatchReq{Group: "G", Items: []BatchItem{
			{MsgID: "m1", Kind: "op", Payload: []byte("x"), Seq: 1},
			{MsgID: "m2", Kind: "op", Payload: []byte("y"), Seq: 2},
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || string(resp.Results[0].Payload) != "ack-op" || resp.Results[0].Err != "" {
		t.Fatalf("results = %+v, want cached reply for m1", resp.Results)
	}
	if got := f.members["a1"].history(); got != "op:x,op:y" {
		t.Fatalf("history = %q (m1 must apply once)", got)
	}
}

// TestEveryRoundIsOneDeliverBatchFrame: a census of the group traffic on the
// wire. A lone multicast, a retry through a fail-over sequencer under the
// same MsgID, and a naive send each travel as Sequence calls and one
// DeliverBatch frame per remote member — nothing else — and the retry comes
// back under the number the message was first given.
func TestEveryRoundIsOneDeliverBatchFrame(t *testing.T) {
	f := newFixture(t, "a1", "a2", "a3")
	var mu sync.Mutex
	census := map[string]int{}
	f.cluster.Faults().OnRequest(-1, func(req transport.Request) bool { return req.Service == ServiceName },
		func(req transport.Request) {
			mu.Lock()
			census[req.Method]++
			mu.Unlock()
		})
	expect := func(phase string, want map[string]int) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if fmt.Sprint(census) != fmt.Sprint(want) {
			t.Fatalf("%s: group requests %v, want %v", phase, census, want)
		}
		clear(census)
	}
	ctx := context.Background()

	first, err := multicastWithID(ctx, f.client(), f.grp, "op", []byte("x"), "retried")
	if err != nil {
		t.Fatal(err)
	}
	expect("lone multicast", map[string]int{MethodSequence: 1, MethodDeliverBatch: 2})

	f.cluster.Node("a1").Crash()
	retry, err := multicastWithID(ctx, f.client(), f.grp, "op", []byte("x"), "retried")
	if err != nil {
		t.Fatal(err)
	}
	// Sequence to the dead a1, then to a2, which relays to a1 and a3.
	expect("fail-over retry", map[string]int{MethodSequence: 2, MethodDeliverBatch: 2})
	if retry.Seq != first.Seq {
		t.Fatalf("retry seq = %d, want the original %d", retry.Seq, first.Seq)
	}
	if len(retry.Replies) != 2 || len(retry.Failed) != 1 {
		t.Fatalf("retry replies=%+v failed=%v, want a2 and a3 answering, a1 failed", retry.Replies, retry.Failed)
	}
	for _, r := range retry.Replies {
		if r.Err != "" || string(r.Payload) != "ack-op" {
			t.Fatalf("retry reply from %s = (%q, %q), want the cached ack", r.Member, r.Payload, r.Err)
		}
	}

	NaiveMulticast(ctx, f.client(), f.grp, "naive", []byte("y"))
	expect("naive multicast", map[string]int{MethodDeliverBatch: 3})
	for _, name := range []transport.Addr{"a2", "a3"} {
		if got := f.members[name].history(); got != "op:x,naive:y" {
			t.Fatalf("%s history = %q", name, got)
		}
	}
}

// TestNaiveItemsAreNotDeduplicated: a naive item is applied on arrival with
// no dedup — two naive sends share a MsgID and both apply everywhere — while
// an ordered item delivered twice under one MsgID applies once.
func TestNaiveItemsAreNotDeduplicated(t *testing.T) {
	f := newFixture(t, "a1", "a2")
	ctx := context.Background()
	NaiveMulticast(ctx, f.client(), f.grp, "op", []byte("a"))
	NaiveMulticast(ctx, f.client(), f.grp, "op", []byte("b"))
	for _, name := range f.grp.Members {
		for i := 0; i < 2; i++ {
			if _, err := deliverOne(ctx, f.client(), name, BatchItem{MsgID: "ordered", Kind: "op", Payload: []byte("c"), Seq: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if got := f.members[name].history(); got != "op:a,op:b,op:c" {
			t.Fatalf("%s history = %q, want both naive items and the ordered one once", name, got)
		}
	}
}

// TestMulticastCallerGivingUpLeavesNoHole: a caller that gives up after its
// message was numbered does not take the relay down with it. The message
// still reaches every member, so the next one is not held back behind a
// number some member never gets.
func TestMulticastCallerGivingUpLeavesNoHole(t *testing.T) {
	// A leg's latency is where a cancelled context would stop the relay.
	f := newFixtureOn(t, sim.NewCluster(transport.MemOptions{BaseLatency: time.Millisecond}), "a1", "a2")
	relayed, gaveUp := make(chan struct{}), make(chan struct{})
	f.cluster.Faults().OnRequest(1, func(req transport.Request) bool {
		return req.Method == MethodDeliverBatch && req.To == "a2"
	}, func(transport.Request) {
		close(relayed)
		<-gaveUp
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Multicast(ctx, f.client(), f.grp, "op", []byte("x"))
		done <- err
	}()
	<-relayed // numbered, and on its way to a2
	cancel()
	close(gaveUp)
	<-done // over Mem the call returns once its handler has

	next, stop := context.WithTimeout(context.Background(), time.Second)
	defer stop()
	res, err := Multicast(next, f.client(), f.grp, "op", []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 2 || len(res.Failed) != 0 || len(res.Replies) != 2 {
		t.Fatalf("next message: seq %d, replies %+v, failed %v; want seq 2 delivered to both", res.Seq, res.Replies, res.Failed)
	}
	for _, r := range res.Replies {
		if r.Err != "" {
			t.Fatalf("%s refused the next message: %s", r.Member, r.Err)
		}
	}
	for name, m := range f.members {
		if got := m.history(); got != "op:x,op:y" {
			t.Fatalf("%s history = %q, want both messages in order", name, got)
		}
	}
}

// TestMulticastConcurrentRetriesShareANumber: retries of one message that
// reach the sequencer at once are one message: one number, one apply at
// each member, and the next message takes the next number, so no member
// waits for a number nothing carries.
func TestMulticastConcurrentRetriesShareANumber(t *testing.T) {
	f := newFixture(t, "a1", "a2", "a3")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var wg sync.WaitGroup
	seqs := make([]uint64, 4)
	for i := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := multicastWithID(ctx, f.client(), f.grp, "op", []byte("x"), "retried")
			if err != nil {
				t.Error(err)
				return
			}
			seqs[i] = res.Seq
		}()
	}
	wg.Wait()
	for i, seq := range seqs {
		if seq != 1 {
			t.Fatalf("retry %d numbered %d, want 1: %v", i, seq, seqs)
		}
	}
	res, err := Multicast(ctx, f.client(), f.grp, "op", []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 2 || len(res.Failed) != 0 {
		t.Fatalf("next message: seq %d, failed %v; want seq 2 at every member", res.Seq, res.Failed)
	}
	for name, m := range f.members {
		if got := m.history(); got != "op:x,op:y" {
			t.Fatalf("%s history = %q, want the retried message once", name, got)
		}
	}
}

// TestMulticastFailoverSequencerContinuesTheStream: a member that takes
// over as sequencer knows the numbers the old one gave the messages it
// relayed here. A retry of one keeps its number, and a new message takes
// the next, so the survivors apply each message once and in one order.
func TestMulticastFailoverSequencerContinuesTheStream(t *testing.T) {
	f := newFixture(t, "a1", "a2", "a3")
	ctx := context.Background()
	for i, id := range []string{"x", "y"} {
		res, err := multicastWithID(ctx, f.client(), f.grp, "op", []byte(id), id)
		if err != nil || res.Seq != uint64(i+1) {
			t.Fatalf("message %s: seq %v, %v", id, res, err)
		}
	}
	f.cluster.Node("a1").Crash()
	retry, err := multicastWithID(ctx, f.client(), f.grp, "op", []byte("y"), "y")
	if err != nil || retry.Seq != 2 {
		t.Fatalf("retry of y through a2: %+v, %v; want its original number 2", retry, err)
	}
	next, err := Multicast(ctx, f.client(), f.grp, "op", []byte("z"))
	if err != nil || next.Seq != 3 || len(next.Replies) != 2 {
		t.Fatalf("next message through a2: %+v, %v; want number 3 at a2 and a3", next, err)
	}
	for _, name := range []transport.Addr{"a2", "a3"} {
		if got := f.members[name].history(); got != "op:x,op:y,op:z" {
			t.Fatalf("%s history = %q, want each message once, in order", name, got)
		}
	}
}
