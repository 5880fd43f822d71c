package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/group"
	"repro/internal/harness"
	"repro/internal/lease"
	"repro/internal/lockmgr"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/uid"
)

// probeBudget is how long each probe loops. The probes run on every
// traced pass, so all of them together must stay a small part of it.
const probeBudget = 120 * time.Millisecond

// perCall runs fn for about probeBudget in batches and returns the median
// batch's time per call. A batch is sized to about a millisecond so the
// clock's own cost disappears; the median drops the batches a collection
// or a descheduling landed in.
func perCall(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	once := max(time.Since(t0), time.Nanosecond)
	batch := int(max(time.Millisecond/once, 1))
	var perCalls []float64
	for start := time.Now(); time.Since(start) < probeBudget; {
		b0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		perCalls = append(perCalls, float64(time.Since(b0))/float64(batch))
	}
	return time.Duration(median(perCalls))
}

// perCallParallel is perCall's shape for contended paths: n goroutines
// call fn for the budget; the result is wall time per call overall.
func perCallParallel(n int, fn func(worker int)) time.Duration {
	var wg sync.WaitGroup
	counts := make([]int, n)
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < probeBudget {
				fn(w)
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, c := range counts {
		total += c
	}
	return elapsed / time.Duration(max(total, 1))
}

func ns(d time.Duration) value { return value{float64(d.Nanoseconds()), 0} }
func us(d time.Duration) value { return value{float64(d.Nanoseconds()) / 1e3, 0} }

// firstErr keeps the first error a probe's loop meets; the loops run on
// several goroutines and must not stop to report.
type firstErr struct{ p atomic.Pointer[error] }

func (f *firstErr) set(err error) {
	if err != nil {
		f.p.CompareAndSwap(nil, &err)
	}
}

func (f *firstErr) get() error {
	if e := f.p.Load(); e != nil {
		return *e
	}
	return nil
}

// noopParticipant votes commit and does nothing: Action.Commit over two
// of them is the coordinator's own cost.
type noopParticipant struct{ name string }

func (p noopParticipant) Name() string { return p.name }
func (p noopParticipant) Prepare(context.Context, string) (action.Vote, error) {
	return action.VoteCommit, nil
}
func (p noopParticipant) Commit(context.Context, string) error { return nil }
func (p noopParticipant) Abort(context.Context, string) error  { return nil }

// probes times calls into each layer's exported functions — the P-source
// metrics. They do not depend on the workload; a probe that cannot set
// itself up is an error, like a failed gate.
func probes(m results) error {
	const w = 2 // callers on the contended paths
	ctx := context.Background()
	var failed firstErr

	ring := placement.NewRing([]int{1, 2, 3}, 0)
	key := uid.NewGenerator("probe", 1).New().String()
	m["placement.ring_lookup_ns"] = ns(perCall(func() { ring.Lookup(key) }))

	for _, tc := range []struct {
		metric string
		scheme core.Scheme
	}{
		{"core.bind_standard_us", core.SchemeStandard},
		{"core.bind_independent_us", core.SchemeIndependent},
		{"core.bind_nested_us", core.SchemeNestedTopLevel},
	} {
		world, err := harness.New(harness.Options{Servers: 2, Stores: 2, Clients: 1})
		if err != nil {
			return fmt.Errorf("probe %s: %w", tc.metric, err)
		}
		bd := world.Binder("c1", tc.scheme, replica.SingleCopyPassive, 1)
		m[tc.metric] = us(perCall(func() {
			act := bd.Actions.BeginTop()
			_, err := bd.Bind(ctx, act, world.Objects[0])
			failed.set(err)
			_, err = act.Commit(ctx)
			failed.set(err)
		}))
		if err := failed.get(); err != nil {
			return fmt.Errorf("probe %s: %w", tc.metric, err)
		}
	}

	mgr := action.NewManager("probe2pc", action.NewMemLog())
	m["action.commit_null_us"] = us(perCall(func() {
		act := mgr.BeginTop()
		failed.set(act.Enlist(noopParticipant{"p1"}))
		failed.set(act.Enlist(noopParticipant{"p2"}))
		_, err := act.Commit(ctx)
		failed.set(err)
	}))
	if err := failed.get(); err != nil {
		return fmt.Errorf("probe action.commit_null_us: %w", err)
	}

	solo, err := experiments.MeasureMulticastCost([]int{3}, 300, 0)
	if err != nil {
		return fmt.Errorf("probe group.multicast_us: %w", err)
	}
	m["group.multicast_us"] = value{solo[0].OrderedMicros, 300}
	piped, err := experiments.MeasurePipelinedMulticast(3, w, 300, 0)
	if err != nil {
		return fmt.Errorf("probe group.msgs_per_round: %w", err)
	}
	m["group.msgs_per_round"] = value{piped.MsgsPerRound(), w * 300}

	node := sim.NewCluster(transport.MemOptions{}).Add("c1")
	local := lease.NewLocal(lease.NewCache(group.NewHost(node.Server(), node.Client()), &metrics.Registry{}), 0)
	id := uid.NewGenerator("probe", 2).New()
	local.Put(lease.Snapshot{UID: id, Class: "counter", State: []byte("1"), Seq: 1, Expiry: time.Now().Add(time.Hour)})
	now := time.Now()
	m["lease.l1_hit_ns"] = ns(perCall(func() {
		if _, ok := local.Get(id, now); !ok {
			failed.set(errors.New("a held lease missed"))
		}
	}))
	if err := failed.get(); err != nil {
		return fmt.Errorf("probe lease.l1_hit_ns: %w", err)
	}

	lm := lockmgr.New(lockmgr.NoNesting)
	m["lockmgr.uncontended_ns"] = ns(perCall(func() {
		failed.set(lm.Acquire(ctx, "solo", "key", lockmgr.Write))
		failed.set(lm.Release("solo", "key", lockmgr.Write))
	}))
	owners := make([]lockmgr.Owner, w)
	for i := range owners {
		owners[i] = lockmgr.Owner("w" + strconv.Itoa(i))
	}
	m["lockmgr.handoff_us"] = us(perCallParallel(w, func(i int) {
		failed.set(lm.Acquire(ctx, owners[i], "hot", lockmgr.Write))
		failed.set(lm.Release(owners[i], "hot", lockmgr.Write))
	}))
	if err := failed.get(); err != nil {
		return fmt.Errorf("probe lockmgr: %w", err)
	}

	dir, err := os.MkdirTemp("", "arjuna-bench-probe-")
	if err != nil {
		return fmt.Errorf("probe storage: %w", err)
	}
	defer os.RemoveAll(dir)
	disk, err := storage.OpenDisk(dir, storage.DiskOptions{})
	if err != nil {
		return fmt.Errorf("probe storage: %w", err)
	}
	defer disk.Close()
	var seq [8]int // one counter per writer
	put := func(i int) {
		seq[i]++
		tx := "tx" + strconv.Itoa(i) + "-" + strconv.Itoa(seq[i])
		failed.set(disk.PutIntention(tx, "obj", storage.Write{Data: []byte("1"), Seq: uint64(seq[i])}))
		failed.set(disk.Sync())
	}
	m["storage.sync_us"] = us(perCall(func() { put(0) }))
	m["storage.group_sync_us"] = us(perCallParallel(w, put))
	if err := failed.get(); err != nil {
		return fmt.Errorf("probe storage: %w", err)
	}

	req := object.InvokeReq{UID: id.String(), Action: "c1:1", Method: "add", Args: []byte("1"), Solo: true}
	codec := func() {
		raw, err := rpc.Encode(&req)
		failed.set(err)
		var back object.InvokeReq
		failed.set(rpc.Decode(raw, &back))
	}
	m["rpc.codec_ns"] = ns(perCall(codec))
	const allocRuns = 1000
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < allocRuns; i++ {
		codec()
	}
	runtime.ReadMemStats(&ms1)
	m["rpc.codec_allocs"] = value{float64(ms1.Mallocs-ms0.Mallocs) / allocRuns, allocRuns}

	echo := func(_ context.Context, r transport.Request) ([]byte, error) { return r.Payload, nil }
	call := transport.Request{From: "a", To: "b", Service: "probe", Method: "Echo", Payload: make([]byte, 64)}
	mem := transport.NewMem(transport.MemOptions{}, nil)
	mem.Register("b", echo)
	doCall := func(net transport.Network) func() {
		return func() {
			_, err := net.Call(ctx, call)
			failed.set(err)
		}
	}
	m["transport.mem_call_us"] = us(perCall(doCall(mem)))
	mux := transport.NewTCPMux()
	defer mux.Close()
	mux.Register("b", echo)
	m["transport.mux_call_us"] = us(perCall(doCall(mux)))
	m["transport.mux_call_depth8_us"] = us(perCallParallel(8, func(int) { doCall(mux)() }))
	if err := failed.get(); err != nil {
		return fmt.Errorf("probe codec or transport: %w", err)
	}
	return nil
}
