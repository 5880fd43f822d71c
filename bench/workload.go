package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/uid"
	"repro/pkg/arjuna"
)

// workload is one deployment plus one traffic mix. The load shape is the
// same everywhere (closed loop, one caller on its own client node, 64
// counters, Zipf s=1.1); only what the comment on each entry names differs,
// so the difference between two rows is the cost of that one thing.
type workload struct {
	Name string
	Why  string

	shards, servers, stores int
	wire                    bool          // loopback sockets instead of the in-memory carrier
	disk                    bool          // the WAL backend instead of memory (see open for the sync mode)
	leaseTTL                time.Duration // 0 = read leases off
	readFrac, crossFrac     float64       // the rest are single-object writes
	crashStore              string        // store node the nemesis cycles ("" = no fault)
}

var workloads = []workload{
	{Name: "mix-mem", Why: "protocol CPU floor: codec, rpc, binder, lock table and one-phase commit do all the work, sockets and fsync none",
		shards: 3, servers: 1, stores: 1, readFrac: 0.50, crossFrac: 0.10},
	{Name: "mix-wire", Why: "mix-mem over loopback sockets: transport does most of the work, so every round trip saved shows here first",
		shards: 3, servers: 1, stores: 1, wire: true, readFrac: 0.50, crossFrac: 0.10},
	{Name: "mix-disk", Why: "mix-mem on the WAL backend, device sync off: storage's own processor cost (framing, write(2), compaction) on writes, none on reads",
		shards: 3, servers: 1, stores: 1, disk: true, readFrac: 0.50, crossFrac: 0.10},
	{Name: "lease-8020", Why: "mix-mem with 100 ms read leases, 80/15/5: the lease cache serves reads while every write pays the fence",
		shards: 3, servers: 1, stores: 1, leaseTTL: 100 * time.Millisecond, readFrac: 0.80, crossFrac: 0.05},
	{Name: "replicated", Why: "the paper's shape: one group, 2 servers, 3 stores, logged 2PC and the classic binder that mix-* skip",
		shards: 1, servers: 2, stores: 3, readFrac: 0.45, crossFrac: 0.10},
	{Name: "store-crash", Why: "replicated plus a store crashing 1 s in every 2 s: the price of Exclude, catch-up and Include is the difference of two rows",
		shards: 1, servers: 2, stores: 3, readFrac: 0.45, crossFrac: 0.10, crashStore: "st3"},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return workload{}, false
}

const (
	numObjects = 64
	zipfS      = 1.1
	opTimeout  = 5 * time.Second
	retries    = 5
	backoff    = 2 * time.Millisecond
	// sliceLen is the unit of every end-to-end median and of the traced
	// pass's on/off alternation: four of host.go's bins. It equals the
	// nemesis period, so every slice of store-crash holds one whole
	// crash-and-recover cycle.
	sliceLen = 2 * time.Second
	// workerCount is W, the closed-loop callers. One: with two on this
	// box's two shared cores the numbers followed the neighbours' load, not
	// the program (README.md, "Sizing"); host.go's correction needs the load
	// and the reference kernel on one thread. The deployment, the tracer and
	// the gate take any W; the end-to-end arithmetic in run.go takes one.
	workerCount = 1
)

type opClass int

const (
	opRead opClass = iota
	opWrite
	opCross
	numClasses
)

var classNames = [numClasses]string{"read", "write", "cross"}

// opRecord is one measured operation: its timing plus what the metrics
// need of its CommitReport, flattened so that a window's records hold no
// pointers for the collector to trace.
type opRecord struct {
	class     opClass
	bin       int32 // index into the worker's bins: the one open at completion
	latency   time.Duration
	queueWait time.Duration
	attempts  int32
	overloads int32
	failed    bool
	committed bool
	// leaseRead: served entirely from the lease cache. excluded: the
	// commit dropped a store from an St view. readOnlyCommit: every
	// phase-one voter was read-only.
	leaseRead, batched, onePhase, logged, readOnlyCommit, excluded bool
}

// deployment is an opened workload: the system, its workers' clients and
// what the run needs to tear it down and to check it.
type deployment struct {
	wl      workload
	sys     *arjuna.System
	tracer  *tracer // nil on the untraced pass
	objs    []uid.UID
	shardOf []int
	workers []*worker
	dataDir string
	// prefillAdds is what the prefill committed, the gate's starting sum;
	// prefillUnknown counts its failed writes (see prefillOp).
	prefillAdds    int64
	prefillUnknown atomic.Int64
}

type worker struct {
	idx    int
	node   string
	rw, ro *arjuna.Client
	rng    *rand.Rand
	zipf   *rand.Zipf
	recs   []opRecord
	bins   []bin
	// acked and unknown feed the correctness gate: committed add-1 writes,
	// and failed writes whose effect may or may not be permanent.
	acked, unknown int64
}

// open assembles the workload's deployment through pkg/arjuna, creates
// each worker's clients and runs the prefill. With traced set, the
// carrier is wrapped in the span-recording network.
func open(wl workload, seed int64, traced bool) (*deployment, error) {
	w := workerCount
	d := &deployment{wl: wl}
	opts := []arjuna.Option{
		arjuna.WithShards(wl.shards),
		arjuna.WithServers(wl.servers),
		arjuna.WithStores(wl.stores),
		arjuna.WithClients(w),
		arjuna.WithObjects(numObjects),
	}
	var carrier transport.Network
	if wl.wire {
		carrier = transport.NewTCPMux()
	}
	if traced {
		if carrier == nil {
			carrier = transport.NewMem(transport.MemOptions{}, nil)
		}
		clients := make([]transport.Addr, w)
		for i := range clients {
			clients[i] = clientNode(i)
		}
		d.tracer = newTracer(carrier, clients)
		carrier = d.tracer
	}
	if carrier != nil {
		opts = append(opts, arjuna.WithNetwork(carrier))
	}
	if wl.disk {
		dir, err := os.MkdirTemp("", "arjuna-bench-")
		if err != nil {
			return nil, err
		}
		d.dataDir = dir
		// Without fsync. With it, a write spends its time in the sandbox's
		// shared disk, whose speed moved the workload's level by 30 % between
		// two sets of ten runs and which no reference kernel follows — the
		// process's CPU time included (README.md, "Sizing"). The device's
		// cost stays visible in the storage.sync_us probes.
		opts = append(opts, arjuna.WithDataDir(dir), arjuna.WithDiskOptions(storage.DiskOptions{Sync: storage.SyncNone}))
	}
	if wl.leaseTTL > 0 {
		opts = append(opts, arjuna.WithReadLeases(wl.leaseTTL))
	}
	sys, err := arjuna.Open(opts...)
	if err != nil {
		d.close()
		return nil, err
	}
	d.sys = sys
	d.objs = sys.Objects()
	d.shardOf = make([]int, len(d.objs))
	for i, id := range d.objs {
		d.shardOf[i] = sys.ShardOf(id)
	}
	retry := arjuna.ClientRetry(retries, backoff)
	for i := 0; i < w; i++ {
		node := string(clientNode(i))
		rw, err := sys.Client(node, retry, arjuna.ClientFastBind())
		if err != nil {
			d.close()
			return nil, err
		}
		ro, err := sys.Client(node, retry, arjuna.ClientReadOnly())
		if err != nil {
			d.close()
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(i)))
		d.workers = append(d.workers, &worker{
			idx: i, node: node, rw: rw, ro: ro, rng: rng,
			zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(d.objs)-1)),
		})
	}
	if err := d.prefill(); err != nil {
		d.close()
		return nil, fmt.Errorf("prefill: %w", err)
	}
	return d, nil
}

func clientNode(i int) transport.Addr { return transport.Addr("c" + strconv.Itoa(i+1)) }

// prefill gives every object one committed write and one read from every
// client node before the clock starts. It pays activation, the placement-
// cache fill of each worker's clients and the lease layer's 2×TTL grace on
// an instance's first commit; README.md has the numbers that made this a
// rule. The first round writes every object at once from throwaway
// clients, so the grace periods overlap instead of queueing; the second is
// each worker walking the objects with its own two clients, all workers
// at once.
func (d *deployment) prefill() error {
	ctx := context.Background()
	var wg sync.WaitGroup
	first := make([]error, len(d.objs))
	for i, id := range d.objs {
		wg.Add(1)
		go func(i int, id uid.UID) {
			defer wg.Done()
			cl, err := d.sys.Client(d.workers[0].node, arjuna.ClientRetry(retries, backoff), arjuna.ClientFastBind())
			if err != nil {
				first[i] = err
				return
			}
			first[i] = d.prefillOp(fmt.Sprintf("first write of object %d", i), true, func() error {
				_, _, err := cl.Apply(ctx, id, "add", []byte("1"))
				return err
			})
		}(i, id)
	}
	wg.Wait()
	second := make([]error, len(d.workers))
	for _, wk := range d.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for i, id := range d.objs {
				err := d.prefillOp(fmt.Sprintf("%s: write of object %d", wk.node, i), true, func() error {
					_, _, err := wk.rw.Apply(ctx, id, "add", []byte("1"))
					return err
				})
				if err == nil {
					err = d.prefillOp(fmt.Sprintf("%s: read of object %d", wk.node, i), false, func() error {
						_, err := wk.ro.Atomic(ctx, func(tx *arjuna.Txn) error {
							_, rerr := tx.Object(id).Read(ctx, "get", nil)
							return rerr
						})
						return err
					})
				}
				if err != nil {
					second[wk.idx] = err
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	if err := errors.Join(append(first, second...)...); err != nil {
		return err
	}
	d.prefillAdds = int64((1 + len(d.workers)) * len(d.objs))
	return nil
}

// prefillOp runs one prefill operation, trying up to three times. About
// one set-up in a thousand of `replicated` loses an operation to "coordinator
// sv1 failed: no functioning servers" while instances are first activated
// (README.md, known gaps); it has not been seen once the window runs. A
// failed write may or may not have committed, so each one widens the gate's
// interval like a failed write of the window does.
func (d *deployment) prefillOp(what string, write bool, op func() error) error {
	var err error
	for attempt := 1; attempt <= 3; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if write {
			d.prefillUnknown.Add(1)
		}
		fmt.Fprintf(os.Stderr, "bench: prefill: %s failed (attempt %d): %v\n", what, attempt, err)
	}
	return fmt.Errorf("%s: %w", what, err)
}

func (d *deployment) close() {
	if d.sys != nil {
		_ = d.sys.Close()
	}
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir)
	}
}

// dataBytes sums the regular files under the data dir (0 without one).
func (d *deployment) dataBytes() int64 {
	if d.dataDir == "" {
		return 0
	}
	var n int64
	_ = filepath.Walk(d.dataDir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// drive runs every worker closed-loop from start for dur and returns when
// all have finished their last operation. With record unset (warm-up)
// nothing is kept and the reference kernel does not run. tracedAt says at
// which instants of the window a starting operation records spans (nil on
// the untraced pass).
func (d *deployment) drive(start time.Time, dur time.Duration, record bool, tracedAt func(since time.Duration) bool) {
	var wg sync.WaitGroup
	for _, wk := range d.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			if !record {
				for time.Since(start) < dur {
					d.oneOp(wk, false)
				}
				return
			}
			wk.recs = make([]opRecord, 0, int(dur/time.Second)*(1<<15))
			var cur bin
			refTimes := make([]time.Duration, 0, 2*binLen/refEvery)
			opened, proc := time.Duration(0), sampleProcess()
			// closeBin ends the open bin at now, between two operations.
			closeBin := func(now time.Duration) {
				p := sampleProcess()
				cur.elapsed, cur.cpu, cur.mallocs = now-opened, p.cpu-proc.cpu, p.mallocs-proc.mallocs
				if len(refTimes) > 0 {
					sort.Slice(refTimes, func(i, j int) bool { return refTimes[i] < refTimes[j] })
					cur.refMedian = percentile(refTimes, 0.50)
				}
				wk.bins = append(wk.bins, cur)
				cur, opened, proc, refTimes = bin{}, now, p, refTimes[:0]
			}
			lastRef := -refEvery
			for {
				since := time.Since(start)
				if since >= dur {
					closeBin(since)
					return
				}
				if since >= time.Duration(len(wk.bins)+1)*binLen {
					closeBin(since)
				}
				if since-lastRef >= refEvery {
					c0, t0 := processCPU(), time.Now()
					refKernel()
					took := time.Since(t0)
					cur.refTime += took
					cur.refCPU += processCPU() - c0
					cur.refCalls++
					refTimes = append(refTimes, took)
					lastRef = since
				}
				rec := d.oneOp(wk, tracedAt != nil && tracedAt(since))
				rec.bin = int32(len(wk.bins))
				cur.ops++
				wk.recs = append(wk.recs, rec)
			}
		}(wk)
	}
	wg.Wait()
}

// oneOp draws and runs one operation of the mix.
func (d *deployment) oneOp(wk *worker, traced bool) opRecord {
	key := int(wk.zipf.Uint64())
	class := opWrite
	switch roll := wk.rng.Float64(); {
	case roll < d.wl.readFrac:
		class = opRead
	case roll < d.wl.readFrac+d.wl.crossFrac:
		class = opCross
	}
	peer := -1
	if class == opCross {
		peer = d.pickPeer(wk.rng, key)
	}

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var op *opTrace
	if traced {
		ctx, op = d.tracer.beginOp(ctx, wk.idx, class)
	}
	start := time.Now()
	var rep *arjuna.CommitReport
	var err error
	switch class {
	case opRead:
		rep, err = wk.ro.Atomic(ctx, func(tx *arjuna.Txn) error {
			_, rerr := tx.Object(d.objs[key]).Read(ctx, "get", nil)
			return rerr
		})
	case opWrite:
		_, rep, err = wk.rw.Apply(ctx, d.objs[key], "add", []byte("1"))
	case opCross:
		// Bind in index order so two transfers over one pair cannot
		// deadlock AB-BA.
		first, second := min(key, peer), max(key, peer)
		rep, err = wk.rw.Atomic(ctx, func(tx *arjuna.Txn) error {
			if _, ierr := tx.Object(d.objs[first]).Invoke(ctx, "add", []byte("-1")); ierr != nil {
				return ierr
			}
			_, ierr := tx.Object(d.objs[second]).Invoke(ctx, "add", []byte("1"))
			return ierr
		})
	}
	end := time.Now()
	if op != nil {
		d.tracer.endOp(wk.idx, op, start, end, err != nil)
	}
	rec := opRecord{class: class, latency: end.Sub(start), failed: err != nil}
	if rep != nil {
		rec.committed = rep.Committed
		rec.queueWait = rep.QueueWait
		rec.attempts, rec.overloads = int32(rep.Attempts), int32(rep.Overloads)
		rec.leaseRead, rec.batched = rep.LeaseReads > 0, rep.Batched
		rec.onePhase, rec.logged = rep.OnePhase, rep.OutcomeLogged
		rec.readOnlyCommit = rep.CommitVoters == 0 && rep.ReadOnlyVoters > 0
		rec.excluded = len(rep.ExcludedStores) > 0
	}
	if class == opWrite {
		if err == nil {
			wk.acked++
		} else {
			// After retries or a timeout the commit may still have
			// happened (a lost reply); the gate accepts either.
			wk.unknown++
		}
	}
	return rec
}

// pickPeer chooses the second object of a two-object action: on another
// shard when there is one (a cross-shard transfer), otherwise any other
// object of the single group.
func (d *deployment) pickPeer(rng *rand.Rand, key int) int {
	for {
		p := rng.Intn(len(d.objs))
		if p == key {
			continue
		}
		if d.wl.shards > 1 && d.shardOf[p] == d.shardOf[key] {
			continue
		}
		return p
	}
}

// nemesis cycles the workload's store through crash and recovery for the
// length of the window: down halfway through every period (1 s into every
// 2 s), recovered at the period's end (§4.2: Exclude at commit, catch-up,
// Include). It returns each recovery's duration once the last one is done.
func (d *deployment) nemesis(start time.Time, dur, period time.Duration) ([]time.Duration, error) {
	var recoveries []time.Duration
	for cycle := 0; time.Duration(cycle+1)*period <= dur; cycle++ {
		time.Sleep(time.Until(start.Add(time.Duration(cycle)*period + period/2)))
		if err := d.sys.Crash(d.wl.crashStore); err != nil {
			return recoveries, err
		}
		time.Sleep(time.Until(start.Add(time.Duration(cycle+1) * period)))
		t0 := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		err := d.sys.Recover(ctx, d.wl.crashStore)
		cancel()
		if err != nil {
			return recoveries, fmt.Errorf("recover %s: %w", d.wl.crashStore, err)
		}
		recoveries = append(recoveries, time.Since(t0))
	}
	return recoveries, nil
}

// counters is a snapshot of what the deployment counts.
type counters struct {
	calls     map[string]int64 // service → calls
	transErrs int64
	fastFails int64
	lease     arjuna.LeaseStats
	dataBytes int64
	net       netCounts
}

func (d *deployment) snapshot() counters {
	c := counters{calls: map[string]int64{}, lease: d.sys.LeaseStats(), dataBytes: d.dataBytes()}
	for _, s := range d.sys.Stats() {
		c.calls[s.Service] = s.Calls
		c.transErrs += s.TransportErrors
	}
	c.fastFails = snapshotCounter(d.sys.StatsSnapshot(), "breaker.fastfail")
	if d.tracer != nil {
		c.net = d.tracer.counts()
	}
	return c
}

// snapshotCounter reads one "counter <name> <n>" line of StatsSnapshot.
func snapshotCounter(snapshot, name string) int64 {
	var n int64
	for _, line := range strings.Split(snapshot, "\n") {
		var kind, key string
		var v int64
		if c, _ := fmt.Sscan(line, &kind, &key, &v); c == 3 && kind == "counter" && key == name {
			n = v
		}
	}
	return n
}

// percentile returns the q-quantile of sorted by nearest rank.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
