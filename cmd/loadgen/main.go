// Command loadgen drives a sharded deployment with a closed-loop
// workload and reports machine-readable latency distributions.
//
// Thousands of concurrent clients pick keys from a Zipf distribution
// (hot keys are hot, as real object populations are), run a configurable
// mix of read-only actions, single-shard writes and cross-shard
// transfers, and record every operation's latency in the log-bucketed
// histogram of internal/metrics. After a warmup period the measured
// window begins; at the end loadgen writes a JSON report — p50/p99/p999
// and mean/max latency overall and per operation class, throughput,
// abort rate, and per-shard operation counts — to standard output, or to
// the -out file when one is given; progress and the one-line summary go to
// standard error. (Numbers to quote come from `bash bench/run.sh`.)
//
// Usage:
//
//	loadgen [-shards N] [-servers N] [-stores N] [-concurrency N]
//	        [-objects N] [-read-frac F] [-cross-frac F] [-zipf-s S]
//	        [-hot-frac F] [-queue-depth N] [-queue-wait D]
//	        [-warmup D] [-duration D] [-seed N] [-out FILE]
//
// -hot-frac forces that fraction of operations onto the single hottest
// key on top of the Zipf draw, making the hot-key tail scenario
// reproducible at will. Writes go through
// Client.Apply, so commutative adds against a contended key may be
// folded into the lock holder's commit (flat combining); each class's
// JSON slice reports how many operations were batched, how many retries
// the overload backpressure forced, and the server-side queue-wait
// distribution.
//
// -partition-store cuts one store node off from every other node partway
// through the measured window (-partition-at after measurement starts,
// healed after -partition-for, or at window end with 0), the degraded-
// mode scenario: operations on the lost store's shard abort quickly —
// circuit breakers fast-fail the repeat offenders — while the other
// shards keep committing. "auto" picks the last shard's first store.
//
// The deployment is in-memory and in-process: the numbers measure the
// protocol stack (binding, locking, replication, 2PC, placement), not a
// kernel's network path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"slices"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/pkg/arjuna"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// opClass indexes the workload mix.
const (
	opRead = iota
	opWrite
	opCross
	// opLeasedRead is not drawn by the mix: a read that the client served
	// entirely from its lease cache is reclassified here at record time,
	// so the JSON separates memory-speed reads from server round trips.
	opLeasedRead
	numClasses
)

var classNames = [numClasses]string{"read", "write", "cross", "leased-read"}

// classStats accumulates one worker's view of one operation class;
// workers are merged at the end (Histogram.Merge is lossless).
type classStats struct {
	hist      *metrics.Histogram
	queueWait *metrics.Histogram
	ops       int64
	aborts    int64
	batched   int64
	overloads int64
}

// Report is the JSON document loadgen emits.
type Report struct {
	Config      ConfigDoc           `json:"config"`
	MeasuredSec float64             `json:"measured_seconds"`
	Ops         int64               `json:"ops"`
	Throughput  float64             `json:"throughput_ops_per_sec"`
	Aborts      int64               `json:"aborts"`
	AbortRate   float64             `json:"abort_rate"`
	BatchedOps  int64               `json:"batched_ops"`
	Overall     LatencyDoc          `json:"overall"`
	Classes     map[string]ClassDoc `json:"classes"`
	PerShardOps map[string]int64    `json:"per_shard_ops"`
	// Leases carries the deployment's read-lease counters and per-tier
	// hit rates; present only when the run was started with -leases.
	Leases *LeaseDoc `json:"leases,omitempty"`
}

// LeaseDoc is the read-lease slice of the report: the tiered cache's
// per-tier hit rates plus the grant/invalidation/waitout counters that
// say how the leases were kept safe.
type LeaseDoc struct {
	TTLMS         float64 `json:"ttl_ms"`
	L1Hits        int64   `json:"l1_hits"`
	L1Misses      int64   `json:"l1_misses"`
	L1HitRate     float64 `json:"l1_hit_rate"`
	L2Hits        int64   `json:"l2_hits"`
	L2Misses      int64   `json:"l2_misses"`
	L2HitRate     float64 `json:"l2_hit_rate"`
	Grants        int64   `json:"grants"`
	GrantsRefused int64   `json:"grants_refused"`
	Invalidations int64   `json:"invalidations"`
	Invalidated   int64   `json:"invalidated"`
	Waitouts      int64   `json:"waitouts"`
}

// ConfigDoc echoes the run parameters into the report.
type ConfigDoc struct {
	Shards      int     `json:"shards"`
	Servers     int     `json:"servers_per_shard"`
	Stores      int     `json:"stores_per_shard"`
	Concurrency int     `json:"concurrency"`
	Objects     int     `json:"objects"`
	ReadFrac    float64 `json:"read_frac"`
	CrossFrac   float64 `json:"cross_frac"`
	ZipfS       float64 `json:"zipf_s"`
	HotFrac     float64 `json:"hot_frac"`
	QueueDepth  int     `json:"queue_depth"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	Retries     int     `json:"retries"`
	FastBind    bool    `json:"fast_bind"`
	Admission   int     `json:"admission"`
	WarmupSec   float64 `json:"warmup_seconds"`
	Seed        int64   `json:"seed"`
	// LeaseTTLMS is the cached read-lease TTL (0 = leases disabled).
	LeaseTTLMS float64 `json:"lease_ttl_ms,omitempty"`
	// PartitionStore names the store node partitioned mid-window ("" =
	// healthy run); PartitionAtSec/PartitionForSec delimit the outage
	// inside the measured window.
	PartitionStore  string  `json:"partition_store,omitempty"`
	PartitionAtSec  float64 `json:"partition_at_seconds,omitempty"`
	PartitionForSec float64 `json:"partition_for_seconds,omitempty"`
}

// LatencyDoc is one histogram's percentile summary, in milliseconds.
type LatencyDoc struct {
	P50  float64 `json:"p50_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Mean float64 `json:"mean_ms"`
	Max  float64 `json:"max_ms"`
}

// ClassDoc is one operation class's slice of the report. Batched counts
// operations whose write was folded into another action's commit round;
// Overloads counts attempts refused with backpressure (each forced a
// jittered-backoff retry); QueueWait summarises the server-side lock and
// combiner-queue wait the class observed.
type ClassDoc struct {
	Ops       int64      `json:"ops"`
	Aborts    int64      `json:"aborts"`
	Batched   int64      `json:"batched_ops"`
	Overloads int64      `json:"overload_retries"`
	Latency   LatencyDoc `json:"latency"`
	QueueWait LatencyDoc `json:"queue_wait"`
}

func latencyDoc(h *metrics.Histogram) LatencyDoc {
	if h.Count() == 0 {
		return LatencyDoc{}
	}
	return LatencyDoc{
		P50:  h.Percentile(0.50),
		P99:  h.Percentile(0.99),
		P999: h.Percentile(0.999),
		Mean: h.Mean(),
		Max:  h.Max(),
	}
}

func run() error {
	shards := flag.Int("shards", 3, "number of shards")
	servers := flag.Int("servers", 1, "object-server nodes per shard")
	stores := flag.Int("stores", 1, "object-store nodes per shard")
	clientNodes := flag.Int("client-nodes", 32, "client node count (workers are spread across them)")
	concurrency := flag.Int("concurrency", 1000, "concurrent closed-loop clients")
	objects := flag.Int("objects", 64, "pre-created counter objects (the key space)")
	readFrac := flag.Float64("read-frac", 0.50, "fraction of operations that are read-only")
	crossFrac := flag.Float64("cross-frac", 0.10, "fraction of operations that are cross-shard transfers")
	zipfS := flag.Float64("zipf-s", 1.1, "Zipf skew exponent (>1; higher = hotter hot keys)")
	hotFrac := flag.Float64("hot-frac", 0, "fraction of operations forced onto the single hottest key (0 = pure Zipf)")
	queueDepth := flag.Int("queue-depth", 0, "per-object lock wait-queue cap (0 = unbounded, no backpressure)")
	queueWait := flag.Duration("queue-wait", 0, "lock wait deadline before overload refusal (0 = unbounded)")
	retries := flag.Int("retries", 3, "attempts per operation before a transient refusal becomes an abort")
	fastBind := flag.Bool("fast-bind", true, "bind with commutative use-list locking (shared Sv read + Adjust-mode increments)")
	admission := flag.Int("admission", 0, "system-wide cap on in-flight actions (0 = no admission gate)")
	leaseTTL := flag.Duration("leases", 0, "cached read-lease TTL (0 = leases disabled); lease-served reads are reported as their own latency class")
	warmup := flag.Duration("warmup", 2*time.Second, "warmup period before measurement")
	duration := flag.Duration("duration", 10*time.Second, "measured window")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	out := flag.String("out", "", "output JSON path (default: standard output)")
	opTimeout := flag.Duration("op-timeout", 5*time.Second, "per-operation context timeout")
	partitionStore := flag.String("partition-store", "", "store node to partition mid-window (\"auto\" = last shard's first store, \"\" = none)")
	partitionAt := flag.Duration("partition-at", 2*time.Second, "when after measurement start the partition begins")
	partitionFor := flag.Duration("partition-for", 0, "how long the partition lasts (0 = until window end)")
	flag.Parse()

	if *readFrac+*crossFrac > 1 {
		return fmt.Errorf("read-frac + cross-frac = %.2f > 1", *readFrac+*crossFrac)
	}
	opts := []arjuna.Option{
		arjuna.WithShards(*shards),
		arjuna.WithServers(*servers),
		arjuna.WithStores(*stores),
		arjuna.WithClients(*clientNodes),
		arjuna.WithObjects(*objects),
	}
	if *queueDepth > 0 || *queueWait > 0 {
		opts = append(opts, arjuna.WithLockQueue(*queueDepth, *queueWait))
	}
	if *admission > 0 {
		opts = append(opts, arjuna.WithAdmission(*admission))
	}
	if *leaseTTL > 0 {
		opts = append(opts, arjuna.WithReadLeases(*leaseTTL))
	}
	sys, err := arjuna.Open(opts...)
	if err != nil {
		return err
	}
	defer sys.Close()

	objs := sys.Objects()
	// Key → shard, and shard → keys, precomputed so cross-shard transfers
	// can force their second key onto a different shard without asking
	// the placement service on the hot path.
	shardOf := make([]int, len(objs))
	byShard := map[int][]int{}
	for i, id := range objs {
		shardOf[i] = sys.ShardOf(id)
		byShard[shardOf[i]] = append(byShard[shardOf[i]], i)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %v\n", sys)
	fmt.Fprintf(os.Stderr, "loadgen: %d workers, %d objects over %d shards, mix read=%.2f write=%.2f cross=%.2f, zipf s=%.2f, hot-frac=%.2f\n",
		*concurrency, len(objs), sys.ShardCount(), *readFrac, 1-*readFrac-*crossFrac, *crossFrac, *zipfS, *hotFrac)

	measureStart := time.Now().Add(*warmup)
	measureEnd := measureStart.Add(*duration)
	perShardOps := make([]atomic.Int64, *shards+1)

	// Mid-window partition: cut the chosen store off from every other
	// node, heal after -partition-for (or at window end). The generator
	// keeps offering the full mix throughout — the report shows what a
	// deployment missing one store actually serves.
	var partitionDone chan struct{}
	if *partitionStore != "" {
		sick := transport.Addr(*partitionStore)
		if *partitionStore == "auto" {
			sts := sys.Stores()
			sick = sts[len(sts)-1]
		}
		if !slices.Contains(sys.Stores(), sick) {
			return fmt.Errorf("partition-store %q: no such store (have %v)", sick, sys.Stores())
		}
		*partitionStore = string(sick)
		var others []transport.Addr
		for _, ns := range sys.Status() {
			if ns.Name != sick {
				others = append(others, ns.Name)
			}
		}
		healAt := measureEnd
		if *partitionFor > 0 {
			healAt = measureStart.Add(*partitionAt + *partitionFor)
		}
		partitionDone = make(chan struct{})
		go func() {
			defer close(partitionDone)
			time.Sleep(time.Until(measureStart.Add(*partitionAt)))
			fmt.Fprintf(os.Stderr, "loadgen: partitioning %s from %d nodes\n", sick, len(others))
			for _, o := range others {
				sys.Faults().Partition(sick, o)
			}
			time.Sleep(time.Until(healAt))
			for _, o := range others {
				sys.Faults().Heal(sick, o)
			}
			fmt.Fprintf(os.Stderr, "loadgen: healed %s\n", sick)
		}()
	}

	type workerOut struct {
		classes [numClasses]classStats
	}
	results := make([]workerOut, *concurrency)
	var wg sync.WaitGroup
	for wi := 0; wi < *concurrency; wi++ {
		node := fmt.Sprintf("c%d", 1+wi%*clientNodes)
		rwOpts := []arjuna.ClientOption{arjuna.ClientRetry(*retries, 2*time.Millisecond)}
		retry := rwOpts[0]
		if *fastBind {
			rwOpts = append(rwOpts, arjuna.ClientFastBind())
		}
		rw, err := sys.Client(node, rwOpts...)
		if err != nil {
			return err
		}
		ro, err := sys.Client(node, arjuna.ClientReadOnly(), retry)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(wi int, rw, ro *arjuna.Client) {
			defer wg.Done()
			res := &results[wi]
			for c := range res.classes {
				res.classes[c].hist = new(metrics.Histogram)
				res.classes[c].queueWait = new(metrics.Histogram)
			}
			rng := rand.New(rand.NewSource(*seed + int64(wi)))
			zipf := rand.NewZipf(rng, *zipfS, 1, uint64(len(objs)-1))
			ctx := context.Background()

			for {
				now := time.Now()
				if !now.Before(measureEnd) {
					return
				}
				key := int(zipf.Uint64())
				// The Zipf draw already favours key 0; -hot-frac pins the
				// hot key harder than any realistic s would, reproducing
				// the pathological single-object tail on demand.
				if *hotFrac > 0 && rng.Float64() < *hotFrac {
					key = 0
				}
				class := opWrite
				switch roll := rng.Float64(); {
				case roll < *readFrac:
					class = opRead
				case roll < *readFrac+*crossFrac:
					class = opCross
				}
				// A cross-shard transfer needs a second key on another
				// shard; with a single shard it degrades to a write.
				peer := -1
				if class == opCross {
					var others []int
					for s, keys := range byShard {
						if s != shardOf[key] && len(keys) > 0 {
							others = keys
							break
						}
					}
					if others == nil {
						class = opWrite
					} else {
						peer = others[rng.Intn(len(others))]
					}
				}

				opCtx, cancel := context.WithTimeout(ctx, *opTimeout)
				start := time.Now()
				var opErr error
				var rep *arjuna.CommitReport
				switch class {
				case opRead:
					rep, opErr = ro.Atomic(opCtx, func(tx *arjuna.Txn) error {
						_, err := tx.Object(objs[key]).Read(opCtx, "get", nil)
						return err
					})
				case opWrite:
					// Apply declares the add as the action's whole write
					// set, so the server may fold it into the current lock
					// holder's commit instead of queueing.
					_, rep, opErr = rw.Apply(opCtx, objs[key], "add", []byte("1"))
				case opCross:
					// Bind in index order so two transfers over the same
					// pair cannot deadlock AB-BA.
					first, second := key, peer
					if first > second {
						first, second = second, first
					}
					rep, opErr = rw.Atomic(opCtx, func(tx *arjuna.Txn) error {
						if _, err := tx.Object(objs[first]).Invoke(opCtx, "add", []byte("-1")); err != nil {
							return err
						}
						_, err := tx.Object(objs[second]).Invoke(opCtx, "add", []byte("1"))
						return err
					})
				}
				elapsed := time.Since(start)
				cancel()

				if start.Before(measureStart) {
					continue // warmup: drive load, record nothing
				}
				// A read the lease cache fully absorbed never touched the
				// network; report it as its own latency class.
				if class == opRead && rep != nil && rep.LeaseReads > 0 {
					class = opLeasedRead
				}
				cs := &res.classes[class]
				cs.ops++
				if opErr != nil {
					cs.aborts++
				}
				cs.hist.RecordDuration(elapsed)
				if rep != nil {
					if rep.Batched {
						cs.batched++
					}
					cs.overloads += int64(rep.Overloads)
					cs.queueWait.RecordDuration(rep.QueueWait)
				}
				perShardOps[shardOf[key]].Add(1)
				if class == opCross {
					perShardOps[shardOf[peer]].Add(1)
				}
			}
		}(wi, rw, ro)
	}
	wg.Wait()
	if partitionDone != nil {
		<-partitionDone // heal before Close tears the cluster down
	}

	// Merge the per-worker histograms and counters.
	overall := new(metrics.Histogram)
	var merged [numClasses]classStats
	for c := range merged {
		merged[c].hist = new(metrics.Histogram)
		merged[c].queueWait = new(metrics.Histogram)
	}
	for i := range results {
		for c := range results[i].classes {
			cs := &results[i].classes[c]
			if cs.hist == nil {
				continue
			}
			merged[c].ops += cs.ops
			merged[c].aborts += cs.aborts
			merged[c].batched += cs.batched
			merged[c].overloads += cs.overloads
			merged[c].hist.Merge(cs.hist)
			merged[c].queueWait.Merge(cs.queueWait)
			overall.Merge(cs.hist)
		}
	}

	var totalOps, totalAborts, totalBatched int64
	classes := map[string]ClassDoc{}
	for c := range merged {
		totalOps += merged[c].ops
		totalAborts += merged[c].aborts
		totalBatched += merged[c].batched
		classes[classNames[c]] = ClassDoc{
			Ops:       merged[c].ops,
			Aborts:    merged[c].aborts,
			Batched:   merged[c].batched,
			Overloads: merged[c].overloads,
			Latency:   latencyDoc(merged[c].hist),
			QueueWait: latencyDoc(merged[c].queueWait),
		}
	}
	perShard := map[string]int64{}
	for s := 1; s <= *shards; s++ {
		perShard[strconv.Itoa(s)] = perShardOps[s].Load()
	}
	rep := Report{
		Config: ConfigDoc{
			Shards: *shards, Servers: *servers, Stores: *stores,
			Concurrency: *concurrency, Objects: *objects,
			ReadFrac: *readFrac, CrossFrac: *crossFrac, ZipfS: *zipfS,
			HotFrac: *hotFrac, QueueDepth: *queueDepth,
			QueueWaitMS: float64(queueWait.Milliseconds()), Retries: *retries,
			FastBind: *fastBind, Admission: *admission,
			WarmupSec: warmup.Seconds(), Seed: *seed,
			PartitionStore: *partitionStore,
		},
		MeasuredSec: duration.Seconds(),
		Ops:         totalOps,
		Throughput:  float64(totalOps) / duration.Seconds(),
		Aborts:      totalAborts,
		AbortRate:   safeDiv(totalAborts, totalOps),
		BatchedOps:  totalBatched,
		Overall:     latencyDoc(overall),
		Classes:     classes,
		PerShardOps: perShard,
	}
	if *partitionStore != "" {
		rep.Config.PartitionAtSec = partitionAt.Seconds()
		rep.Config.PartitionForSec = partitionFor.Seconds()
	}
	if *leaseTTL > 0 {
		ls := sys.LeaseStats()
		rep.Config.LeaseTTLMS = float64(leaseTTL.Nanoseconds()) / 1e6
		rep.Leases = &LeaseDoc{
			TTLMS:         rep.Config.LeaseTTLMS,
			L1Hits:        ls.L1Hits,
			L1Misses:      ls.L1Misses,
			L1HitRate:     safeDiv(ls.L1Hits, ls.L1Hits+ls.L1Misses),
			L2Hits:        ls.L2Hits,
			L2Misses:      ls.L2Misses,
			L2HitRate:     safeDiv(ls.L2Hits, ls.L2Hits+ls.L2Misses),
			Grants:        ls.Grants,
			GrantsRefused: ls.GrantsRefused,
			Invalidations: ls.Invalidations,
			Invalidated:   ls.Invalidated,
			Waitouts:      ls.Waitouts,
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dest := "stdout"
	if *out == "" {
		_, err = os.Stdout.Write(data)
	} else {
		dest = *out
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d ops in %s (%.0f ops/s), abort rate %.4f, batched %d\n",
		totalOps, duration, rep.Throughput, rep.AbortRate, totalBatched)
	fmt.Fprintf(os.Stderr, "loadgen: latency ms p50=%.3f p99=%.3f p999=%.3f max=%.3f → %s\n",
		rep.Overall.P50, rep.Overall.P99, rep.Overall.P999, rep.Overall.Max, dest)
	if rep.Leases != nil {
		lr := classes[classNames[opLeasedRead]]
		fmt.Fprintf(os.Stderr, "loadgen: leases ttl=%s L1 hit rate %.3f, L2 hit rate %.3f, %d lease-served reads p50=%.3fms (server reads p50=%.3fms), waitouts=%d\n",
			*leaseTTL, rep.Leases.L1HitRate, rep.Leases.L2HitRate,
			lr.Ops, lr.Latency.P50, classes[classNames[opRead]].Latency.P50, rep.Leases.Waitouts)
	}
	return nil
}

// safeDiv avoids NaN in the report when a short run measured nothing.
func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
