package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"
)

// runConfig is one pass over one workload.
type runConfig struct {
	wl     workload
	seed   int64
	warmup time.Duration
	window time.Duration
	// slice is the throughput-median unit and the nemesis period
	// (sliceLen outside tests).
	slice time.Duration
	// traced selects the per-layer pass: the carrier is decorated, every
	// other eighth of a slice records spans, and the result holds the T-
	// and C-source per-layer metrics. Otherwise the result holds the
	// end-to-end ones.
	traced bool
	// setups is how many times the deployment is set up; the median of
	// their times is setup_s, the last one is driven.
	setups int
	// outDir receives trace-<workload>.json on a traced pass ("" = none).
	outDir string
}

// runResult is what one pass measured, after the correctness gate passed.
type runResult struct {
	attempted, failed int
	metrics           results
	worker            *worker    // the one worker: its bins are the window's
	ops               []*opTrace // traced pass only, for the span-tree test
	tracer            *tracer
}

// run sets the workload up, warms it, drives it for the window, checks the
// outputs and computes the pass's metrics. Any gate miss is an error: a
// run that is not correct reports no numbers.
func run(cfg runConfig) (*runResult, error) {
	var d *deployment
	var setupTimes []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if d != nil {
			d.close()
		}
		// The host's speed either side of the set-up corrects its time as
		// the bins correct the window's (host.go).
		before := timeRef(refAround)
		t0 := time.Now()
		var err error
		if d, err = open(cfg.wl, cfg.seed, cfg.traced); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.wl.Name, err)
		}
		took := time.Since(t0)
		setupTimes = append(setupTimes, took.Seconds()/slowdown((before+timeRef(refAround))/2))
	}
	defer d.close()

	d.drive(time.Now(), cfg.warmup, false, nil)
	before := d.snapshot()
	start := time.Now()

	var recoveries []time.Duration
	var nemesisErr error
	nemesisDone := make(chan struct{})
	go func() {
		defer close(nemesisDone)
		if cfg.wl.crashStore != "" {
			recoveries, nemesisErr = d.nemesis(start, cfg.window, cfg.slice)
		}
	}()
	// Tracing alternates on and off in eighths of a slice (250 ms), so the
	// traced and the untraced operations see the same drift, the same
	// phases of a crash cycle and the same total time: their counts
	// compare directly.
	var tracedAt func(time.Duration) bool
	if cfg.traced {
		tracedAt = func(since time.Duration) bool { return since/(cfg.slice/8)%2 == 1 }
	}
	d.drive(start, cfg.window, true, tracedAt)
	<-nemesisDone
	if nemesisErr != nil {
		return nil, fmt.Errorf("%s: nemesis: %w", cfg.wl.Name, nemesisErr)
	}
	after := d.snapshot()

	if err := d.gate(); err != nil {
		return nil, fmt.Errorf("%s: correctness gate: %w", cfg.wl.Name, err)
	}

	var recs []opRecord
	for _, wk := range d.workers {
		recs = append(recs, wk.recs...)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %v", cfg.wl.Name, cfg.window)
	}
	res := &runResult{attempted: len(recs), metrics: results{}, worker: d.workers[0]}
	for _, r := range recs {
		if r.failed {
			res.failed++
		}
	}
	if cfg.traced {
		res.tracer = d.tracer
		res.ops = d.tracer.ops()
		layerMetrics(res, cfg, recs, before, after, recoveries)
		if cfg.outDir != "" {
			if err := d.tracer.write(cfg.outDir, cfg.wl.Name, res.ops); err != nil {
				return nil, fmt.Errorf("%s: write trace: %w", cfg.wl.Name, err)
			}
		}
	} else {
		endToEndMetrics(res, cfg, setupTimes)
	}
	return res, nil
}

// endToEndMetrics reports every metric as the median over the window's
// slices of that slice's own value, each time in it first divided by its
// bin's slowdown for that kind of time (host.go). The reference kernel's
// own time, CPU and allocations are taken out of every total. One worker:
// its bins are the process's.
func endToEndMetrics(res *runResult, cfg runConfig, setupTimes []float64) {
	m, wk := res.metrics, res.worker
	m["setup_s"] = value{median(setupTimes), len(setupTimes)}

	perSlice := max(int(cfg.slice/binLen), 1)
	n := (len(wk.bins) + perSlice - 1) / perSlice
	type sliceSum struct {
		ops                  int
		elapsed, cpu, allocs float64 // corrected seconds, corrected seconds, objects
	}
	sums := make([]sliceSum, n)
	slow := make([]float64, len(wk.bins)) // of medians, per bin
	for i, b := range wk.bins {
		slow[i] = b.slowdownOfMedians()
		s := &sums[i/perSlice]
		s.ops += b.ops
		s.elapsed += (b.elapsed - b.refTime).Seconds() / b.slowdownOfElapsed()
		s.cpu += (b.cpu - b.refCPU).Seconds() / b.slowdownOfCPU()
		s.allocs += float64(b.mallocs) - refAllocs*float64(b.refCalls)
	}
	lat := make([][numClasses][]float64, n)
	var samples [numClasses]int
	for _, r := range wk.recs {
		if !r.failed {
			i := int(r.bin) / perSlice
			lat[i][r.class] = append(lat[i][r.class], float64(r.latency.Nanoseconds())/1e6/slow[r.bin])
			samples[r.class]++
		}
	}
	var tput, cpu, allocs []float64
	var p50 [numClasses][]float64
	for i, s := range sums {
		if s.ops == 0 {
			continue
		}
		tput = append(tput, float64(s.ops)/s.elapsed)
		cpu = append(cpu, s.cpu*1e6/float64(s.ops))
		allocs = append(allocs, s.allocs/float64(s.ops))
		for c := range lat[i] {
			if len(lat[i][c]) > 0 {
				p50[c] = append(p50[c], median(lat[i][c]))
			}
		}
	}
	m["throughput_ops_s"] = value{median(tput), len(wk.recs)}
	m["cpu_us_per_op"] = value{median(cpu), len(wk.recs)}
	m["allocs_per_op"] = value{median(allocs), len(wk.recs)}
	for c := opClass(0); c < numClasses; c++ {
		m[classNames[c]+"_p50_ms"] = value{median(p50[c]), samples[c]}
	}
}

// hostSlowdown is the median over the window's bins of how much slower
// than nominal the reference kernel ran, by its mean elapsed time.
func hostSlowdown(wk *worker) value {
	var slow []float64
	for _, b := range wk.bins {
		if b.refCalls > 0 {
			slow = append(slow, b.slowdownOfElapsed())
		}
	}
	return value{median(slow), len(slow)}
}

// layerMetrics fills the T- and C-source per-layer metrics; probes add
// the P-source ones.
func layerMetrics(res *runResult, cfg runConfig, recs []opRecord, before, after counters, recoveries []time.Duration) {
	m := res.metrics
	n := float64(len(recs))
	perOp := func(service string) value {
		return value{float64(after.calls[service]-before.calls[service]) / n, len(recs)}
	}
	m["placement.rpcs_per_op"] = perOp("placement")
	m["core.rpcs_per_op"] = perOp("groupview")
	m["object.rpcs_per_op"] = perOp("objsrv")
	m["store.rpcs_per_op"] = perOp("objectstore")
	m["action.outcomelog_rpcs_per_op"] = perOp("outcomelog")
	m["group.rpcs_per_op"] = perOp("group")
	m["rpc.transport_errors_per_op"] = value{float64(after.transErrs-before.transErrs) / n, len(recs)}
	m["rpc.breaker_fastfail_per_op"] = value{float64(after.fastFails-before.fastFails) / n, len(recs)}
	m["storage.wal_bytes_per_op"] = value{float64(after.dataBytes-before.dataBytes) / n, len(recs)}
	net := after.net.sub(before.net)
	m["transport.rpcs_per_op"] = value{float64(net.calls) / n, len(recs)}
	m["transport.bytes_per_op"] = value{float64(net.bytes) / n, len(recs)}

	var reads, leaseReads, writes, batched, committedWrites, onePhase float64
	var committed, logged, readOnlyCommits, commits2, attempts, overloads, excluded float64
	var queueWaits []time.Duration
	for _, r := range recs {
		attempts += float64(r.attempts)
		overloads += float64(r.overloads)
		queueWaits = append(queueWaits, r.queueWait)
		if r.excluded {
			excluded++
		}
		switch r.class {
		case opRead:
			reads++
			if r.leaseRead {
				leaseReads++
			}
		case opWrite:
			writes++
			if r.batched {
				batched++
			}
			if r.committed {
				committedWrites++
				if r.onePhase {
					onePhase++
				}
			}
		}
		if r.committed {
			committed++
			if r.class != opRead {
				commits2++
			}
			if r.logged {
				logged++
			}
			if r.readOnlyCommit {
				readOnlyCommits++
			}
		}
	}
	m["arjuna.failed_frac"] = value{float64(res.failed) / n, len(recs)}
	m["arjuna.attempts_per_op"] = value{attempts / n, len(recs)}
	m["arjuna.overloads_per_op"] = value{overloads / n, len(recs)}
	m["arjuna.lease_read_frac"] = value{ratio(leaseReads, reads), int(reads)}
	m["object.batched_frac"] = value{ratio(batched, writes), int(writes)}
	sort.Slice(queueWaits, func(i, j int) bool { return queueWaits[i] < queueWaits[j] })
	m["object.queue_wait_p99_us"] = value{float64(percentile(queueWaits, 0.99).Nanoseconds()) / 1e3, len(queueWaits)}
	m["action.one_phase_frac"] = value{ratio(onePhase, committedWrites), int(committedWrites)}
	m["action.outcome_logged_frac"] = value{ratio(logged, committed), int(committed)}
	m["action.readonly_commit_frac"] = value{ratio(readOnlyCommits, committed), int(committed)}
	storeWrites := net.byMethod[methodKey{"objectstore", "Prepare"}] +
		net.byMethod[methodKey{"objectstore", "Commit"}] +
		net.byMethod[methodKey{"objectstore", "CommitOnePhase"}]
	m["replica.store_writes_per_commit"] = value{ratio(float64(storeWrites), commits2), int(commits2)}

	hitFrac := func(hits, misses int64) value {
		return value{ratio(float64(hits), float64(hits+misses)), int(hits + misses)}
	}
	ls, l0 := after.lease, before.lease
	m["lease.l1_hit_frac"] = hitFrac(ls.L1Hits-l0.L1Hits, ls.L1Misses-l0.L1Misses)
	m["lease.l2_hit_frac"] = hitFrac(ls.L2Hits-l0.L2Hits, ls.L2Misses-l0.L2Misses)
	m["lease.invalidations_per_write"] = value{ratio(float64(ls.Invalidations-l0.Invalidations), commits2), int(commits2)}
	m["lease.waitouts"] = value{float64(ls.Waitouts - l0.Waitouts), 0}

	var recMS []float64
	for _, r := range recoveries {
		recMS = append(recMS, float64(r.Nanoseconds())/1e6)
	}
	m["core.recover_store_ms"] = value{median(recMS), len(recMS)}
	m["core.excluded_commits_per_crash"] = value{ratio(excluded, float64(len(recoveries))), len(recoveries)}

	// The traced slices: where an operation's wall time went, by layer.
	sums := map[string]time.Duration{}
	var invoke, commit, leafSum time.Duration
	var leaves int
	for _, op := range res.ops {
		lt := res.tracer.attribute(op)
		for svc, d := range lt.byService {
			sums[svc] += d
		}
		invoke += lt.invoke
		commit += lt.commit
		leafSum += lt.leafTime
		leaves += lt.leaves
	}
	nOps := len(res.ops)
	meanUS := func(d time.Duration, n int) value {
		return value{ratio(float64(d.Nanoseconds())/1e3, float64(n)), n}
	}
	m["arjuna.self_us"] = meanUS(sums["arjuna"], nOps)
	m["core.bind_us"] = meanUS(sums["groupview"], nOps)
	m["object.self_us"] = meanUS(sums["objsrv"], nOps)
	m["object.invoke_us"] = meanUS(invoke, nOps)
	m["object.commit_us"] = meanUS(commit, nOps)
	m["store.us_per_op"] = meanUS(sums["objectstore"], nOps)
	m["group.us_per_op"] = meanUS(sums["group"], nOps)
	m["transport.leaf_call_us"] = meanUS(leafSum, leaves)

	m["bench.trace_overhead_frac"] = value{1 - ratio(float64(nOps), float64(len(recs)-nOps)), nOps}
	m["bench.host_slowdown"] = hostSlowdown(res.worker)

	// The tails, as the clock showed them: on this host they follow the
	// neighbours (README.md, "Sizing"), so they carry no bound.
	var lat [numClasses][]time.Duration
	for _, r := range recs {
		if !r.failed {
			lat[r.class] = append(lat[r.class], r.latency)
		}
	}
	for c, l := range lat {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		m["arjuna."+classNames[c]+"_p99_ms"] = value{float64(percentile(l, 0.99).Nanoseconds()) / 1e6, len(l)}
	}
}

// gate is the correctness check every run must pass before it may report
// a number: the counters add up to what was acknowledged, every store of
// every St view agrees, and a crashed store is back in every view.
func (d *deployment) gate() error {
	acked, unknown := int64(0), d.prefillUnknown.Load()
	for _, wk := range d.workers {
		acked += wk.acked
		unknown += wk.unknown
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var sum int64
	for i, id := range d.objs {
		data, seq, err := d.sys.CommittedState(id)
		if err != nil {
			return fmt.Errorf("object %d: %w", i, err)
		}
		v, err := strconv.ParseInt(string(data), 10, 64)
		if err != nil {
			return fmt.Errorf("object %d: state %q is not a counter", i, data)
		}
		sum += v
		view, err := d.sys.StoreView(ctx, id)
		if err != nil {
			return fmt.Errorf("object %d: St view: %w", i, err)
		}
		if d.wl.crashStore != "" && len(view) != d.wl.stores {
			return fmt.Errorf("object %d: St view %v after recovery, want %d stores", i, view, d.wl.stores)
		}
		for _, st := range view {
			sdata, sseq, err := d.sys.StoreState(string(st), id)
			if err != nil {
				return fmt.Errorf("object %d at %s: %w", i, st, err)
			}
			if sseq != seq || string(sdata) != string(data) {
				return fmt.Errorf("object %d: %s holds (%s, seq %d), latest committed is (%s, seq %d)",
					i, st, sdata, sseq, data, seq)
			}
		}
	}
	// Two-object actions move one unit between counters and net zero.
	want := d.prefillAdds + acked
	if sum < want || sum > want+unknown {
		return fmt.Errorf("counters sum to %d, want %d prefill + %d acknowledged adds (+ at most %d of unknown outcome)",
			sum, d.prefillAdds, acked, unknown)
	}
	return nil
}
