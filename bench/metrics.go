package main

// The metric catalogue: the single list BENCHMARK.json, the README tables
// and the printed results are checked against (bench_test.go). A metric's
// source says where the number comes from — W: the worker loop of the
// untraced pass, T: the traced pass, C: the deployment's public counters
// (System.Stats, LeaseStats, StatsSnapshot, CommitReport) or the tracing
// network's own per-method call counts, P: a probe timing calls into one
// layer's exported functions.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Source string
	What   string
}

// endToEnd lists what a user of the system sees. Each is reported as the
// median over the window's slices, with every time first corrected for the
// host's speed (host.go). With that correction ten runs of the same code
// spread 0.01-0.04 (README.md, "Sizing") where the uncorrected numbers
// spread 0.2-0.4; a time-based bound is five times the largest spread seen,
// and the largest bound goes to setup_s as the driver's contract asks.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "W", "Open + clients + prefill, median of five set-ups, host-corrected"},
	{"throughput_ops_s", "1/s", "higher", 0.20, "W", "operations completed per host-corrected second"},
	{"cpu_us_per_op", "us", "lower", 0.20, "W", "host-corrected process user+sys CPU / operations"},
	{"allocs_per_op", "count", "lower", 0.05, "W", "runtime.MemStats.Mallocs / operations"},
	{"read_p50_ms", "ms", "lower", 0.20, "W", "read-only action latency, median, host-corrected"},
	{"write_p50_ms", "ms", "lower", 0.20, "W", "single-object write action latency, median, host-corrected"},
	{"cross_p50_ms", "ms", "lower", 0.20, "W", "two-object action latency, median, host-corrected"},
}

// perLayer lists the ledger: one or more numbers per module, measured from
// outside it. They carry no bound; README.md says which end-to-end metric
// each should move on which workload.
var perLayer = []metricDef{
	{"arjuna.self_us", "us", "lower", 0, "T", "mean op time not covered by any client-issued RPC span"},
	{"arjuna.attempts_per_op", "count", "lower", 0, "C", "CommitReport.Attempts, mean"},
	{"arjuna.overloads_per_op", "count", "lower", 0, "C", "CommitReport.Overloads, mean"},
	{"arjuna.lease_read_frac", "frac", "higher", 0, "C", "reads served entirely from the lease cache / reads"},
	{"arjuna.failed_frac", "frac", "lower", 0, "W", "ops that returned an error after retries or timed out / attempted"},
	{"arjuna.read_p99_ms", "ms", "lower", 0, "W", "read-only action latency, 99th percentile of the window, as the clock showed it"},
	{"arjuna.write_p99_ms", "ms", "lower", 0, "W", "single-object write action latency, 99th percentile, as the clock showed it"},
	{"arjuna.cross_p99_ms", "ms", "lower", 0, "W", "two-object action latency, 99th percentile, as the clock showed it"},
	{"placement.rpcs_per_op", "count", "lower", 0, "C", "placement calls / op"},
	{"placement.ring_lookup_ns", "ns", "lower", 0, "P", "Ring.Lookup on a 3-shard ring"},
	{"core.rpcs_per_op", "count", "lower", 0, "C", "groupview calls / op"},
	{"core.bind_us", "us", "lower", 0, "T", "mean op time under groupview spans"},
	{"core.bind_standard_us", "us", "lower", 0, "P", "Binder.Bind + empty commit, standard scheme"},
	{"core.bind_independent_us", "us", "lower", 0, "P", "Binder.Bind + empty commit, independent top-level scheme"},
	{"core.bind_nested_us", "us", "lower", 0, "P", "Binder.Bind + empty commit, nested top-level scheme"},
	{"core.recover_store_ms", "ms", "lower", 0, "W", "System.Recover of the crashed store under load, median (store-crash only)"},
	{"core.excluded_commits_per_crash", "count", "lower", 0, "C", "commits whose report lists an excluded store / crashes (store-crash only)"},
	{"object.rpcs_per_op", "count", "lower", 0, "C", "objsrv calls / op"},
	{"object.invoke_us", "us", "lower", 0, "T", "mean op time under client-issued objsrv Invoke spans"},
	{"object.commit_us", "us", "lower", 0, "T", "mean op time under client-issued objsrv Prepare/Commit/PrepareCommit spans"},
	{"object.self_us", "us", "lower", 0, "T", "mean op time under objsrv spans minus their nested calls (Mem carriers; whole span over sockets)"},
	{"object.queue_wait_p99_us", "us", "lower", 0, "C", "CommitReport.QueueWait, 99th percentile"},
	{"object.batched_frac", "frac", "higher", 0, "C", "writes folded into another action's commit / writes"},
	{"replica.store_writes_per_commit", "count", "lower", 0, "C", "objectstore Prepare+Commit+CommitOnePhase calls / committed write or two-object action"},
	{"store.rpcs_per_op", "count", "lower", 0, "C", "objectstore calls / op"},
	{"store.us_per_op", "us", "lower", 0, "T", "mean op time under objectstore spans"},
	{"action.one_phase_frac", "frac", "higher", 0, "C", "committed writes that took the combined prepare+commit round / committed writes"},
	{"action.outcome_logged_frac", "frac", "lower", 0, "C", "committed actions that wrote a commit record / committed actions"},
	{"action.readonly_commit_frac", "frac", "higher", 0, "C", "committed actions whose every voter was read-only / committed actions"},
	{"action.outcomelog_rpcs_per_op", "count", "lower", 0, "C", "outcomelog calls / op"},
	{"action.commit_null_us", "us", "lower", 0, "P", "Action.Commit with two no-op participants and a MemLog"},
	{"group.rpcs_per_op", "count", "lower", 0, "C", "group (ordered multicast) calls / op"},
	{"group.us_per_op", "us", "lower", 0, "T", "mean op time under group spans"},
	{"group.multicast_us", "us", "lower", 0, "P", "one ordered multicast to 3 members, one sender"},
	{"group.msgs_per_round", "count", "higher", 0, "P", "messages per sequencer round with 2 concurrent senders"},
	{"lease.l1_hit_frac", "frac", "higher", 0, "C", "L1 lease-cache hits / L1 lookups"},
	{"lease.l2_hit_frac", "frac", "higher", 0, "C", "L2 lease-cache hits / L2 lookups"},
	{"lease.invalidations_per_write", "count", "lower", 0, "C", "invalidation multicasts delivered / committed write or two-object action"},
	{"lease.waitouts", "count", "lower", 0, "C", "commits that waited out the lease clock"},
	{"lease.l1_hit_ns", "ns", "lower", 0, "P", "Local.Get on a held lease"},
	{"lockmgr.uncontended_ns", "ns", "lower", 0, "P", "Acquire+Release of a write lock nobody else wants"},
	{"lockmgr.handoff_us", "us", "lower", 0, "P", "Acquire+Release with 2 goroutines on one key, write mode"},
	{"storage.sync_us", "us", "lower", 0, "P", "Disk PutIntention+Sync, one writer"},
	{"storage.group_sync_us", "us", "lower", 0, "P", "Disk PutIntention+Sync per record, 2 writers"},
	{"storage.wal_bytes_per_op", "B", "lower", 0, "C", "growth of the data dir over the window / op (disk backend only)"},
	{"rpc.codec_ns", "ns", "lower", 0, "P", "object.InvokeReq through rpc.Encode+Decode"},
	{"rpc.codec_allocs", "count", "lower", 0, "P", "allocations of that round trip"},
	{"rpc.transport_errors_per_op", "count", "lower", 0, "C", "calls that failed at the transport / op"},
	{"rpc.breaker_fastfail_per_op", "count", "lower", 0, "C", "calls refused by an open circuit breaker / op"},
	{"transport.rpcs_per_op", "count", "lower", 0, "C", "Network.Call invocations / op, nested ones included"},
	{"transport.bytes_per_op", "B", "lower", 0, "C", "request+reply payload bytes / op"},
	{"transport.leaf_call_us", "us", "lower", 0, "T", "mean duration of spans with no child"},
	{"transport.mem_call_us", "us", "lower", 0, "P", "echo call over transport.Mem"},
	{"transport.mux_call_us", "us", "lower", 0, "P", "echo call over transport.TCPMux, one caller"},
	{"transport.mux_call_depth8_us", "us", "lower", 0, "P", "echo call over transport.TCPMux per call, 8 callers on one connection"},
	{"bench.trace_overhead_frac", "frac", "lower", 0, "T", "1 - traced / untraced operations over alternating 250 ms of one window"},
	{"bench.host_slowdown", "ratio", "lower", 0, "W", "reference kernel's time / its nominal time, median over the window's 0.5 s bins"},
}

// value is one measured metric with its sample count (0 when the metric is
// a ratio of counters rather than a statistic over samples).
type value struct {
	V float64
	N int
}

type results map[string]value
