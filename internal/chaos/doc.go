// Package chaos is a seed-deterministic nemesis harness for the
// replicated-object stack: it derives a randomized fault schedule from a
// single integer seed, applies it to a simulated cluster while concurrent
// clients run counter, bank, leased, Apply or read-checking workloads, and
// then checks a set of invariants that must hold under ANY failure pattern
// the paper's protocols claim to tolerate.
//
// # The client under test
//
// The nemesis drives pkg/arjuna.Client, the client applications run: Run
// opens the deployment with arjuna.Open, each worker holds its node's
// Client (the run's Scheme and Policy as ClientScheme and ClientPolicy),
// and every action is one Client.Atomic — retries, backoff, lease
// revalidation and all — or, in WorkloadApplyCounter, one Client.Apply,
// whose single server message carries the action's phase one. In
// WorkloadReadOnlyRegister each node also runs a ClientReadOnly reader
// beside its writer, and what its reads return is checked. Faults and store
// checks reach the same nodes via System.World. An action's class is the returned error's and nothing
// else: nil is committed, ErrOutcomeUnknown is uncertain, anything else is
// aborted. So the invariants test the facade's contract — "ErrAborted:
// every effect was undone" — and a breach is a bug in the protocol stack,
// never a reason to widen a class here. Report.Retried and
// Report.LeaseStale count retried actions and revalidation-stopped
// attempts.
//
// # Seeds and schedules
//
// Everything random is derived from Config.Seed:
//
//   - the fault schedule — which nodes crash and when, which node pairs
//     partition, which RPC methods get probabilistic drop / delay /
//     duplicate / reorder rules, and where an in-doubt participant is
//     injected (GenerateSchedule is a pure function of seed and config);
//   - the workload content — which object each client action touches,
//     which accounts a transfer moves money between (per-client sources
//     derived from the seed), and each client's retry-backoff jitter
//     (the facade seeds it from the network seed and the client's name);
//   - the network — jitter and the per-message fault coin flips share the
//     seed (transport.Faults.Reseed).
//
// Goroutine interleaving is NOT controlled, so two runs of the same seed
// may commit different subsets of actions. That is the point: the
// invariants quantify over every interleaving, so a seed that produced a
// violation replays the exact fault plan that found it, which in practice
// reproduces the failure within a few runs. Every failing test prints its
// seed and the one-line reproduce command:
//
//	go test ./internal/chaos -run TestChaos -seed=N -v
//
// # Fault schedule events
//
// Schedules are sequences of events applied when the cluster-wide count
// of finished actions crosses per-event thresholds (so a schedule stays
// meaningful regardless of machine speed). Event kinds: crash-store,
// crash-server, recover-node (runs the §4.1.2/§4.2 recovery protocols),
// partition, heal-all, drop-requests, drop-replies, delay, duplicate
// (idempotent store methods only), reorder, and crash-during-commit — the
// in-doubt injection: the target store node is killed the instant its
// prepare acknowledgement is on the wire, i.e. after it voted commit and
// before it can learn the outcome; the abort-side variant additionally
// loses the acknowledgement so the action aborts instead.
//
// # Disk-backed runs
//
// Setting Config.DataDir (tests pass t.TempDir()) moves every node's
// stable storage onto the internal/storage WAL+snapshot engine. Crashes
// then drop the target's entire process image — recovery must replay
// committed versions and prepared intentions from its directory before
// the in-doubt protocol can resolve anything — and two storage-level
// injections join the schedule: kill-at-byte (the store's WAL tears
// mid-frame once it grows a seeded number of bytes, and the node dies at
// that torn write) and seeded torn-tail corruption (junk appended to a
// crashed store's WAL before it reopens, which open-time truncation must
// shave off without losing anything acknowledged). Only whether DataDir
// is set influences the schedule, never its value, so -seed replays from
// fresh temp directories reproduce the same fault plan. The -backend=disk
// test flag forces every chaos test onto disk storage.
//
// # Invariants
//
// After the workload drains, the harness heals the network, restarts
// every crashed node (restart-time in-doubt resolution queries each
// pending transaction's coordinator via action.OriginLog — presumed abort
// when no record exists), re-runs the store/server recovery protocols,
// sweeps any remaining prepared-but-undecided intentions, and checks:
//
//   - St view consistency: every store in an object's final St view holds
//     the same value and sequence number (the paper's mutual-consistency
//     guarantee for St sets);
//   - conservation / no lost committed updates: for counters, the final
//     value equals the initial value plus the sum of deltas of every
//     action the facade reported committed (bounded above by the few it
//     reported in doubt — see Report.Uncertain); for the bank
//     workload, the total across all accounts is exactly conserved, since
//     transfers are failure-atomic across two participants;
//   - outcome convergence: no store holds a pending intention after the
//     recovery sweep — every in-doubt participant resolved to the logged
//     outcome (or presumed abort);
//   - outcome-log agreement: an action observed committed is never logged
//     aborted, and vice versa;
//   - server quiescence: no object server instance is left with bound
//     users or unresolved prepared state (instances wedged by lost
//     phase-two traffic are restarted and reported in Report.Repairs);
//   - lease-read freshness (leased workloads): a lease-served read never
//     observes a value older than the newest commit acknowledged when it
//     began; a committed MIXED transaction (lease-read A, increment B, one
//     Atomic) never lease-read an A older than the newest acknowledged when
//     its body finished — revalidation must abort it (ErrLeaseStale);
//   - read values (WorkloadReadOnlyRegister): a committed read of a counter
//     key returns no less than the reading node's own increments
//     acknowledged before the read began — writer and reader bind by one
//     rule from one node, so they meet one copy — and no more than the
//     increments anyone had begun, less those already reported aborted; one
//     client's successive reads of a key never decrease; and a committed
//     two-object read of the pair that transfers keep at a constant sum sees
//     that sum — a read-only client's first read is released as it is
//     answered, so this is the commit-time re-check under faults.
//
// # Replaying a failure
//
// Re-run the failing test with -seed=N. The printed Report.Schedule shows
// the fault plan in applied order; Report.Repairs and the per-object
// final values narrow down which invariant broke and where.
//
// # Virtual time
//
// A test binary built with the synctest experiment runs every schedule
// over the in-memory transport inside a testing/synctest bubble:
//
//	GOEXPERIMENT=synctest go test ./internal/chaos
//
// Run needs nothing for it: the deployment, its timers and its fan-out
// pools are all made inside the bubble, whose clock jumps ahead whenever
// every goroutine of the run is blocked, so a nemesis timeout costs no
// wall-clock time and a looped seed runs hundreds of times a minute.
// Runs over the mux transport (-transport=mux) stay on the wall clock: a
// goroutine waiting on a socket never counts as blocked. A bubble fixes
// the clock, not the interleaving, so a seed still does not replay one
// exact schedule, and because timers fire the moment everything blocks,
// lock waits give up sooner relative to the work done: a bubbled seed
// commits fewer of its actions than the same seed on the wall clock.
package chaos
