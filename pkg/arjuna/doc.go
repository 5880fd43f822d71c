// Package arjuna is the public front door to the naming-and-binding
// service for persistent replicated objects reproduced from Little, McCue
// & Shrivastava, "Maintaining Information about Persistent Replicated
// Objects in a Distributed System" (ICDCS '93).
//
// The package assembles a deployment — server nodes, store nodes, client
// nodes, a group view database, and a transport (in-memory simulator or
// real TCP sockets) — behind functional options, and exposes the paper's
// machinery through a context-first, closure-style API:
//
//	sys, err := arjuna.Open(
//		arjuna.WithServers(2),
//		arjuna.WithStores(3),
//	)
//	defer sys.Close()
//
//	cl, err := sys.Client("c1")
//	obj := sys.Objects()[0]
//
//	rep, err := cl.Atomic(ctx, func(tx *arjuna.Txn) error {
//		_, err := tx.Object(obj).Invoke(ctx, "add", []byte("41"))
//		return err
//	})
//
// Atomic runs the whole begin → bind → invoke → commit-or-abort lifecycle
// of one top-level atomic action: the closure's work commits if it returns
// nil and aborts (with all effects undone) if it returns an error, and
// transient lock refusals (§4.2.1 of the paper) are retried with bounded
// backoff. Failure anatomy — which server bindings broke, which store
// nodes were excluded from the St view at commit — is reported through the
// returned CommitReport, and failures are classified by the package's
// typed error taxonomy (ErrLockRefused, ErrUnknownObject, ErrNoServers,
// ErrAborted, …) so callers use errors.Is / errors.As instead of string
// matching.
//
// # The outcome contract
//
// Atomic's returned error alone says which of three things happened:
//
//   - nil: the action committed; its effects are permanent.
//   - ErrOutcomeUnknown (never with ErrAborted): the commit ended in doubt
//     — its effects may stand — and was not retried, since a retry could
//     apply them twice. Client.Apply also answers so when the one request
//     that ran its operation lost its reply: the operation ran at most once
//     and may have committed, its result is gone, and the report's Committed
//     field says whether commit processing could establish that it did.
//   - anything else: ErrAborted plus the classified cause; every effect of
//     every attempt was undone.
//
// The chaos suite (internal/chaos) holds the client to exactly this under
// crashes, partitions and lost messages: its workers are Clients, each
// action is filed under the class its error names, and conservation lets a
// counter exceed the committed increments only by those reported in doubt.
//
// # Read-only commit semantics
//
// Commit processing runs a voting two-phase commit with the §4.1.2 read
// optimisation: a participant that only read votes read-only at prepare
// time, releases its locks and use counts right there, and takes no
// part in phase two. An action all of whose participants voted
// read-only therefore commits with zero phase-two round trips and no
// outcome-log write (presumed abort makes the record redundant), and an
// action of a single object writing through at most one store commits in
// one combined prepare+commit round. The CommitReport's vote anatomy
// shows which of these fired: ReadOnlyVoters / CommitVoters count the
// phase-one votes, one per object, OnePhase marks the combined round, and
// OutcomeLogged reports whether a commit record was written at all.
// Pair ClientReadOnly (no use-list updates; bound where the writers' copy
// is) with read-only methods to keep the entire action — binding,
// invocation and commitment — on shared read locks and single rounds.
//
// For such a client the read-only vote does not wait to be asked for. It
// cannot write, so when a read is the first thing its action asks of any
// server, the request carries the vote — the unsolicited read-only vote of
// R*: the server runs the method, releases the action and reports the
// version it read, all in the one request, and commit processing answers
// from that record. And the bind leaves nothing at the database: the first
// object such an action binds is bound unpinned — its St view read joins the
// bind action — because for an action of one object, which copies nothing
// back, the St read lock guards nothing. A single-read action is two
// messages (bind, invoke; four before) and holds its read lock for the
// method, not for a client round trip. An action that goes on to a second
// object first pins the first (one GetView under the client action, one more
// database message, released with the action) and binds the rest pinned; a
// pin that finds the object rebalanced away fails the attempt with
// ErrLeaseStale. The action may still go on: its first read then stands
// with no lock behind it, exactly as a read served from a lease does, and the
// rule below for leased reads in mixed actions covers it — before commit the
// object's read lock is taken again and the version compared (one message
// more than holding the lock throughout would have cost); a mismatch aborts
// the attempt with ErrLeaseStale, and the retry carries nothing: its reads
// hold their server locks until it ends. (Its first bind is unpinned like
// any other's, and pinned when it reaches the second object.) A retry never
// carries, a client that may write never carries
// (its read-then-write actions would pay the re-check every time), a client
// with a lease cache never carries (the cache serves its reads), and neither
// does active replication or a binding that found a candidate server dead.
//
// # Cached read leases
//
// WithReadLeases(ttl) takes the read-only fast path one step further:
// it removes the round trips entirely. Object servers attach a leased
// snapshot of the object — state, version, TTL — to read-path
// invocations; every client node keeps the snapshots in a shared lease
// cache (with a small per-client L1 on top); and an Atomic whose body
// performs only read-only methods on lease-valid objects completes with
// ZERO RPCs and zero lock-manager traffic. The guarantee is the usual
// lease one: a snapshot is served only while its lease is valid, and no
// commit that supersedes a leased version is acknowledged to its writer
// until every lease on the old version is invalidated — delivered over
// the same ordered multicast that carries group state — or has provably
// expired. A read served from the cache is therefore never staler than
// the last acknowledged commit; what is given up is only the exclusion
// a server-side read lock would add, which a read-only action does not
// need. An Atomic that MIXES leased reads with server-side work gets
// that exclusion back at commit time: each leased read is revalidated
// through its server under the action's read lock (one extra RPC per
// leased object), and a version mismatch aborts with ErrLeaseStale and
// retries through the servers — so mixed transactions serialize exactly
// as if every read had gone to the servers, and the zero-RPC fast path
// is reserved for the all-read case that needs no locks at all.
// CommitReport.LeaseReads counts the invocations an action served
// from cache, and System.LeaseStats exposes the deployment-wide per-tier
// hit rates and grant/invalidation/waitout counters.
//
// Expiry and invalidation are the two ways a cached lease dies, and
// they are deliberately asymmetric. Invalidation is the fast, common
// path: a commit that advances a leased object's version multicasts an
// invalidation to the holders it knows and proceeds as soon as delivery
// is confirmed. Expiry is the backstop: when a holder cannot be reached
// (crashed, partitioned), the committing server waits out the lease
// clock — bounded by the grants it actually issued, at worst 2×TTL —
// before the commit is acknowledged, so an unreachable holder delays
// that one writer but never breaks the guarantee. Client clocks are
// never trusted: a client computes its cached expiry from an instant
// taken BEFORE its request was sent, so the cache's view of a lease is
// always at least as conservative as the granting server's.
//
// The costs, so they are not discovered in production: (1) the first
// version-advancing commit after an object-server instance activates
// pays a one-time 2×TTL wait — a freshly activated server cannot yet
// know which leases a predecessor granted, so it assumes the worst;
// later commits invalidate eagerly and pay nothing unless a holder is
// unreachable. (2) A grant against a long-idle instance triggers a
// store probe (a majority of stores must confirm the server still holds
// the latest committed version) before the server will vouch for its
// snapshot; the probe costs one store round trip on that read and
// refuses the grant — falling back to plain server reads — if the
// stores have moved on. (3) When a granting view-primary fails during
// phase two of a commit, the committing CLIENT waits out 2×TTL before
// Atomic returns: the commit is durable, but nobody is left to confirm
// the fence, so the acknowledgement is delayed until every lease the
// primary could have granted has expired. (4) Rebalance fences the
// source shard's leases before the move commits; the one residual race
// is a source server that is partitioned away at move time — its
// grants cannot be fenced or waited out by the target, so a holder may
// serve the pre-move state for up to its remaining TTL. Choose the TTL
// accordingly: long enough to amortise a read-heavy working set,
// short enough that a 2×TTL waitout is an acceptable worst-case commit
// delay.
//
// Leases apply under single-copy passive replication (the policy where
// a single view-primary serves reads and can therefore vouch for, and
// later invalidate, every grant); other policies ignore the option.
//
// # Commutative operations and hot-key batching
//
// A class may declare methods Commutative: applying any set of them in
// any order yields the same final state (a counter's "add" is the
// canonical case). Every method marked commutative must commute with
// every other marked method of its class, not just with itself.
// Client.Apply exploits the declaration: it runs a single-operation
// action whose invocation is declared the action's entire write set, and
// when the object's write lock is already held, the server folds the
// operation into the current holder's commit round instead of queueing
// for the lock (flat combining). N contending writers then cost one lock
// wait and one two-phase commit instead of N of each — the folded
// operations are applied after the leader's pre-write snapshot, so the
// leader's abort undoes the whole batch and atomicity is preserved. The
// CommitReport's Batched/BatchSize fields report when a write rode
// another action's commit; semantically the result is identical to an
// un-batched Atomic, only cheaper.
//
// The same declaration makes Apply one server message for any method,
// commutative or not: an action that will do nothing else has nothing to
// wait for between its operation and its vote, so the server goes straight
// on from the method into the action's phase one — the combined
// prepare+commit when the write-back lands on one store, the prepare
// otherwise — and the reply brings the vote back with the result. A
// committed Apply is bind, invoke, action-end (and a Commit message when
// several stores hold the object); the write lock is held for the commit,
// not for a client round trip besides; and a lock holder folds its queued
// followers in the request that made it the holder. Atomic with Invoke
// sends the messages it always sent.
//
// # Hot keys and backpressure
//
// An object's lock queue is not bounded: a waiter stays queued until it is
// granted, in strict FIFO order (no barging), or its caller's context
// ends, as the paper's locks do (§4.1, §4.2.1). Three valves keep a hot
// object's queue short instead — flat combining, above, is the first. The
// CommitReport's QueueWait field exposes the wait a call experienced.
//
// ErrOverloaded has one source: over the socket transport
// (transport.NewTCPMux) a connection that already has its cap of calls
// awaiting replies refuses the next one before sending it. Atomic and
// Apply treat that — like ErrLockRefused — as retryable, sleeping a
// capped, jittered exponential backoff between attempts so refused
// clients spread out instead of re-colliding; the CommitReport's
// Overloads field counts the refusals.
//
// ClientFastBind is the second valve. It applies the paper's §4.2.1
// type-specific locking to the bind action itself: the group view is
// read under a shared lock and the use-count bump takes a commutative
// Adjust lock that other binders and readers share, so binds to a hot
// object stop convoying behind one another's exclusive bind window (the
// exclusive repair pass still runs whenever a binding finds failed
// servers). Either way a binding costs two messages to the group view
// database — one reads Sv and St and counts the binding into the use lists
// of the servers the selection rule picks, the other ends the action and
// counts it out again — and each of the two use-count commits rewrites one
// database entry, whatever the number of objects. No message goes to an
// object server at bind time under single-copy passive replication: the
// binding's first invocation carries the class and the St view, activates
// the object where it lands, and is the probe that discovers a dead server
// "the hard way" — it moves on to the next candidate when the request
// provably never ran, and aborts the action when it may have.
// WithAdmission(n) is the third, outermost valve: it caps how many
// top-level Atomic actions are in flight across the whole deployment,
// parking surplus callers cheaply at the gate — before any bind, lock or
// commit work — instead of letting offered concurrency beyond the
// deployment's efficient operating point thrash the machinery into
// negative scaling.
//
// The three database access schemes of §4 (standard, independent
// top-level, nested top-level) and the three replication policies of §2.3
// (single-copy passive, active, coordinator-cohort) are selected per
// system or per client via options; Crash/Recover drive the §4.1.2/§4.2
// failure and recovery protocols for whole nodes.
//
// # Sharding
//
// WithShards(n) splits the deployment into n independent groups, each
// with its own group view database and its own server and store nodes,
// under a placement service that maps every object UID to a shard:
//
//	sys, err := arjuna.Open(
//		arjuna.WithShards(3),
//		arjuna.WithServers(2), // per shard
//		arjuna.WithStores(2),  // per shard
//	)
//
// Placement is consistent hashing over the shard set plus a directory of
// explicit overrides — the paper's §5 observation (naming data needs no
// atomic discipline because binding failures are detected and retried)
// applied one level up, to the object→group map itself. Clients resolve
// and cache placements transparently inside Atomic. Every client binds
// through one placement binder whose settings (scheme, policy, degree, the
// read optimisation) are copied whole into the binder of each shard it
// reaches; a one-group deployment binds through it too, over a one-row
// table that resolves without a message. An action touching objects of
// one shard keeps the one-phase and all-read-only fast paths, while an
// action spanning shards enlists participants from several groups under
// one coordinator and commits through the same voting two-phase protocol.
//
// System.Rebalance(ctx, id, shard) migrates an object between shards
// using the §4.2 catch-up machinery (deregister once quiescent, install
// the latest committed state at the target group, re-register, flip the
// placement override). Each override bumps the object's placement epoch;
// a client that cached the stale shard discovers the move on its next
// bind (unknown-object from the old group), re-resolves, and retries
// against the new shard — it can never commit against the old one,
// because the old group no longer registers the object.
//
// # Failure resilience
//
// Every node carries a per-peer circuit breaker in its RPC client:
// breakers are always on, and WithBreakerConfig tunes them. A breaker
// trips after Threshold transport-level failures in a sliding Window
// of calls to one peer; while open, further calls to
// that peer fail locally and immediately with ErrPeerUnavailable
// instead of burning another transport timeout — so a sick node costs
// the deployment one timeout per caller, not one per call. A fast-fail
// still satisfies errors.Is(err, ErrUnreachable), so the §4.1.2/§4.2
// exclusion-and-repair machinery fires on it exactly as on a real
// transport failure; Atomic treats it as retryable with a longer
// backoff class than lock conflicts (the peer needs recovery, not a
// few milliseconds of spacing), and the CommitReport's BreakerSkipped
// field names the peers an attempt skipped, marking the action as
// having run in degraded mode. After a Cooldown the breaker goes
// half-open and admits exactly one probe; a successful probe — or the
// peer's Recover, or a healed partition — closes it.
//
// There is no heartbeat service: as in the paper (§4.1), a failure is
// discovered by the call that fails. System.Status reports each node's
// liveness and incarnation epoch, System.BreakerStats every breaker's
// state.
//
// In sharded deployments the placement service itself runs three
// replicas: writes go through the primary
// replica and are pushed synchronously to the others with per-object
// epoch fencing, so a replayed or reordered update can never regress
// the directory; clients read from any replica and fail over — fast,
// when a breaker is already open — so any single replica death leaves
// bind and re-bind live. A replica that missed updates while crashed
// pulls the full directory from the primary on recovery. Stale reads
// are safe end to end: a client acting on an outdated mapping gets
// unknown-object from the wrong group, re-resolves and retries, exactly
// as with a stale cached placement.
//
// # Stable storage
//
// By default every node's "stable" store is in memory: it survives the
// simulated Crash/Recover cycle but dies with the process. WithDataDir
// turns it into real stable storage:
//
//	sys, err := arjuna.Open(
//		arjuna.WithStores(3),
//		arjuna.WithDataDir("/var/lib/arjuna"),
//	)
//
// Each node then owns a directory under the data dir holding an
// append-only, CRC-checked WAL plus a periodic snapshot (see
// internal/storage). Committed object versions, prepared 2PC intentions
// and the coordinators' commit records are fsynced at their protocol
// commit points — group commit coalesces concurrent fsyncs by default
// (WithDiskOptions tunes this). Crash drops the node's entire process
// state; Recover replays the directory, truncating any torn WAL tail,
// and resolves replayed in-doubt intentions against the coordinators'
// logs before rejoining the St views. Opening a new deployment on an
// existing data dir resumes from the stored state.
package arjuna
