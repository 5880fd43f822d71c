// Package harness assembles full simulated deployments — cluster, group
// view database, object servers, stores, clients, registered objects — for
// the examples, experiments and benchmarks. It is the reusable "testbed"
// on which every figure of the paper is reproduced.
package harness

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/lease"
	"repro/internal/lockmgr"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// CounterClass returns the canonical test object: a persistent integer
// counter with a read-only "get" and a mutating "add".
func CounterClass() *object.Class {
	return &object.Class{
		Name: "counter",
		Init: func() []byte { return []byte("0") },
		Methods: map[string]object.Method{
			"add": func(state, args []byte) ([]byte, []byte, error) {
				n, err := strconv.Atoi(string(state))
				if err != nil {
					return nil, nil, fmt.Errorf("counter: corrupt state %q", state)
				}
				d, err := strconv.Atoi(string(args))
				if err != nil {
					return nil, nil, fmt.Errorf("counter: bad delta %q", args)
				}
				out := []byte(strconv.Itoa(n + d))
				return out, out, nil
			},
			"get": func(state, args []byte) ([]byte, []byte, error) {
				return state, state, nil
			},
		},
		ReadOnly: map[string]bool{"get": true},
		// Additions commute: the server may fold queued solo adds into one
		// execution and one commit (flat combining).
		Commutative: map[string]bool{"add": true},
	}
}

// Options sizes a World.
type Options struct {
	// Servers, Stores, Clients are node counts (sv1.., st1.., c1..). With
	// Shards > 1 Servers and Stores are PER-SHARD counts; clients are
	// shared across shards.
	Servers int
	Stores  int
	Clients int
	// Shards partitions the deployment into that many independent
	// server/store groups, each with its own group view database
	// (db1..dbS), plus a placement service node mapping objects to groups.
	// 0 or 1 keeps the classic single-group topology (node "db", no
	// placement service) byte-for-byte.
	Shards int
	// Objects is how many counter objects to create (all with full Sv/St).
	Objects int
	// Net configures the in-memory network (latency, jitter, seed).
	Net transport.MemOptions
	// Network, when non-nil, overrides Net with an explicit transport —
	// e.g. transport.NewTCPMux() for a real-socket deployment. Fault
	// injection is available on the default in-memory network and on any
	// carrier wrapped in transport.NewFaulty.
	Network transport.Network
	// Registry overrides the class registry (default: counter only).
	Registry *object.Registry
	// DataDir, when non-empty, switches every node's stable storage to
	// the disk-backed WAL+snapshot engine rooted at DataDir/<node>:
	// committed versions, prepared intentions and the clients' outcome
	// logs all live on disk, a crash drops the node's whole process
	// state, and recovery replays the directory.
	DataDir string
	// Disk tunes the disk engine (sync discipline, compaction
	// threshold); only meaningful with DataDir set.
	Disk storage.DiskOptions
	// LockLimits bounds every object server's per-object lock wait queues
	// (depth cap and wait deadline); the zero value leaves them unbounded.
	LockLimits lockmgr.Limits
	// NoBreakers disables the per-peer circuit breakers that every node
	// otherwise gets by default.
	NoBreakers bool
	// Breakers tunes the circuit breakers (zero fields take the rpc
	// package defaults). Ignored with NoBreakers.
	Breakers rpc.BreakerConfig
	// PlacementReplicas is how many placement service replicas a sharded
	// world runs (nodes "placement", "placement2", ...). 0 selects the
	// default of 3; 1 keeps the classic single placement node.
	PlacementReplicas int
	// LeaseTTL, when positive, enables cached read leases: every object
	// server grants leased read snapshots with this TTL, and every client
	// node gets a shared lease cache (World.LeaseCaches) that receives
	// invalidation multicasts. Binders built by the world then request
	// leases on read-path invocations.
	LeaseTTL time.Duration
}

// DefaultPlacementReplicas is the placement replica count a sharded world
// gets when Options does not choose one.
const DefaultPlacementReplicas = 3

// Group is one shard's server/store group and its group view database.
type Group struct {
	ID  int // 1-based shard ID
	DB  *core.DB
	Svs []transport.Addr
	Sts []transport.Addr
}

// World is an assembled deployment.
type World struct {
	Cluster *sim.Cluster
	// DB is the first (or only) group's database; Svs/Sts concatenate all
	// groups' nodes, so single-group code and whole-deployment sweeps keep
	// working unchanged on sharded worlds.
	DB      *core.DB
	Objects []uid.UID
	Svs     []transport.Addr
	Sts     []transport.Addr
	Clients []transport.Addr
	Mgrs    map[transport.Addr]*action.Manager
	Metrics *metrics.Registry
	// Registry is the class registry every server (and the lease-read
	// fast path) resolves classes against.
	Registry *object.Registry
	// LeaseCaches holds each client node's shared L2 lease cache; empty
	// unless Options.LeaseTTL was set.
	LeaseCaches map[transport.Addr]*lease.Cache
	// leaseTTL echoes Options.LeaseTTL so binders can carry it into
	// commit processing (the phase-two lease-clock waitout).
	leaseTTL time.Duration
	// Groups lists every shard's group; len 1 when unsharded.
	Groups []Group
	// Place is the placement service's primary replica (nil when
	// unsharded).
	Place *placement.Service
	// PlaceAddr is the primary placement node's address.
	PlaceAddr transport.Addr
	// Places lists every placement replica (primary first); len 1 when
	// the world runs a single placement node.
	Places []*placement.Service
	// PlaceAddrs lists every placement node address, primary first.
	PlaceAddrs []transport.Addr
}

// New builds a world: one db node, the requested servers/stores/clients,
// and Options.Objects registered counter objects.
func New(opts Options) (*World, error) {
	if opts.Servers < 1 || opts.Stores < 1 || opts.Clients < 1 {
		return nil, fmt.Errorf("harness: need at least one server, store and client (got %d/%d/%d)",
			opts.Servers, opts.Stores, opts.Clients)
	}
	if opts.Objects < 1 {
		opts.Objects = 1
	}
	reg := opts.Registry
	if reg == nil {
		reg = object.NewRegistry()
		reg.Register(CounterClass())
	}
	net := opts.Network
	if net == nil {
		net = transport.NewMem(opts.Net, nil)
	}
	w := &World{
		Cluster:     sim.NewClusterOn(net),
		Mgrs:        make(map[transport.Addr]*action.Manager),
		Registry:    reg,
		LeaseCaches: make(map[transport.Addr]*lease.Cache),
		leaseTTL:    opts.LeaseTTL,
	}
	// The world shares the cluster's registry, so RPC-layer call counts
	// and latencies land next to whatever the harness records itself.
	w.Metrics = w.Cluster.Metrics()
	if !opts.NoBreakers {
		w.Cluster.SetBreakers(opts.Breakers)
	}
	if opts.DataDir != "" {
		dataDir, disk := opts.DataDir, opts.Disk
		w.Cluster.SetStorage(func(name transport.Addr) storage.Factory {
			return storage.DiskFactory(filepath.Join(dataDir, string(name)), disk)
		})
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	if shards == 1 {
		w.Groups = []Group{{ID: 1, DB: core.NewDB(w.Cluster.Add("db"))}}
	} else {
		for s := 1; s <= shards; s++ {
			w.Groups = append(w.Groups, Group{ID: s, DB: core.NewDB(w.Cluster.Add(transport.Addr("db" + strconv.Itoa(s))))})
		}
	}
	w.DB = w.Groups[0].DB
	for i := 0; i < shards*opts.Servers; i++ {
		name := transport.Addr("sv" + strconv.Itoa(i+1))
		n := w.Cluster.Add(name)
		m := object.NewManager(n, reg)
		m.SetLockLimits(opts.LockLimits)
		m.EnableGroupInvocation(group.NewHost(n.Server(), n.Client()))
		if opts.LeaseTTL > 0 {
			m.EnableLeases(opts.LeaseTTL)
		}
		w.Svs = append(w.Svs, name)
		g := &w.Groups[i/opts.Servers]
		g.Svs = append(g.Svs, name)
	}
	for i := 0; i < shards*opts.Stores; i++ {
		name := transport.Addr("st" + strconv.Itoa(i+1))
		w.Cluster.Add(name)
		w.Sts = append(w.Sts, name)
		g := &w.Groups[i/opts.Stores]
		g.Sts = append(g.Sts, name)
	}
	if shards > 1 {
		replicas := opts.PlacementReplicas
		if replicas <= 0 {
			replicas = DefaultPlacementReplicas
		}
		nodes := make([]*sim.Node, replicas)
		for i := range nodes {
			name := transport.Addr("placement")
			if i > 0 {
				name = transport.Addr("placement" + strconv.Itoa(i+1))
			}
			nodes[i] = w.Cluster.Add(name)
			w.PlaceAddrs = append(w.PlaceAddrs, name)
		}
		infos := make([]placement.ShardInfo, len(w.Groups))
		for i, g := range w.Groups {
			infos[i] = placement.ShardInfo{ID: g.ID, DB: g.DB.Addr(), Svs: g.Svs, Sts: g.Sts}
		}
		w.Places = placement.NewReplicatedGroup(nodes, infos)
		w.Place = w.Places[0]
		w.PlaceAddr = w.PlaceAddrs[0]
	}
	for i := 0; i < opts.Clients; i++ {
		name := transport.Addr("c" + strconv.Itoa(i+1))
		n := w.Cluster.Add(name)
		// The coordinator's outcome log shares the client node's stable
		// storage backend: with DataDir set, commit records are on disk in
		// the client's own directory; otherwise they live in the node's
		// in-memory backend exactly as before. Resolved per call so the
		// log follows the backend across a crash/reopen cycle.
		w.Mgrs[name] = action.NewManager(string(name), action.NewBackendLogFunc(n.Store().Backend))
		// The client is the 2PC coordinator for its actions; its outcome
		// log must answer recovery-time queries from restarting
		// participants (presumed abort: no record means abort — but an
		// action still inside commit processing answers "unavailable",
		// which is why the manager, not the raw log, serves lookups).
		action.RegisterLogService(n.Server(), w.Mgrs[name])
		if opts.LeaseTTL > 0 {
			// The client node's group host receives the invalidation
			// multicasts committing servers send to lease holders.
			w.LeaseCaches[name] = lease.NewCache(group.NewHost(n.Server(), n.Client()), w.Metrics)
		}
		w.Clients = append(w.Clients, name)
	}
	// Recovering nodes resolve in-doubt intentions by asking the
	// transaction's coordinator, identified by the action ID's origin —
	// which, by the manager construction above, is the client's address.
	w.Cluster.SetOutcomeResolver(func(n *sim.Node) store.OutcomeLog {
		return w.OutcomeLogFor(n)
	})
	rpcc := w.Cluster.Node(w.Clients[0]).Client()
	gen := uid.NewGenerator("obj", 1)
	for i := 0; i < opts.Objects; i++ {
		id := gen.New()
		g := w.GroupOf(id)
		creator := core.Client{RPC: rpcc, DB: g.DB.Addr()}
		if err := core.CreateObject(context.Background(), creator, w.Mgrs[w.Clients[0]], id, "counter", []byte("0"), g.Svs, g.Sts); err != nil {
			return nil, fmt.Errorf("harness: create object %d: %w", i, err)
		}
		w.Objects = append(w.Objects, id)
	}
	return w, nil
}

// Sharded reports whether the world has more than one group.
func (w *World) Sharded() bool { return w.Place != nil }

// GroupOf returns the group an object currently lives in, per the
// placement service (the only group, when unsharded).
func (w *World) GroupOf(id uid.UID) *Group {
	if w.Place == nil {
		return &w.Groups[0]
	}
	shard, _ := w.Place.Lookup(id)
	return &w.Groups[shard-1]
}

// GroupFor returns the group a node belongs to (its database, server or
// store set), or the first group for nodes outside any (clients, the
// placement node).
func (w *World) GroupFor(node transport.Addr) *Group {
	for i := range w.Groups {
		g := &w.Groups[i]
		if g.DB.Addr() == node {
			return g
		}
		for _, sv := range g.Svs {
			if sv == node {
				return g
			}
		}
		for _, st := range g.Sts {
			if st == node {
				return g
			}
		}
	}
	return &w.Groups[0]
}

// Rebalance moves an object to the target shard (1-based), using the
// first client node as the migration coordinator.
func (w *World) Rebalance(ctx context.Context, id uid.UID, target int) error {
	return w.RebalanceBatch(ctx, []uid.UID{id}, target)
}

// RebalanceBatch moves a batch of objects to the target shard under one
// migration action and one placement epoch bump per object (a single
// AssignBatch round), using the first client node as the coordinator.
func (w *World) RebalanceBatch(ctx context.Context, ids []uid.UID, target int) error {
	if w.Place == nil {
		return fmt.Errorf("harness: Rebalance requires a sharded world")
	}
	client := w.Clients[0]
	pc := placement.NewClient(w.Cluster.Node(client).Client(), w.PlaceAddrs...)
	return placement.Move(ctx, pc, w.Mgrs[client], w.Cluster.Node(client).Client(), ids, target, w.leaseTTL > 0)
}

// ShardBinder builds a shard-aware binder for the named client. Requires
// a sharded world.
func (w *World) ShardBinder(client transport.Addr, scheme core.Scheme, policy replica.Policy, degree int) *placement.Binder {
	if w.Place == nil {
		panic("harness: ShardBinder requires a sharded world")
	}
	rpcc := w.Cluster.Node(client).Client()
	return &placement.Binder{
		Place:       placement.NewClient(rpcc, w.PlaceAddrs...),
		Actions:     w.Mgrs[client],
		ClientNode:  client,
		RPC:         rpcc,
		Scheme:      scheme,
		Policy:      policy,
		Degree:      degree,
		LeaseHolder: w.leaseHolderFor(client),
		LeaseTTL:    w.leaseTTL,
	}
}

// leaseHolderFor names the client as a lease holder when the world runs
// with leases enabled (the client node then has a cache to hold them).
func (w *World) leaseHolderFor(client transport.Addr) transport.Addr {
	if _, ok := w.LeaseCaches[client]; ok {
		return client
	}
	return ""
}

// LeaseLocal builds a per-client L1 lease cache over the client node's
// shared L2. Requires Options.LeaseTTL to have been set.
func (w *World) LeaseLocal(client transport.Addr, capacity int) *lease.Local {
	c, ok := w.LeaseCaches[client]
	if !ok {
		panic("harness: LeaseLocal requires Options.LeaseTTL")
	}
	return lease.NewLocal(c, capacity)
}

// AnyBinder returns the natural binder for the world: shard-aware when
// sharded, the classic single-group binder otherwise.
func (w *World) AnyBinder(client transport.Addr, scheme core.Scheme, policy replica.Policy, degree int) core.ActionBinder {
	if w.Sharded() {
		return w.ShardBinder(client, scheme, policy, degree)
	}
	return w.Binder(client, scheme, policy, degree)
}

// OutcomeLogFor returns the recovery-time outcome log a node (or a
// restart-equivalent sweep on its behalf) should resolve pending
// intentions against: transaction origins route to the coordinating
// client's outcome-log service; origins that name no client yield the
// affirmative no-record answer (presumed abort).
func (w *World) OutcomeLogFor(n *sim.Node) store.OutcomeLog {
	return action.OriginLog{
		Client: n.Client(),
		Resolve: func(origin string) (transport.Addr, bool) {
			a := transport.Addr(origin)
			_, ok := w.Mgrs[a]
			return a, ok
		},
	}
}

// Binder builds a binder for the named client.
func (w *World) Binder(client transport.Addr, scheme core.Scheme, policy replica.Policy, degree int) *core.Binder {
	return &core.Binder{
		DB:          core.Client{RPC: w.Cluster.Node(client).Client(), DB: "db"},
		Actions:     w.Mgrs[client],
		ClientNode:  client,
		Scheme:      scheme,
		Policy:      policy,
		Degree:      degree,
		LeaseHolder: w.leaseHolderFor(client),
		LeaseTTL:    w.leaseTTL,
	}
}

// ActionResult describes one workload action.
type ActionResult struct {
	Committed bool
	Err       error
	// Tx is the action's identifier — the key recovery-time outcome
	// queries are made under.
	Tx string
	// CommitFailed distinguishes a failure of Commit itself from a
	// bind/invoke failure (which the runner resolved by aborting): only a
	// failed Commit can leave the outcome genuinely unobservable when the
	// caller's context died mid-protocol.
	CommitFailed bool
	// Result is the (first) invocation's reply, e.g. the counter value
	// after an add — workload checkers use it as an ordering breadcrumb.
	Result []byte
	// Probes counts server bindings that were found broken during the
	// action ("the hard way" discovery cost).
	Probes int
	// ExcludedStores counts St nodes excluded at commit.
	ExcludedStores int
	// OnePhase reports that the commit took the single-participant
	// combined round (no outcome-log record).
	OnePhase bool
	// PreparedStores lists the St nodes that held the action's prepared
	// (or one-phase committed) writes — the chaos harness's chain-fork
	// breadcrumb.
	PreparedStores []transport.Addr
	// Leased reports that a read was served entirely from the local
	// lease cache — zero RPCs, zero lock-manager traffic.
	Leased bool
}

// RunCounterAction executes one client action against object idx: bind,
// add delta, commit. Errors abort the action and are reported in the
// result rather than returned — workload drivers count them.
func (w *World) RunCounterAction(ctx context.Context, b core.ActionBinder, idx int, delta int) ActionResult {
	act := b.BeginTop()
	res := ActionResult{Tx: act.ID()}
	bd, err := b.Bind(ctx, act, w.Objects[idx])
	if err != nil {
		_ = act.Abort(ctx)
		res.Err = err
		return res
	}
	out, err := bd.Invoke(ctx, "add", []byte(strconv.Itoa(delta)))
	if err != nil {
		_ = act.Abort(ctx)
		res.Err = err
		res.Probes = len(bd.BrokenServers())
		return res
	}
	res.Result = out
	rep, err := act.Commit(ctx)
	if err != nil {
		res.Err = err
		res.CommitFailed = true
		res.Probes = len(bd.BrokenServers())
		return res
	}
	res.Committed = true
	res.OnePhase = rep.OnePhase
	res.Probes = len(bd.BrokenServers())
	res.ExcludedStores = len(bd.FailedStores())
	res.PreparedStores = bd.PreparedStores()
	return res
}

// RunTransferAction executes one bank-style transfer: a single action
// binds objects from and to, subtracts amount from the first and adds it
// to the second. Both bindings are participants of one top-level action,
// so the transfer is failure-atomic across the two objects — the
// conservation workload of the chaos harness.
func (w *World) RunTransferAction(ctx context.Context, b core.ActionBinder, from, to int, amount int) ActionResult {
	act := b.BeginTop()
	res := ActionResult{Tx: act.ID()}
	abort := func(err error) ActionResult {
		_ = act.Abort(ctx)
		res.Err = err
		return res
	}
	bdFrom, err := b.Bind(ctx, act, w.Objects[from])
	if err != nil {
		return abort(err)
	}
	bdTo, err := b.Bind(ctx, act, w.Objects[to])
	if err != nil {
		return abort(err)
	}
	out, err := bdFrom.Invoke(ctx, "add", []byte(strconv.Itoa(-amount)))
	if err != nil {
		return abort(err)
	}
	res.Result = out
	if _, err := bdTo.Invoke(ctx, "add", []byte(strconv.Itoa(amount))); err != nil {
		return abort(err)
	}
	if _, err := act.Commit(ctx); err != nil {
		res.Err = err
		res.CommitFailed = true
		return res
	}
	res.Committed = true
	res.ExcludedStores = len(bdFrom.FailedStores()) + len(bdTo.FailedStores())
	return res
}

// RunReadAction executes one read-only action (get) against object idx.
func (w *World) RunReadAction(ctx context.Context, b core.ActionBinder, idx int) ActionResult {
	act := b.BeginTop()
	bd, err := b.Bind(ctx, act, w.Objects[idx])
	if err != nil {
		_ = act.Abort(ctx)
		return ActionResult{Err: err}
	}
	if _, err := bd.Invoke(ctx, "get", nil); err != nil {
		_ = act.Abort(ctx)
		return ActionResult{Err: err, Probes: len(bd.BrokenServers())}
	}
	if _, err := act.Commit(ctx); err != nil {
		return ActionResult{Err: err, Probes: len(bd.BrokenServers())}
	}
	return ActionResult{Committed: true, Probes: len(bd.BrokenServers())}
}

// RunLeasedReadAction executes one read of object idx that may be served
// from the client's lease cache: while a valid lease is held the read
// runs the class's read-only "get" locally on the cached snapshot, with
// zero RPCs. On a miss it falls back to a regular read-only action whose
// invocation requests a fresh lease, and caches any grant.
func (w *World) RunLeasedReadAction(ctx context.Context, b core.ActionBinder, lc *lease.Local, idx int) ActionResult {
	id := w.Objects[idx]
	if e, ok := lc.Get(id, time.Now()); ok {
		if cls, err := w.Registry.Lookup(e.Snap.Class); err == nil && cls.IsReadOnly("get") {
			if fn, err := cls.Method("get"); err == nil {
				if _, out, err := fn(e.Snap.State, nil); err == nil {
					return ActionResult{Committed: true, Leased: true, Result: out}
				}
			}
		}
	}
	// Miss (or an unexpected class/method problem): take the slow path.
	// The grant's client-side expiry is measured from BEFORE the invoke
	// is sent, so it is conservative under any clock relation.
	t0 := time.Now()
	act := b.BeginTop()
	res := ActionResult{Tx: act.ID()}
	bd, err := b.Bind(ctx, act, id)
	if err != nil {
		_ = act.Abort(ctx)
		res.Err = err
		return res
	}
	out, err := bd.Invoke(ctx, "get", nil)
	if err != nil {
		_ = act.Abort(ctx)
		res.Err = err
		return res
	}
	res.Result = out
	if g, ok := bd.LeaseGrant(); ok {
		lc.Put(lease.Snapshot{UID: id, Class: g.Class, State: g.State, Seq: g.Seq, Expiry: t0.Add(g.TTL)})
	}
	if _, err := act.Commit(ctx); err != nil {
		res.Err = err
		res.CommitFailed = true
		return res
	}
	res.Committed = true
	return res
}

// StoreSeqs returns each live store node's committed (value, seq) for
// object idx; missing entries are skipped. Used by consistency checks.
func (w *World) StoreSeqs(idx int) map[transport.Addr]uint64 {
	out := make(map[transport.Addr]uint64)
	for _, st := range w.Sts {
		n := w.Cluster.Node(st)
		if seq, ok := n.Store().SeqOf(w.Objects[idx]); ok {
			out[st] = seq
		}
	}
	return out
}

// CurrentStView reads St for object idx outside any client action,
// against the object's own group database.
func (w *World) CurrentStView(ctx context.Context, idx int) ([]transport.Addr, error) {
	cli := core.Client{RPC: w.Cluster.Node("c1").Client(), DB: w.GroupOf(w.Objects[idx]).DB.Addr()}
	act := w.Mgrs["c1"].BeginTop()
	st, _, err := cli.GetView(ctx, act.ID(), w.Objects[idx])
	_ = cli.EndAction(ctx, act.ID(), true)
	_, _ = act.Commit(ctx)
	return st, err
}

// CurrentSvView reads Sv for object idx outside any client action,
// against the object's own group database.
func (w *World) CurrentSvView(ctx context.Context, idx int) ([]transport.Addr, error) {
	cli := core.Client{RPC: w.Cluster.Node("c1").Client(), DB: w.GroupOf(w.Objects[idx]).DB.Addr()}
	act := w.Mgrs["c1"].BeginTop()
	sv, _, err := cli.GetServer(ctx, act.ID(), w.Objects[idx], false, false)
	_ = cli.EndAction(ctx, act.ID(), true)
	_, _ = act.Commit(ctx)
	return sv, err
}
