// Package harness assembles full simulated deployments — cluster, group
// view database, object servers, stores, client nodes, registered objects
// — and builds the one binder clients bind through (World.Binder). It is
// deployment assembly only: the one client that runs actions on a World
// is pkg/arjuna.Client, which the fault tests and the benchmarks drive
// like any application does; the experiments that drive a binding
// directly bind through the same World.Binder.
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
	// (db1..dbS); an object's home group is its shard on a consistent-hash
	// ring over the groups (package placement). 0 or 1 is one group (node
	// "db") and a one-row placement table.
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
	// Breakers tunes the per-peer circuit breakers every node gets (zero
	// fields take the rpc package defaults).
	Breakers rpc.BreakerConfig
	// LeaseTTL, when positive, enables cached read leases: every object
	// server grants leased read snapshots with this TTL, and every client
	// node gets a shared lease cache (World.LeaseCaches) whose mailbox
	// receives invalidations. Binders built by the world then request
	// leases on read-path invocations.
	LeaseTTL time.Duration
}

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
	// table is the placement table, one row per group, and ring the
	// consistent-hash ring over its shard IDs (nil with one group), that
	// every placement client is built over.
	table []placement.ShardInfo
	ring  *placement.Ring
	// NameServer, when set, names the node running the §5 extension's
	// non-atomic name server (core.NewNameServer): binders built from then
	// on read and repair Sv there, not in the database (E12; one group).
	NameServer transport.Addr

	// ends is the set of every binder Binder built, for FlushEnds.
	ends core.Ends
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
	w.Cluster.SetBreakers(opts.Breakers)
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
	ids := make([]int, len(w.Groups))
	for i, g := range w.Groups {
		w.table = append(w.table, placement.ShardInfo{ID: g.ID, DB: g.DB.Addr(), Svs: g.Svs, Sts: g.Sts})
		ids[i] = g.ID
	}
	if shards > 1 {
		w.ring = placement.NewRing(ids, 0)
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
			// The client node's group host carries the lease mailbox,
			// where committing servers send lease holders invalidations.
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
		if err := core.CreateObject(context.Background(), creator, id, "counter", []byte("0"), g.Svs, g.Sts); err != nil {
			return nil, fmt.Errorf("harness: create object %d: %w", i, err)
		}
		w.Objects = append(w.Objects, id)
	}
	return w, nil
}

// GroupOf returns the group an object currently lives in (the only group,
// when unsharded): its home on the ring, or where the forwards the group
// view databases hold lead from there, read in process, at most one hop per
// group as a binder's follow takes (placement.Client.Follow).
func (w *World) GroupOf(id uid.UID) *Group {
	if w.ring == nil {
		return &w.Groups[0]
	}
	g := &w.Groups[w.ring.Lookup(id.String())-1]
	for range w.Groups {
		to := g.DB.Forward(id)
		if to == "" {
			break
		}
		g = w.GroupFor(to)
	}
	return g
}

// GroupFor returns the group a node belongs to (its database, server or
// store set), or the first group for nodes outside any (clients).
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
// migration action (placement.Move), using the first client node as the
// coordinator. On one group every object is already at shard 1, so a move
// there is a no-op, and any other target is an unknown shard.
func (w *World) RebalanceBatch(ctx context.Context, ids []uid.UID, target int) error {
	// Deregister waits for quiescence. An end whose flush failed leaves
	// the move refused, and retried, as any other user of the object does.
	_ = w.FlushEnds(ctx)
	client := w.Clients[0]
	pc := placement.NewClient(w.table, w.ring)
	return placement.Move(ctx, pc, w.Mgrs[client], w.Cluster.Node(client).Client(), ids, target, w.leaseTTL > 0)
}

// leaseHolderFor names the client as a lease holder when the world runs
// with leases enabled (the client node then has a cache to hold them).
func (w *World) leaseHolderFor(client transport.Addr) transport.Addr {
	if _, ok := w.LeaseCaches[client]; ok {
		return client
	}
	return ""
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

// Binder builds the one binder a client binds through: a placement
// binder over the world's placement table (one row with one group,
// resolved without a message). pkg/arjuna's clients, the experiments and
// the benchmark's probes all bind through it.
func (w *World) Binder(client transport.Addr, scheme core.Scheme, policy replica.Policy, degree int) *placement.Binder {
	rpcc := w.Cluster.Node(client).Client()
	b := &placement.Binder{
		BindConfig: core.BindConfig{
			Actions:     w.Mgrs[client],
			ClientNode:  client,
			Scheme:      scheme,
			Policy:      policy,
			Degree:      degree,
			LeaseHolder: w.leaseHolderFor(client),
			LeaseTTL:    w.leaseTTL,
			Ends:        &w.ends,
		},
		Place: placement.NewClient(w.table, w.ring),
		RPC:   rpcc,
	}
	if w.NameServer != "" {
		b.NameServer = &core.NSClient{RPC: rpcc, Node: w.NameServer}
	}
	return b
}

// FlushEnds sends the pending action-ends of every binder Binder built
// (core.Ends.Flush), and returns the first error. A wait for quiescence in
// the deployment calls it first — a server's or a store's recovery, a
// Move's Deregister — and so does a shutdown.
func (w *World) FlushEnds(ctx context.Context) error { return w.ends.Flush(ctx) }

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
