package arjuna

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/lease"
	"repro/internal/transport"
	"repro/internal/uid"
)

// System is one assembled deployment: a group view database node, server
// nodes, store nodes, and client nodes on a common transport. It is the
// only constructor of the underlying harness/binder machinery — all
// application code goes through System and the Clients it hands out.
type System struct {
	cfg config
	w   *harness.World

	// janitors sweep use-lists: one per group view database.
	janitors []*core.Janitor
	gen      *uid.Generator
	// admit, when non-nil, is the WithAdmission gate: a slot must be held
	// for the duration of every top-level Atomic.
	admit chan struct{}

	mu      sync.Mutex
	created []uid.UID
	closed  bool
}

// Open assembles a deployment from functional options and returns it
// ready for use: nodes up, classes registered, and the configured number
// of counter objects created and registered in the group view database.
func Open(opts ...Option) (*System, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	w, err := harness.New(cfg.Options)
	if err != nil {
		return nil, fmt.Errorf("arjuna: open: %w", err)
	}
	janitors := make([]*core.Janitor, len(w.Groups))
	for i := range w.Groups {
		janitors[i] = core.NewJanitor(w.Groups[i].DB)
	}
	s := &System{
		cfg:      cfg,
		w:        w,
		janitors: janitors,
		gen:      uid.NewGenerator("app", 1),
	}
	if cfg.admission > 0 {
		s.admit = make(chan struct{}, cfg.admission)
	}
	return s, nil
}

// Close tears the deployment down: every node's stable storage is shut
// down (flushing and releasing disk-backed directories, so a new Open on
// the same data dir can take their locks) and the transport is closed
// when the deployment runs over a closeable one (the socket transport);
// the in-memory network needs no teardown. Close is idempotent.
func (s *System) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	// Best effort: what a failed flush leaves dies with the deployment.
	_ = s.w.FlushEnds(context.Background())
	var err error
	for _, n := range s.w.Cluster.Nodes() {
		if serr := n.Store().Shutdown(); err == nil {
			err = serr
		}
	}
	net := s.w.Cluster.Net()
	if f, ok := net.(*transport.Faulty); ok {
		net = f.Inner() // the wrapper owns no sockets; the inner transport does
	}
	switch c := net.(type) {
	case interface{ Close() error }:
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	case interface{ Close() }:
		c.Close()
	}
	return err
}

// Client returns a client bound to the named client node (c1..cN), with
// SchemeIndependent and SingleCopyPassive unless options say otherwise.
func (s *System) Client(name string, opts ...ClientOption) (*Client, error) {
	addr := transport.Addr(name)
	if s.w.Mgrs[addr] == nil {
		return nil, fmt.Errorf("arjuna: client node %q: %w", name, ErrUnknownNode)
	}
	cc := clientConfig{
		scheme:  SchemeIndependent,
		policy:  SingleCopyPassive,
		retries: defaultRetries,
		backoff: defaultBackoff,
	}
	for _, o := range opts {
		o(&cc)
	}
	binder := s.w.Binder(addr, cc.scheme, cc.policy, cc.degree)
	binder.ReadOnly = cc.readOnly
	binder.FastBind = cc.fastBind
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // hash.Hash.Write never fails
	cl := &Client{sys: s, name: addr, binder: binder, cfg: cc,
		jitter: rand.New(rand.NewPCG(uint64(s.cfg.Net.Seed), h.Sum64()))}
	if l2, ok := s.w.LeaseCaches[addr]; ok && cc.policy == SingleCopyPassive {
		// The client's L1 over its node's shared L2 lease cache. Leases
		// are granted by the view-primary under single-copy passive
		// replication only; other policies read through the replicas.
		cl.leases = lease.NewLocal(l2, 0)
	}
	return cl, nil
}

// LeaseStats aggregates the read-lease machinery's counters since Open.
// All fields are zero unless the deployment was opened WithReadLeases.
type LeaseStats struct {
	// L1Hits/L1Misses and L2Hits/L2Misses are the tiered lease cache's
	// per-tier lookup outcomes, summed across all client nodes.
	L1Hits, L1Misses int64
	L2Hits, L2Misses int64
	// Grants counts leases granted by object servers; GrantsRefused
	// counts grant attempts refused because the server could not confirm
	// it holds the object's latest committed version.
	Grants, GrantsRefused int64
	// Invalidations counts fences by committing servers whose
	// invalidations every holder confirmed; Invalidated counts cache
	// entries they killed. Waitouts counts commits that could not confirm
	// delivery and waited out the lease clock instead.
	Invalidations, Invalidated, Waitouts int64
	// Updated counts the killed entries whose lease a commit's fence moved
	// forward in place: a new entry at the commit's version and state took
	// the old one's place, under its expiry.
	Updated int64
}

// LeaseStats reports the read-lease counters (cache hit rates, grants,
// invalidations, waitouts) accumulated by the whole deployment.
func (s *System) LeaseStats() LeaseStats {
	get := func(name string) int64 {
		if c, ok := s.w.Metrics.LookupCounter(name); ok {
			return c.Value()
		}
		return 0
	}
	return LeaseStats{
		L1Hits:        get("lease.l1.hits"),
		L1Misses:      get("lease.l1.misses"),
		L2Hits:        get("lease.l2.hits"),
		L2Misses:      get("lease.l2.misses"),
		Grants:        get("lease.grants"),
		GrantsRefused: get("lease.fence"),
		Invalidations: get("lease.invalidations"),
		Invalidated:   get("lease.invalidated"),
		Waitouts:      get("lease.waitouts"),
		Updated:       get("lease.updated"),
	}
}

// Objects returns the UIDs of the counter objects created at Open time.
func (s *System) Objects() []uid.UID {
	return append([]uid.UID(nil), s.w.Objects...)
}

// Servers, Stores and ClientNodes return the deployment's node names.
func (s *System) Servers() []transport.Addr {
	return append([]transport.Addr(nil), s.w.Svs...)
}

// Stores returns the store node names.
func (s *System) Stores() []transport.Addr {
	return append([]transport.Addr(nil), s.w.Sts...)
}

// ClientNodes returns the client node names.
func (s *System) ClientNodes() []transport.Addr {
	return append([]transport.Addr(nil), s.w.Clients...)
}

// CreateObject installs a new persistent object of a registered class:
// its initial state is written to every store node, then the object is
// registered in the group view database with all servers and stores in
// its Sv/St views. The new UID is returned.
func (s *System) CreateObject(ctx context.Context, class string, initState []byte) (uid.UID, error) {
	id := s.gen.New()
	// The ring decides the shard from the UID; the object is created in
	// that shard's group (the only group, when unsharded).
	g := s.w.GroupOf(id)
	creator := core.Client{RPC: s.w.Cluster.Node(s.w.Clients[0]).Client(), DB: g.DB.Addr()}
	if err := core.CreateObject(ctx, creator, id, class, initState, g.Svs, g.Sts); err != nil {
		return uid.Nil, MapError(err)
	}
	s.mu.Lock()
	s.created = append(s.created, id)
	s.mu.Unlock()
	return id, nil
}

// ShardInfo describes one shard of a sharded deployment: its group view
// database node and the server and store nodes of its group.
type ShardInfo struct {
	// ID is the 1-based shard number.
	ID int
	// DB is the shard's group view database node.
	DB transport.Addr
	// Servers and Stores are the shard's object-server and object-store
	// node sets.
	Servers []transport.Addr
	Stores  []transport.Addr
}

// ShardCount returns the number of shards (1 when unsharded).
func (s *System) ShardCount() int { return len(s.w.Groups) }

// Shards returns the placement table: every shard with its database,
// server and store nodes. Unsharded deployments report one shard.
func (s *System) Shards() []ShardInfo {
	out := make([]ShardInfo, len(s.w.Groups))
	for i := range s.w.Groups {
		g := &s.w.Groups[i]
		out[i] = ShardInfo{
			ID:      g.ID,
			DB:      g.DB.Addr(),
			Servers: append([]transport.Addr(nil), g.Svs...),
			Stores:  append([]transport.Addr(nil), g.Sts...),
		}
	}
	return out
}

// ShardOf returns the shard an object currently lives on: its
// consistent-hash shard, or where the forwards that rebalances left in the
// group view databases lead from there. Always 1 when unsharded.
func (s *System) ShardOf(id uid.UID) int {
	return s.w.GroupOf(id).ID
}

// Rebalance migrates an object to the target shard (1-based): the
// object is deregistered from its current group once quiescent, its
// latest committed state installed at the target group's stores through
// the §4.2 catch-up machinery, and registered in the target group's
// database. The target commits first, then the source, whose tombstone
// names the target database, so a client holding the stale mapping is
// forwarded there instead of committing against the old shard. An object
// already on the target stays put, so on one group a move to shard 1 is a
// no-op and any other target is an unknown shard.
func (s *System) Rebalance(ctx context.Context, id uid.UID, target int) error {
	return MapError(s.w.Rebalance(ctx, id, target))
}

// RebalanceBatch migrates a whole batch of objects to the target shard
// under one migration action: every object is deregistered, caught up and
// re-registered as in Rebalance. The batch flips per source database: each
// source's objects flip together at its commit, and until then its entries
// stay write-locked, so a concurrent bind there is refused and retried, not
// misrouted. Targets are as for Rebalance.
func (s *System) RebalanceBatch(ctx context.Context, ids []uid.UID, target int) error {
	return MapError(s.w.RebalanceBatch(ctx, ids, target))
}

// Crash fail-silences a node: its volatile state is lost and it leaves
// the network; its stable store survives for recovery.
func (s *System) Crash(node string) error {
	n := s.w.Cluster.Node(transport.Addr(node))
	if n == nil {
		return fmt.Errorf("arjuna: crash %q: %w", node, ErrUnknownNode)
	}
	n.Crash()
	return nil
}

// Recover restarts a crashed node and runs the paper's recovery protocol
// for its role: a recovering store node refreshes its object states and
// Includes itself back into the St views (§4.2); a recovering server node
// re-Inserts itself into the Sv views once the objects are quiescent
// (§4.1.2). Other node kinds just rejoin the network.
func (s *System) Recover(ctx context.Context, node string) error {
	addr := transport.Addr(node)
	n := s.w.Cluster.Node(addr)
	if n == nil {
		return fmt.Errorf("arjuna: recover %q: %w", node, ErrUnknownNode)
	}
	n.Recover(nil)
	// A server's Insert waits for the objects to be quiescent, a store's
	// Include for the actions' read locks to go: the clients' pending
	// action-ends go first. One whose flush failed makes the recovery report
	// the object in use, as any other user of it would.
	_ = s.w.FlushEnds(ctx)
	// Recovery talks to the node's own group: its database registers the
	// objects whose views the node must rejoin.
	g := s.w.GroupFor(addr)
	ids := g.DB.Objects()
	switch {
	case slices.Contains(s.w.Sts, addr):
		return MapError(core.RecoverStoreNode(ctx, n, g.DB.Addr(), ids))
	case slices.Contains(s.w.Svs, addr):
		return MapError(core.RecoverServerNode(ctx, n, g.DB.Addr(), ids))
	}
	return nil
}

// ServerView reads the object's current Sv view (the nodes capable of
// running a server for it) outside any client action.
func (s *System) ServerView(ctx context.Context, id uid.UID) ([]transport.Addr, error) {
	return s.view(ctx, id, false)
}

// StoreView reads the object's current St view (the nodes whose stores
// hold its latest mutually consistent state) outside any client action.
func (s *System) StoreView(ctx context.Context, id uid.UID) ([]transport.Addr, error) {
	return s.view(ctx, id, true)
}

func (s *System) view(ctx context.Context, id uid.UID, wantSt bool) ([]transport.Addr, error) {
	cli := core.Client{RPC: s.w.Cluster.Node(s.w.Clients[0]).Client(), DB: s.w.GroupOf(id).DB.Addr()}
	op := core.GetServerOp("", id, false, false)
	if wantSt {
		op = core.GetViewOp("", id)
	}
	res, err := cli.Do(ctx, op)
	if err != nil {
		return nil, MapError(err)
	}
	return res[0].Nodes, nil
}

// StoreState reads the committed (value, seq) of one object directly from
// one store node's stable store — committed state inspection for demos,
// audits and tests. The node must be up.
func (s *System) StoreState(node string, id uid.UID) ([]byte, uint64, error) {
	n := s.w.Cluster.Node(transport.Addr(node))
	if n == nil {
		return nil, 0, fmt.Errorf("arjuna: store state at %q: %w", node, ErrUnknownNode)
	}
	if !n.Up() {
		return nil, 0, fmt.Errorf("arjuna: store state at %q: node is down: %w", node, ErrUnreachable)
	}
	v, err := n.Store().Read(id)
	if err != nil {
		return nil, 0, tag(ErrUnknownObject, err)
	}
	return v.Data, v.Seq, nil
}

// CommittedState returns the object's latest committed (highest-seq)
// state among the live store nodes holding it.
func (s *System) CommittedState(id uid.UID) ([]byte, uint64, error) {
	var best []byte
	var bestSeq uint64
	found := false
	for _, st := range s.w.Sts {
		n := s.w.Cluster.Node(st)
		if n == nil || !n.Up() {
			continue
		}
		if v, err := n.Store().Read(id); err == nil && (!found || v.Seq > bestSeq) {
			best, bestSeq, found = v.Data, v.Seq, true
		}
	}
	if !found {
		return nil, 0, fmt.Errorf("arjuna: no live store holds %v: %w", id, ErrUnknownObject)
	}
	return best, bestSeq, nil
}

// NodeStatus describes one node of the deployment.
type NodeStatus struct {
	// Name is the node's address (db, sv1.., st1.., c1..).
	Name transport.Addr
	// Kind is "db", "server", "store" or "client"; "node" for anything
	// else.
	Kind string
	// Up reports whether the node is functioning.
	Up bool
	// Epoch is the node's incarnation number; it increases on recovery.
	Epoch uint32
}

// Status reports every node of the deployment, sorted by name.
func (s *System) Status() []NodeStatus {
	var out []NodeStatus
	for _, n := range s.w.Cluster.Nodes() {
		out = append(out, NodeStatus{
			Name:  n.Name(),
			Kind:  s.kindOf(n.Name()),
			Up:    n.Up(),
			Epoch: n.Epoch(),
		})
	}
	return out
}

func (s *System) kindOf(addr transport.Addr) string {
	for i := range s.w.Groups {
		if addr == s.w.Groups[i].DB.Addr() {
			return "db"
		}
	}
	switch {
	case slices.Contains(s.w.Svs, addr):
		return "server"
	case slices.Contains(s.w.Sts, addr):
		return "store"
	case slices.Contains(s.w.Clients, addr):
		return "client"
	default:
		return "node"
	}
}

// BreakerStat describes one per-peer circuit breaker on one node.
type BreakerStat struct {
	// Node is the breaker's owner; Peer is the node it guards calls to.
	Node, Peer transport.Addr
	// State is "closed", "open" or "half-open".
	State string
	// Failures counts failed calls in the breaker's sliding Window.
	Failures, Window int
}

// BreakerStats reports every non-pristine circuit breaker in the
// deployment (one entry per node/peer pair that has recorded at least
// one outcome), sorted by node then peer.
func (s *System) BreakerStats() []BreakerStat {
	var out []BreakerStat
	for _, n := range s.w.Cluster.Nodes() {
		bk := n.Breakers()
		if bk == nil {
			continue
		}
		for _, st := range bk.Snapshot() {
			out = append(out, BreakerStat{
				Node:     n.Name(),
				Peer:     st.Peer,
				State:    st.State.String(),
				Failures: st.Failures,
				Window:   st.Window,
			})
		}
	}
	return out
}

// SweepReport is the result of one use-list janitor pass (§4.1.3).
type SweepReport = core.SweepReport

// Sweep runs the use-list janitor once over every group view database:
// it probes client nodes recorded in use lists, and for crashed ones
// aborts their database actions and clears their counters. Sharded
// deployments merge the per-group reports.
func (s *System) Sweep(ctx context.Context) SweepReport {
	var merged SweepReport
	for _, j := range s.janitors {
		rep := j.Sweep(ctx)
		merged.DeadClients = append(merged.DeadClients, rep.DeadClients...)
		merged.AbortedActions += rep.AbortedActions
		merged.ClearedCounters += rep.ClearedCounters
	}
	merged.DeadClients = sortedSet(merged.DeadClients)
	return merged
}

// Faults returns the network's programmable fault plan — the in-memory
// network always has one — or nil when the deployment runs over a bare
// socket transport.
func (s *System) Faults() *transport.Faults {
	return s.w.Cluster.Faults()
}

// World returns the assembled deployment beneath the facade — nodes and
// stable stores. Like Faults it is a hook for in-module
// tooling (the chaos nemesis, the experiments, protocol tests) that crashes
// nodes mid-protocol and inspects stores; actions still run through Client.
func (s *System) World() *harness.World { return s.w }

// ServiceStats describes the RPC traffic of one service across the
// deployment since Open.
type ServiceStats struct {
	// Service is the RPC service name (e.g. "group", "objectstore").
	Service string
	// Calls is the number of calls issued; TransportErrors counts the
	// calls that failed at the transport (unreachable, lost messages).
	Calls           int64
	TransportErrors int64
	// MeanLatency and MaxLatency aggregate the per-call round-trip time
	// (the histogram's exact sum/count and exact maximum).
	MeanLatency time.Duration
	MaxLatency  time.Duration
	// P50/P99/P999 are round-trip latency percentiles from the service's
	// log-bucketed histogram (±~2% relative error; max is exact).
	P50  time.Duration
	P99  time.Duration
	P999 time.Duration
}

// Stats returns per-service RPC call counts and latencies accumulated by
// every node of the deployment, sorted by service name. The counters are
// cumulative since Open.
func (s *System) Stats() []ServiceStats {
	reg := s.w.Metrics
	var out []ServiceStats
	for _, name := range reg.CounterNames() {
		trimmed, ok := strings.CutSuffix(name, ".calls")
		if !ok {
			continue
		}
		service, ok := strings.CutPrefix(trimmed, "rpc.")
		if !ok {
			continue
		}
		// Read-only lookups: observing stats must not create registry
		// entries (that would change a later StatsSnapshot).
		s := ServiceStats{Service: service}
		if c, ok := reg.LookupCounter(name); ok {
			s.Calls = c.Value()
		}
		if c, ok := reg.LookupCounter("rpc." + service + ".transport-errors"); ok {
			s.TransportErrors = c.Value()
		}
		if h, ok := reg.LookupHistogram("rpc." + service); ok {
			ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
			s.MeanLatency = ms(h.Mean())
			s.MaxLatency = ms(h.Max())
			s.P50 = ms(h.Percentile(0.50))
			s.P99 = ms(h.Percentile(0.99))
			s.P999 = ms(h.Percentile(0.999))
		}
		out = append(out, s)
	}
	return out
}

// StatsSnapshot renders the deployment's full metrics registry (RPC call
// counts, latencies, and anything experiments recorded) as a
// deterministic multi-line report.
func (s *System) StatsSnapshot() string {
	return s.w.Metrics.Snapshot()
}

// String implements fmt.Stringer.
func (s *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "arjuna.System(%d × (db + %d servers + %d stores) + %d clients",
		len(s.w.Groups), s.cfg.Servers, s.cfg.Stores, len(s.w.Clients))
	net := s.w.Cluster.Net()
	if f, ok := net.(*transport.Faulty); ok {
		net = f.Inner()
	}
	if _, ok := net.(*transport.TCPMux); ok {
		b.WriteString(", transport=mux")
	}
	b.WriteString(")")
	return b.String()
}
