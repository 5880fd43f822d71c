// Package sim models the hardware of the paper's system (§2.1): fail-silent
// workstations with stable object stores and volatile memory, connected by
// a local-area network.
//
// A Node either works as specified or stops (Crash). Crashing wipes the
// node's volatile storage and disconnects it from the network — a request
// its crashed incarnation was still handling gets no answer (the caller
// sees transport.ErrReplyLost), as a dead process sends none; its stable
// store survives — by default because the in-memory backend value is
// kept, or, when the cluster's StorageProvider gave the node a disk
// backend, because the state genuinely lives on disk and every in-process
// byte of it is dropped at the crash. Recover reconnects the node with a
// new incarnation number, reloads persistent stable storage, re-runs
// stable-store recovery against an outcome log, and then invokes any
// recovery protocols services have registered (e.g. the §4.1.2 server
// re-Insert, or the §4.2 store catch-up and Include).
package sim

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/transport"
)

// PingService/PingMethod name the liveness probe every node answers.
const (
	PingService = "node"
	PingMethod  = "Ping"
)

// Ping probes a node's liveness from the given client.
func Ping(ctx context.Context, cli rpc.Client, node transport.Addr) error {
	_, err := rpc.Invoke[rpc.Empty, rpc.Empty](ctx, cli, node, PingService, PingMethod, rpc.Empty{})
	return err
}

// Node is one simulated workstation.
type Node struct {
	name    transport.Addr
	cluster *Cluster
	// srv holds the node's service handlers — the "executable binary of
	// the code for the object's methods" (§3.1), which resides in stable
	// storage and therefore survives crashes.
	srv    *rpc.Server
	stable *store.Store
	// persistent marks a node whose stable storage lives outside process
	// memory (a cluster storage provider supplied its backend factory):
	// Crash drops every byte of the store's in-process state, Recover
	// reloads it from the backend.
	persistent bool

	// breakers is the node's per-peer circuit breaker set (nil when the
	// cluster runs without breakers). Breakers are volatile caller-side
	// state about OTHER nodes, so they deliberately survive this node's
	// own Crash/Recover untouched — except that Recover resets every
	// node's breaker toward the recovering node (it is provably back).
	breakers *rpc.Breakers

	mu        sync.Mutex
	up        bool
	epoch     uint32
	volatile  map[string]any
	onRecover []func(*Node)
	// running is the epoch of the incarnation that runs, 0 while the node
	// is down: a handler registered for another incarnation answers
	// nothing (serve).
	running atomic.Uint32
}

// Name returns the node's network address.
func (n *Node) Name() transport.Addr { return n.name }

// Store returns the node's stable object store.
func (n *Node) Store() *store.Store { return n.stable }

// Server returns the node's RPC dispatch table, used by services to
// register handlers.
func (n *Node) Server() *rpc.Server { return n.srv }

// Client returns an RPC client originating from this node. Calls issued
// through it are recorded in the cluster's metrics registry.
func (n *Node) Client() rpc.Client {
	return rpc.Client{Net: n.cluster.net, From: n.name, Metrics: n.cluster.metrics, Breakers: n.breakers}
}

// Breakers returns the node's circuit breaker set, or nil when the
// cluster runs without breakers.
func (n *Node) Breakers() *rpc.Breakers { return n.breakers }

// Metrics returns the cluster-wide metrics registry, for services on this
// node that record their own instrumentation.
func (n *Node) Metrics() *metrics.Registry { return n.cluster.metrics }

// Up reports whether the node is functioning.
func (n *Node) Up() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.up
}

// Epoch returns the node's incarnation number; it increases on every
// recovery.
func (n *Node) Epoch() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// VolatileOrStore fetches the value under key in the node's volatile memory
// — lost on crash — first storing mk's result there when the key is absent:
// one step, so concurrent first users of a fresh incarnation all get the
// same value.
func (n *Node) VolatileOrStore(key string, mk func() any) any {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.volatile[key]
	if !ok {
		v = mk()
		n.volatile[key] = v
	}
	return v
}

// OnRecover registers a recovery protocol run (in registration order)
// whenever the node recovers from a crash.
func (n *Node) OnRecover(f func(*Node)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onRecover = append(n.onRecover, f)
}

// Crash fail-silently stops the node: it disappears from the network and
// its volatile storage is lost. On a node with persistent (disk-backed)
// stable storage the whole process state goes too — the stable image is
// dropped and its files closed; only the backend's directory survives,
// exactly like a real machine losing power. Crashing a crashed node is a
// no-op.
func (n *Node) Crash() {
	n.mu.Lock()
	if !n.up {
		n.mu.Unlock()
		return
	}
	n.up = false
	n.running.Store(0)
	n.volatile = make(map[string]any)
	n.mu.Unlock()
	if n.persistent {
		_ = n.stable.Shutdown()
	}
	n.cluster.net.Unregister(n.name)
}

// ReopenStable reloads a persistent node's stable store from its backend
// without bringing the node up — the inspection hook recovery tooling
// (and the chaos harness's in-doubt accounting) uses to see a crashed
// node's durable state. It is a no-op for in-memory nodes and for stores
// already open; Recover calls it implicitly.
func (n *Node) ReopenStable() error {
	if !n.persistent {
		return nil
	}
	return n.stable.Reopen()
}

// Recover restarts a crashed node: new incarnation, stable-store recovery
// against log, network re-registration, then the registered recovery
// protocols. A nil log uses the cluster's outcome resolver when one is
// installed (SetOutcomeResolver) — the restarting node then asks each
// pending transaction's coordinator for the recorded outcome — and
// otherwise aborts all pending intentions (presumed abort). Recovering a
// functioning node is a no-op.
func (n *Node) Recover(log store.OutcomeLog) {
	n.mu.Lock()
	if n.up {
		n.mu.Unlock()
		return
	}
	n.up = true
	n.epoch++
	n.volatile = make(map[string]any)
	hooks := make([]func(*Node), len(n.onRecover))
	copy(hooks, n.onRecover)
	n.mu.Unlock()

	// A persistent node's process state was dropped at crash time;
	// reload it from the backend before anything consults the store. A
	// reopen failure is unrecoverable setup-level breakage (the
	// simulation owns the directories), so it panics rather than leaving
	// a half-recovered node.
	if err := n.ReopenStable(); err != nil {
		panic(fmt.Sprintf("sim: recover %s: %v", n.name, err))
	}
	if log == nil {
		log = n.cluster.outcomeLog(n)
	}
	// Resolve prepared-but-undecided intentions BEFORE rejoining the
	// network: an in-doubt participant must not serve (or catch up over)
	// state whose fate it has not yet settled.
	n.stable.Recover(log)
	n.serve()
	// The node is provably back: closing everyone's breaker toward it
	// saves each caller the cooldown and half-open probe its own breaker
	// would otherwise need.
	n.cluster.ResetBreakersFor(n.name)
	for _, f := range hooks {
		f(n)
	}
}

// Cluster is a set of nodes on one network. The network is usually the
// in-memory simulator (NewCluster), but any transport.Network works
// (NewClusterOn) — the protocol stack above is transport-agnostic.
type Cluster struct {
	net     transport.Network
	metrics *metrics.Registry

	mu         sync.Mutex
	nodes      map[transport.Addr]*Node
	resolver   func(*Node) store.OutcomeLog
	storage    StorageProvider
	breakerCfg *rpc.BreakerConfig
}

// StorageProvider supplies the stable-storage backend factory for a node
// about to be added; returning nil keeps the default in-process memory
// backend. A non-nil factory marks the node persistent: Crash drops all
// process state and Recover reloads from the backend (see Node.Crash).
type StorageProvider func(name transport.Addr) storage.Factory

// NewCluster returns an empty cluster over a fresh in-memory network.
func NewCluster(opts transport.MemOptions) *Cluster {
	return NewClusterOn(transport.NewMem(opts, nil))
}

// NewClusterOn returns an empty cluster over the given network — e.g. a
// transport.TCPMux for real-socket deployments. Fault injection (Faults)
// is available on the in-memory network and on any carrier wrapped in
// transport.NewFaulty.
func NewClusterOn(net transport.Network) *Cluster {
	c := &Cluster{
		net:     net,
		metrics: &metrics.Registry{},
		nodes:   make(map[transport.Addr]*Node),
	}
	carrier := net
	if f, ok := net.(*transport.Faulty); ok {
		carrier = f.Inner()
	}
	if mux, ok := carrier.(*transport.TCPMux); ok {
		// The socket carrier keeps its own counters; frames ÷ writes is how
		// much its outboxes coalesce.
		for name, counter := range mux.Counters() {
			c.metrics.Attach("transport.mux."+name, counter)
		}
	}
	return c
}

// Net returns the underlying network.
func (c *Cluster) Net() transport.Network { return c.net }

// Metrics returns the cluster-wide metrics registry, which accumulates
// per-service RPC call counts and latencies from every node's client.
func (c *Cluster) Metrics() *metrics.Registry { return c.metrics }

// SetOutcomeResolver installs the default recovery-time outcome log:
// Node.Recover(nil) consults resolver(node) to settle the node's pending
// intentions, so a restarting in-doubt participant queries coordinators
// instead of blindly presuming abort. The resolver is invoked at recovery
// time with the recovering node (so lookups originate from that node's
// own client). A nil resolver restores the plain presumed-abort default.
func (c *Cluster) SetOutcomeResolver(resolver func(*Node) store.OutcomeLog) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resolver = resolver
}

// outcomeLog returns the recovery log for n from the installed resolver,
// or nil (presumed abort) when none is installed.
func (c *Cluster) outcomeLog(n *Node) store.OutcomeLog {
	c.mu.Lock()
	r := c.resolver
	c.mu.Unlock()
	if r == nil {
		return nil
	}
	return r(n)
}

// SetStorage installs the cluster's stable-storage provider. It must be
// called before nodes are added; nodes already created keep their
// in-memory backends.
func (c *Cluster) SetStorage(p StorageProvider) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storage = p
}

// SetBreakers turns on per-peer circuit breakers for every node added
// after the call (zero config fields take their defaults). Like
// SetStorage it must run before nodes are added. On the in-memory
// network it also hooks the fault plan's heal events so breakers toward
// a healed peer close immediately instead of waiting out a cooldown.
func (c *Cluster) SetBreakers(cfg rpc.BreakerConfig) {
	c.mu.Lock()
	c.breakerCfg = &cfg
	c.mu.Unlock()
	if f := c.Faults(); f != nil {
		f.SetHealHook(func(a, b transport.Addr) {
			if a == "" && b == "" {
				c.ResetAllBreakers()
				return
			}
			c.ResetBreakersFor(a)
			c.ResetBreakersFor(b)
		})
	}
}

// ResetBreakersFor closes every node's breaker toward peer — called when
// peer is known to be reachable again (recovery, partition heal).
func (c *Cluster) ResetBreakersFor(peer transport.Addr) {
	for _, n := range c.Nodes() {
		if n.breakers != nil {
			n.breakers.Reset(peer)
		}
	}
}

// ResetAllBreakers closes every breaker on every node.
func (c *Cluster) ResetAllBreakers() {
	for _, n := range c.Nodes() {
		if n.breakers != nil {
			n.breakers.ResetAll()
		}
	}
}

// Faults returns the network's fault plan, or nil when the underlying
// network exposes none. Mem always carries one (it is transport.Faulty
// over the in-process carrier); the mux TCP transport gains one by being
// wrapped in transport.NewFaulty.
func (c *Cluster) Faults() *transport.Faults {
	if f, ok := c.net.(interface{ Faults() *transport.Faults }); ok {
		return f.Faults()
	}
	return nil
}

// Add creates a functioning node with the given name. Adding a duplicate
// name panics: cluster composition is test/experiment setup code where a
// duplicate is always a bug.
func (c *Cluster) Add(name transport.Addr) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[name]; ok {
		panic(fmt.Sprintf("sim: duplicate node %q", name))
	}
	factory, persistent := storage.MemFactory(), false
	if c.storage != nil {
		if f := c.storage(name); f != nil {
			factory, persistent = f, true
		}
	}
	stable, err := store.OpenWith(string(name), factory)
	if err != nil {
		// Cluster composition is test/experiment setup code; an unopenable
		// stable store there is always a configuration bug.
		panic(fmt.Sprintf("sim: open stable store %q: %v", name, err))
	}
	n := &Node{
		name:       name,
		cluster:    c,
		srv:        rpc.NewServer(),
		stable:     stable,
		persistent: persistent,
		up:         true,
		epoch:      1,
		volatile:   make(map[string]any),
	}
	if c.breakerCfg != nil {
		n.breakers = rpc.NewBreakers(*c.breakerCfg)
	}
	// Every node exports its stable object store over RPC — the Object
	// Storage service of §2.2.
	store.RegisterService(n.srv, n.stable)
	// Plus the live in-doubt sweep: resolve pending intentions whose
	// outcomes are affirmatively recorded, routed through the cluster's
	// outcome resolver. Registered here (not in store.RegisterService)
	// because only the simulation layer knows the coordinator routing.
	n.srv.Handle(store.ServiceName, store.MethodResolveDecided, rpc.Method(func(ctx context.Context, from transport.Addr, req rpc.Empty) (store.ResolveResp, error) {
		applied, aborted := n.stable.ResolveDecided(c.outcomeLog(n))
		return store.ResolveResp{Applied: applied, Aborted: aborted}, nil
	}))
	// And a liveness probe, used by failure-detection/cleanup protocols
	// (the paper mentions the Object Server database "could periodically
	// check if its clients are functioning", §4.1.3).
	n.srv.Handle(PingService, PingMethod, rpc.Method(func(context.Context, transport.Addr, rpc.Empty) (rpc.Empty, error) {
		return rpc.Empty{}, nil
	}))
	c.nodes[name] = n
	n.serve()
	return n
}

// serve puts the node's current incarnation on the network. Its handler
// answers only while that incarnation runs: a request it was still handling
// when the node crashed fails as transport.ErrReplyLost, whether the
// incarnation had run it or not — a dead process sends no reply — and so
// does one that reaches it afterwards.
func (n *Node) serve() {
	n.mu.Lock()
	epoch := n.epoch
	n.running.Store(epoch)
	n.mu.Unlock()
	h := n.srv.Handler()
	n.cluster.net.Register(n.name, func(ctx context.Context, req transport.Request) ([]byte, error) {
		if n.running.Load() != epoch {
			return nil, fmt.Errorf("%s -> %s %s.%s: crashed incarnation %d: %w", req.From, req.To, req.Service, req.Method, epoch, transport.ErrReplyLost)
		}
		resp, err := h(ctx, req)
		if n.running.Load() != epoch {
			return nil, fmt.Errorf("%s -> %s %s.%s: crashed incarnation %d: %w", req.From, req.To, req.Service, req.Method, epoch, transport.ErrReplyLost)
		}
		return resp, err
	})
}

// Node returns the named node, or nil.
func (c *Cluster) Node(name transport.Addr) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[name]
}

// Nodes returns all nodes sorted by name.
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
