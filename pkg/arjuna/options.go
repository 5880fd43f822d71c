package arjuna

import (
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Scheme selects the database access structure of §4 — how the group view
// database is read and repaired relative to the client action.
type Scheme = core.Scheme

// The three access schemes (Figures 6–8 of the paper).
const (
	SchemeStandard       = core.SchemeStandard
	SchemeIndependent    = core.SchemeIndependent
	SchemeNestedTopLevel = core.SchemeNestedTopLevel
)

// ParseScheme maps a flag/config spelling ("standard", "independent",
// "nested", or a full String() form) to a Scheme.
func ParseScheme(s string) (Scheme, error) { return core.ParseScheme(s) }

// Policy selects the object replication discipline of §2.3.
type Policy = replica.Policy

// The three replication policies.
const (
	SingleCopyPassive = replica.SingleCopyPassive
	Active            = replica.Active
	CoordinatorCohort = replica.CoordinatorCohort
)

// ParsePolicy maps a flag/config spelling ("single", "active", "cohort",
// or a full String() form) to a Policy.
func ParsePolicy(s string) (Policy, error) { return replica.ParsePolicy(s) }

// Class describes an application object type: its initial state and its
// methods. Register classes at Open time with WithClass.
type Class = object.Class

// Method is one object method: (state, args) → (newState, result, error).
type Method = object.Method

// config is the assembled deployment description: the world's options
// plus the facade's own defaults and gate.
type config struct {
	harness.Options

	admission int
}

func defaultConfig() config {
	return config{
		Options: harness.Options{Servers: 2, Stores: 2, Clients: 1, Objects: 1},
	}
}

// Option configures Open.
type Option func(*config)

// WithServers sets the number of object-server nodes (sv1..svN).
func WithServers(n int) Option { return func(c *config) { c.Servers = n } }

// WithStores sets the number of object-store nodes (st1..stN).
func WithStores(n int) Option { return func(c *config) { c.Stores = n } }

// WithClients sets the number of client nodes (c1..cN).
func WithClients(n int) Option { return func(c *config) { c.Clients = n } }

// WithObjects sets how many pre-created counter objects the deployment
// starts with (each replicated across all servers and stores of its
// shard). Further objects of any registered class are created with
// System.CreateObject.
func WithObjects(n int) Option { return func(c *config) { c.Objects = n } }

// WithShards splits the deployment into n independent groups, each with
// its own group view database (db1..dbN) and its own WithServers servers
// and WithStores stores — the per-node counts become per-shard counts. Each
// object's home shard is given by consistent hashing, a moved object is
// found through the forward its old database keeps, and every Client binds
// through that placement transparently: actions touching one shard keep the
// one-phase and read-only fast paths, actions spanning shards enlist
// participants from several groups under one coordinator. n <= 1 is one
// group (one "db" node): its placement table has one row. Either way a
// Client resolves a placement without a message.
func WithShards(n int) Option { return func(c *config) { c.Shards = n } }

// WithAdmission caps how many top-level Atomic actions may be in flight
// across the whole deployment at once. The admission gate is the
// outermost backpressure valve, and it refuses nothing: when offered
// concurrency exceeds the deployment's efficient operating point, surplus
// callers park cheaply at the gate instead of thrashing the bind, lock
// and commit machinery, which is what turns extra clients into negative
// scaling. An admitted action holds its slot through its retries, so its
// backoff capacity is not resold. 0 (the default) means no gate.
func WithAdmission(n int) Option {
	return func(c *config) { c.admission = n }
}

// BreakerConfig tunes the per-peer circuit breakers: a breaker trips
// after Threshold failures in its Window most recent calls and fast-fails
// further calls with ErrPeerUnavailable until a Cooldown-spaced probe
// succeeds. The zero value selects the defaults (window 10, threshold 5,
// cooldown 250ms).
type BreakerConfig = rpc.BreakerConfig

// WithBreakerConfig tunes the circuit breakers' window, trip threshold
// and probe cooldown. Zero fields keep their defaults.
func WithBreakerConfig(cfg BreakerConfig) Option {
	return func(c *config) { c.Breakers = cfg }
}

// DefaultLeaseTTL is the read-lease lifetime WithReadLeases selects when
// given a non-positive TTL.
const DefaultLeaseTTL = 250 * time.Millisecond

// WithReadLeases enables cached read leases with the given TTL
// (DefaultLeaseTTL when ttl <= 0). Object servers then attach a leased
// snapshot — state, version, ttl — to read-path invocations, every
// client node runs a shared lease cache (with a small per-client L1 on
// top), and a Client whose Atomic body only performs read-only methods
// on one lease-valid object completes with zero RPCs and zero
// lock-manager traffic. Commits stay safe: a commit that advances a leased object's
// version sends each holder an invalidation carrying the new version and
// state, which moves a live lease forward under its old expiry — or, when
// a holder cannot be reached, waits out the lease clock — before it is
// acknowledged. See the package documentation for the exact guarantee
// and the costs (a 2×TTL grace on the first commit after an instance
// activates, and a store probe on grants to long-idle objects).
//
// Leases apply to single-copy passive replication; other policies
// ignore them.
func WithReadLeases(ttl time.Duration) Option {
	return func(c *config) {
		if ttl <= 0 {
			ttl = DefaultLeaseTTL
		}
		c.LeaseTTL = ttl
	}
}

// WithClass registers an application object class in addition to the
// built-in "counter" class.
func WithClass(cl *Class) Option {
	return func(c *config) {
		if c.Registry == nil {
			c.Registry = object.NewRegistry()
			c.Registry.Register(harness.CounterClass())
		}
		c.Registry.Register(cl)
	}
}

// WithDataDir roots every node's stable storage in dir: committed
// object versions, prepared 2PC intentions and the coordinators' commit
// records live in per-node WAL+snapshot directories under dir
// (dir/st1, dir/c1, ...). Crash then drops the node's whole process
// state — as a real machine failure would — and Recover replays the
// node's directory before running the §4.1.2/§4.2 recovery protocols,
// so committed state survives actual process death and a deployment
// reopened on the same directory resumes where it left off. Without
// this option stable storage is in-memory: "stable" only with respect
// to simulated crashes, gone with the process.
func WithDataDir(dir string) Option {
	return func(c *config) { c.DataDir = dir }
}

// WithDiskOptions tunes the disk engine used with WithDataDir — the
// fsync discipline (group commit by default) and the WAL compaction
// threshold.
func WithDiskOptions(opts storage.DiskOptions) Option {
	return func(c *config) { c.Disk = opts }
}

// WithMemNetwork tunes the default in-memory network (latency, jitter,
// seed). Ignored when WithNetwork selects another transport.
func WithMemNetwork(opts transport.MemOptions) Option {
	return func(c *config) { c.Net = opts }
}

// WithNetwork runs the deployment over an explicit transport instead of
// the in-memory simulator: WithNetwork(transport.NewTCPMux()) runs the
// whole protocol stack over real loopback TCP sockets, each node pair
// sharing one multiplexed, pipelined connection. Fault injection
// (System.Faults) is available when the transport runs the fault pipeline:
// the in-memory network, or any carrier wrapped in transport.NewFaulty.
func WithNetwork(net transport.Network) Option {
	return func(c *config) { c.Network = net }
}

// clientConfig describes one Client's binding behaviour.
type clientConfig struct {
	scheme   Scheme
	policy   Policy
	degree   int // 0 = all of Sv (single-copy passive binds one regardless)
	readOnly bool
	fastBind bool
	retries  int
	backoff  time.Duration
}

// ClientOption configures System.Client.
type ClientOption func(*clientConfig)

// ClientScheme sets this client's database access scheme; the default is
// SchemeIndependent.
func ClientScheme(s Scheme) ClientOption { return func(c *clientConfig) { c.scheme = s } }

// ClientPolicy sets this client's replication policy; the default is
// SingleCopyPassive.
func ClientPolicy(p Policy) ClientOption { return func(c *clientConfig) { c.policy = p } }

// ClientDegree sets the desired number of activated replicas per binding
// (|Sv'| of §3.2) for this client; 0 (the default) means all servers in
// the view, and d < 0 is treated as 0. Single-copy passive replication
// always activates one replica, whatever the degree.
func ClientDegree(d int) ClientOption {
	return func(c *clientConfig) {
		if d < 0 {
			d = 0
		}
		c.degree = d
	}
}

// ClientReadOnly applies the §4.1.2 read optimisation: the client never
// touches use lists, and only read-only methods can be invoked through it —
// a method its class does not mark ReadOnly is refused before any message is
// sent and aborts the action, because bound outside the use lists a write
// could activate a second copy beside the one writers use.
//
// What the option promises in return. Its reads are served where the
// writers' copy is: under single-copy passive and coordinator-cohort
// replication the client binds by the writers' rule, uncounted — the servers
// in use, else Sv in order — and only under active replication, where the
// total order keeps every replica current, is it spread over Sv by its name;
// there its reads go to the one replica it binds, outside the total order.
// And because the client cannot write, an action's first Read is its one
// server message: the request carries the read-only vote, the server
// releases the action as it answers, its bind left no lock at the database
// to end, and a single-read action is two messages — bind · invoke — with
// the read lock held for the method alone. An action that goes on to further
// operations has that first read re-checked under a held lock before it
// commits, and one that goes on to a second object first takes the database
// lock the first was bound without — one more database message, and from
// there on every lock it always held (CommitReport.LeaseStale counts the
// attempts that failed either check and were retried: the retry carries
// nothing, so its reads hold their server locks to the end, but its first
// bind is unpinned again and a second object pins it again).
// With WithReadLeases the lease cache serves instead, nothing is carried and
// every bind keeps its lock.
func ClientReadOnly() ClientOption { return func(c *clientConfig) { c.readOnly = true } }

// ClientFastBind makes the enhanced schemes' bind action use commutative
// locking: Sv is read under a shared lock and the use-count Increment
// takes an Adjust lock that other adjusters and readers share, so binds
// to a hot object no longer convoy behind one another's exclusive bind
// window. The exclusive Figure 7 pass still runs whenever a binding
// finds failed servers to repair, preserving Sv-repair and quiescence
// semantics. No effect under SchemeStandard or ClientReadOnly.
func ClientFastBind() ClientOption { return func(c *clientConfig) { c.fastBind = true } }

// ClientRetry bounds Atomic's retry loop for transient lock refusals:
// at most attempts tries in total, sleeping backoff (doubling each time)
// between them. attempts < 1 is treated as 1; a zero backoff retries
// immediately.
func ClientRetry(attempts int, backoff time.Duration) ClientOption {
	return func(c *clientConfig) {
		if attempts < 1 {
			attempts = 1
		}
		c.retries = attempts
		c.backoff = backoff
	}
}
