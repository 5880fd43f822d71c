// Package placement partitions the object namespace across shards — each
// shard an independent server/store group with its own group view
// database — and maps every object UID to exactly one shard.
//
// The paper's naming and binding service (§3–§4) is a single persistent
// object; its concluding remarks (§5) observe that the available-server
// half can instead live in a traditional non-atomic name server because
// the atomic Object State database alone guarantees consistent binding.
// The placement service generalises that observation one level up: the
// *object → group* mapping is itself naming data that needs no atomic-
// action discipline. Placement resolution is non-atomic and cached;
// correctness does not depend on it, because a client that resolves a
// stale mapping simply fails to find the object at the old group's
// database (CodeUnknownObject) and re-resolves. What makes the stale
// path terminate is the per-object epoch: every explicit reassignment
// bumps it, so a client can distinguish "mapping changed — re-bind" from
// "mapping unchanged — the object really is gone".
//
// The default mapping is consistent hashing over a ring of virtual
// nodes, so shard membership changes move only ~1/n of the namespace; a
// directory of explicit overrides (populated by rebalancing) takes
// precedence per object.
package placement

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/uid"
)

// ShardInfo describes one shard: its group view database node and the
// server/store nodes of its group.
type ShardInfo struct {
	ID  int // 1-based
	DB  transport.Addr
	Svs []transport.Addr
	Sts []transport.Addr
}

// Ring is a consistent-hash ring over shard IDs with virtual nodes.
// Immutable after construction; safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// DefaultVirtualNodes is the per-shard virtual-node count: enough that
// the expected load imbalance between shards stays within a few percent.
const DefaultVirtualNodes = 64

// NewRing builds a ring over the given shard IDs. vnodes ≤ 0 selects
// DefaultVirtualNodes.
func NewRing(shards []int, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{points: make([]ringPoint, 0, len(shards)*vnodes)}
	for _, s := range shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("shard-%d#%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Lookup maps a key to its shard: the first ring point at or after the
// key's hash, wrapping around.
func (r *Ring) Lookup(key string) int {
	if len(r.points) == 0 {
		return 0
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	// FNV alone clusters on near-identical inputs (the vnode labels differ
	// in one or two bytes); a splitmix64 finalizer spreads the points so
	// ring arcs — and therefore shard load — stay balanced.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ServiceName is the RPC service name of the placement service.
const ServiceName = "placement"

// Placement RPC methods.
const (
	MethodLookup      = "Lookup"
	MethodAssignBatch = "AssignBatch"
	MethodSync        = "Sync"  // primary → replica override push
	MethodState       = "State" // full directory dump for catch-up
)

// CodeNotPrimary is returned by a replica asked to perform a write: only
// the primary assigns overrides and bumps epochs.
const CodeNotPrimary = "not-primary"

// Service is the placement authority. Like the §5 name server it is
// non-atomic: lookups and assignments are immediate, mutex-protected map
// operations with no locks or actions.
//
// A Service is one replica of a replicated group (NewReplicatedGroup).
// Replication is primary-based and epoch-fenced: all writes go through a
// static primary (the group's first node), which applies them locally and
// pushes the new override records — each carrying its per-object epoch —
// to the peers best-effort. A peer applies a pushed record only if its
// epoch exceeds the peer's local epoch for that object, so reordered or
// replayed pushes can never regress the directory. A replica that missed
// pushes (crash, partition) converges through CatchUp, which pulls the
// primary's full directory under the same fence. Stale reads are safe by
// the package's own design: a lagging replica at worst hands out an old
// mapping, which the binder detects via CodeUnknownObject and re-resolves.
type Service struct {
	self    transport.Addr
	primary transport.Addr
	peers   []transport.Addr
	cli     rpc.Client

	mu        sync.Mutex
	ring      *Ring
	shards    map[int]ShardInfo
	overrides map[uid.UID]int
	epochs    map[uid.UID]uint64
}

// NewReplicatedGroup installs one placement replica per node, all serving
// the same shard table, with nodes[0] as the static primary. The returned
// services are in node order (primary first). Every replica registers a
// recovery hook that pulls the primary's directory on restart.
func NewReplicatedGroup(nodes []*sim.Node, shards []ShardInfo) []*Service {
	if len(nodes) == 0 {
		panic("placement: replicated group needs at least one node")
	}
	primary := nodes[0].Name()
	out := make([]*Service, len(nodes))
	for i, node := range nodes {
		peers := make([]transport.Addr, 0, len(nodes)-1)
		for _, other := range nodes {
			if other.Name() != node.Name() {
				peers = append(peers, other.Name())
			}
		}
		s := newReplica(node, primary, peers, shards)
		if node.Name() != primary {
			node.OnRecover(func(*sim.Node) {
				// Catch up on pushes missed while down. Best-effort: if the
				// primary is unreachable the replica still serves its (safe,
				// possibly stale) directory and converges on the next sync.
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				_ = s.CatchUp(ctx)
			})
		}
		out[i] = s
	}
	return out
}

func newReplica(node *sim.Node, primary transport.Addr, peers []transport.Addr, shards []ShardInfo) *Service {
	ids := make([]int, len(shards))
	byID := make(map[int]ShardInfo, len(shards))
	for i, s := range shards {
		ids[i] = s.ID
		byID[s.ID] = s
	}
	s := &Service{
		self:      node.Name(),
		primary:   primary,
		peers:     peers,
		cli:       node.Client(),
		ring:      NewRing(ids, 0),
		shards:    byID,
		overrides: make(map[uid.UID]int),
		epochs:    make(map[uid.UID]uint64),
	}
	srv := node.Server()
	srv.Handle(ServiceName, MethodLookup, rpc.Method(func(ctx context.Context, from transport.Addr, req LookupReq) (LookupResp, error) {
		id, err := uid.Parse(req.UID)
		if err != nil {
			return LookupResp{}, rpc.Errorf(rpc.CodeInternal, "bad uid: %v", err)
		}
		shard, epoch := s.Lookup(id)
		return LookupResp{Shard: shard, Epoch: epoch}, nil
	}))
	srv.Handle(ServiceName, MethodAssignBatch, rpc.Method(func(ctx context.Context, from transport.Addr, req AssignBatchReq) (AssignBatchResp, error) {
		if !s.IsPrimary() {
			return AssignBatchResp{}, rpc.Errorf(CodeNotPrimary, "placement writes go through %s", s.primary)
		}
		ids := make([]uid.UID, len(req.UIDs))
		for i, u := range req.UIDs {
			id, err := uid.Parse(u)
			if err != nil {
				return AssignBatchResp{}, rpc.Errorf(rpc.CodeInternal, "bad uid: %v", err)
			}
			ids[i] = id
		}
		epochs, err := s.AssignBatch(ids, req.Shard)
		if err != nil {
			return AssignBatchResp{}, err
		}
		recs := make([]SyncRec, len(ids))
		for i, id := range ids {
			recs[i] = SyncRec{UID: id.String(), Shard: req.Shard, Epoch: epochs[i]}
		}
		s.syncPeers(ctx, recs)
		return AssignBatchResp{Epochs: epochs}, nil
	}))
	srv.Handle(ServiceName, MethodSync, rpc.Method(func(ctx context.Context, from transport.Addr, req SyncReq) (rpc.Empty, error) {
		s.applySync(req.Records)
		return rpc.Empty{}, nil
	}))
	srv.Handle(ServiceName, MethodState, rpc.Method(func(ctx context.Context, from transport.Addr, req rpc.Empty) (StateResp, error) {
		return StateResp{Records: s.stateRecords()}, nil
	}))
	return s
}

// IsPrimary reports whether this replica is the group's write primary.
func (s *Service) IsPrimary() bool { return s.self == s.primary }

// syncPeers pushes freshly written override records to every peer
// replica, best-effort and synchronously: a down or partitioned peer is
// simply skipped (it converges through CatchUp). Called on the primary
// inside the write RPC so that when the write returns, every reachable
// replica already serves the new mapping.
func (s *Service) syncPeers(ctx context.Context, recs []SyncRec) {
	if len(s.peers) == 0 || len(recs) == 0 {
		return
	}
	payload, err := rpc.Encode(&SyncReq{Records: recs})
	if err != nil {
		return
	}
	for _, peer := range s.peers {
		_, _ = s.cli.Call(ctx, peer, ServiceName, MethodSync, payload)
	}
}

// applySync folds pushed override records into the local directory under
// the epoch fence: a record lands only if it is newer than what the
// replica already has, so replays and reorderings cannot regress it.
func (s *Service) applySync(recs []SyncRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		id, err := uid.Parse(rec.UID)
		if err != nil {
			continue
		}
		if rec.Epoch > s.epochs[id] {
			s.overrides[id] = rec.Shard
			s.epochs[id] = rec.Epoch
		}
	}
}

// stateRecords dumps the full override directory for catch-up.
func (s *Service) stateRecords() []SyncRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SyncRec, 0, len(s.overrides))
	for id, shard := range s.overrides {
		out = append(out, SyncRec{UID: id.String(), Shard: shard, Epoch: s.epochs[id]})
	}
	return out
}

// CatchUp pulls the primary's full directory and folds it in under the
// epoch fence — the anti-entropy path for a replica that missed pushes.
// No-op on the primary itself.
func (s *Service) CatchUp(ctx context.Context) error {
	if s.IsPrimary() {
		return nil
	}
	resp, err := rpc.Invoke[rpc.Empty, StateResp](ctx, s.cli, s.primary, ServiceName, MethodState, rpc.Empty{})
	if err != nil {
		return err
	}
	s.applySync(resp.Records)
	return nil
}

// Lookup resolves an object's shard and epoch: the directory override if
// one exists, otherwise the ring. Epoch 0 means never reassigned.
func (s *Service) Lookup(id uid.UID) (int, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if shard, ok := s.overrides[id]; ok {
		return shard, s.epochs[id]
	}
	return s.ring.Lookup(id.String()), s.epochs[id]
}

// AssignBatch records overrides for a whole batch of objects in one
// critical section — a bulk rebalance flips every mapping atomically with
// respect to lookups, so a concurrent client sees either the old or the
// new placement of the batch, never a torn mixture. Each object's epoch
// is bumped exactly once; the epochs are returned in input order.
func (s *Service) AssignBatch(ids []uid.UID, shard int) ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.shards[shard]; !ok {
		return nil, rpc.Errorf(rpc.CodeInternal, "placement: unknown shard %d", shard)
	}
	epochs := make([]uint64, len(ids))
	for i, id := range ids {
		s.overrides[id] = shard
		s.epochs[id]++
		epochs[i] = s.epochs[id]
	}
	return epochs, nil
}

// --- wire records (codecs in wire.go) ---

// LookupReq resolves one object's shard.
type LookupReq struct{ UID string }

// LookupResp carries the shard ID and the object's placement epoch.
type LookupResp struct {
	Shard int
	Epoch uint64
}

// AssignBatchReq records explicit overrides for a batch of objects, all
// to the same target shard, in one critical section at the service.
type AssignBatchReq struct {
	UIDs  []string
	Shard int
}

// AssignBatchResp carries the new placement epochs, in request order.
type AssignBatchResp struct{ Epochs []uint64 }

// SyncRec is one replicated override record: the object, its assigned
// shard, and the epoch fencing the record.
type SyncRec struct {
	UID   string
	Shard int
	Epoch uint64
}

// SyncReq pushes override records from the primary to a replica.
type SyncReq struct{ Records []SyncRec }

// StateResp carries the full override directory, in reply to a State
// request (an rpc.Empty).
type StateResp struct{ Records []SyncRec }

// Client resolves placements against the deployment's shard table and a
// remote Service, caching per-object resolutions. The table is the
// harness's own, fixed for the deployment's lifetime and handed over at
// construction; with one row it is the whole answer, and the client sends
// no message at all. Cached resolutions can go stale after a rebalance;
// the shard-aware binder detects that through CodeUnknownObject at the old
// shard and calls Refresh, using the epoch to decide whether a re-bind is
// worthwhile. Safe for concurrent use.
//
// When the service is replicated the client knows every replica. A
// lookup asks the primary first and fails over to the others, in order,
// on any transport-class failure — including the instant
// ErrPeerUnavailable fast-fail from an open circuit breaker — so a dead
// replica costs at most one timeout (often nothing) rather than an
// outage. Writes always go to the primary (the first address); a lagging
// replica's stale answer fails safely through the binder's Refresh/re-bind
// path.
type Client struct {
	RPC rpc.Client
	// Nodes are the placement replicas, primary first; none when the
	// table has one row.
	Nodes []transport.Addr
	// table is the shard table, read without mu: it is never written.
	table []ShardInfo

	mu    sync.Mutex
	cache map[uid.UID]cachedPlacement
}

type cachedPlacement struct {
	shard int
	epoch uint64
}

// NewClient returns a placement client over the deployment's shard table,
// talking to the service replicas at nodes (the first is the write
// primary). A one-row table needs no nodes: every object lives in that
// shard, at epoch 0, since a move to the shard an object is on is skipped.
func NewClient(rpcc rpc.Client, shards []ShardInfo, nodes ...transport.Addr) *Client {
	if len(shards) == 0 || (len(shards) > 1 && len(nodes) == 0) {
		panic("placement: client needs a shard table, and service nodes unless it has one row")
	}
	return &Client{RPC: rpcc, Nodes: nodes, table: shards}
}

// primary returns the write primary's address.
func (c *Client) primary() transport.Addr { return c.Nodes[0] }

// read performs a replica-failover call: the primary first, then the rest
// in order. An application-level error ends the loop — the replica
// answered, so trying another would only mask it — while a
// transport-class failure moves on.
func (c *Client) read(ctx context.Context, method string, payload []byte) ([]byte, error) {
	var lastErr error
	for _, node := range c.Nodes {
		body, err := c.RPC.Call(ctx, node, ServiceName, method, payload)
		if err == nil {
			return body, nil
		}
		var ae *rpc.AppError
		if errors.As(err, &ae) {
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// Shard returns one shard's description by ID.
func (c *Client) Shard(id int) (ShardInfo, error) {
	for _, info := range c.table {
		if info.ID == id {
			return info, nil
		}
	}
	return ShardInfo{}, fmt.Errorf("placement: unknown shard %d", id)
}

// Resolve returns the object's shard and placement epoch, from cache when
// possible.
func (c *Client) Resolve(ctx context.Context, id uid.UID) (ShardInfo, uint64, error) {
	if len(c.table) == 1 {
		return c.table[0], 0, nil
	}
	c.mu.Lock()
	p, ok := c.cache[id]
	c.mu.Unlock()
	if ok {
		info, err := c.Shard(p.shard)
		return info, p.epoch, err
	}
	return c.Refresh(ctx, id)
}

// Refresh resolves the object's shard at the service, bypassing and then
// replacing the cached entry. It asks the primary first — a refresh runs
// because a cached mapping went stale, so it wants the authoritative
// directory — but fails over to the replicas when the primary is down
// (their fenced copy is at worst the same staleness the binder already
// tolerates). A one-row table answers itself.
func (c *Client) Refresh(ctx context.Context, id uid.UID) (ShardInfo, uint64, error) {
	if len(c.table) == 1 {
		return c.table[0], 0, nil
	}
	payload, _ := rpc.Encode(&LookupReq{UID: id.String()})
	body, err := c.read(ctx, MethodLookup, payload)
	var resp LookupResp
	if err == nil {
		err = rpc.Decode(body, &resp)
	}
	if err != nil {
		return ShardInfo{}, 0, err
	}
	c.mu.Lock()
	if c.cache == nil {
		c.cache = make(map[uid.UID]cachedPlacement)
	}
	c.cache[id] = cachedPlacement{shard: resp.Shard, epoch: resp.Epoch}
	c.mu.Unlock()
	info, err := c.Shard(resp.Shard)
	return info, resp.Epoch, err
}

// AssignBatch records overrides for a batch of objects in one RPC and one
// service-side critical section, updating the local cache.
func (c *Client) AssignBatch(ctx context.Context, ids []uid.UID, shard int) ([]uint64, error) {
	uids := make([]string, len(ids))
	for i, id := range ids {
		uids[i] = id.String()
	}
	resp, err := rpc.Invoke[AssignBatchReq, AssignBatchResp](ctx, c.RPC, c.primary(), ServiceName, MethodAssignBatch, AssignBatchReq{UIDs: uids, Shard: shard})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.cache == nil {
		c.cache = make(map[uid.UID]cachedPlacement)
	}
	for i, id := range ids {
		if i < len(resp.Epochs) {
			c.cache[id] = cachedPlacement{shard: shard, epoch: resp.Epochs[i]}
		}
	}
	c.mu.Unlock()
	return resp.Epochs, nil
}
