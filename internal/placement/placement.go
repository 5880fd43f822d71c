// Package placement partitions the object namespace across shards — each
// shard an independent server/store group with its own group view
// database — and finds the shard an object lives on.
//
// The paper's naming and binding service (§3–§4) is a single persistent
// object; its concluding remarks (§5) observe that naming data kept outside
// it need not be atomic, because the atomic Object State database alone
// guarantees consistent binding. Placement keeps no naming data of its own.
// An object's home is its shard on a consistent-hash ring over the shard
// IDs, which every client holds (virtual nodes per shard, so a change of
// shard set moves only ~1/n of the namespace). An object a rebalance moved
// (Move) is found through the database it left: the tombstone its
// deregistration left there names the database it went to — a forwarding
// address, as in Emerald — and so does every unknown-object answer that
// database gives for it (core.MovedTo).
//
// A client resolves a placement without a message, from its cache or else
// the ring, and follows a forward only when a database answers that the
// object moved away (Client.Follow), caching where it went. A stale
// placement therefore fails safely: the database it names either forwards
// the client, or — while a move is committing there — refuses the bind
// under the move's write locks, and the client retries.
package placement

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
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

// Client resolves placements over the deployment's shard table and the
// ring over its shard IDs, caching where each object was last found. Both
// are the harness's own, fixed for the deployment's lifetime and handed over
// at construction; the client sends no message of its own. Safe for
// concurrent use.
type Client struct {
	// table and ring are read without mu: they are never written.
	table []ShardInfo
	ring  *Ring

	mu    sync.Mutex
	cache map[uid.UID]int
}

// NewClient returns a placement client over the deployment's shard table and
// the ring over its shard IDs; a one-row table needs no ring, as every
// object lives in that shard.
func NewClient(shards []ShardInfo, ring *Ring) *Client {
	if len(shards) == 0 || (len(shards) > 1 && ring == nil) {
		panic("placement: client needs a shard table, and a ring unless it has one row")
	}
	return &Client{table: shards, ring: ring}
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

// shardAt returns the shard whose group view database is db.
func (c *Client) shardAt(db transport.Addr) (ShardInfo, bool) {
	for _, info := range c.table {
		if info.DB == db {
			return info, true
		}
	}
	return ShardInfo{}, false
}

// Resolve returns the shard the client takes the object to live on: where
// it was last found, else its home on the ring.
func (c *Client) Resolve(id uid.UID) ShardInfo {
	if len(c.table) == 1 {
		return c.table[0]
	}
	c.mu.Lock()
	shard, ok := c.cache[id]
	c.mu.Unlock()
	if !ok {
		shard = c.ring.Lookup(id.String())
		c.remember(id, shard)
	}
	info, _ := c.Shard(shard)
	return info
}

func (c *Client) remember(id uid.UID, shard int) {
	c.mu.Lock()
	if c.cache == nil {
		c.cache = make(map[uid.UID]int)
	}
	c.cache[id] = shard
	c.mu.Unlock()
}

// Follow runs op at the object's shard: first the one Resolve names, then,
// while op fails with an unknown-object answer that names the database the
// object moved to (core.MovedTo), at that database's shard, which the client
// caches. It follows at most one forward per shard. A database's forward
// names where the object went when it last left, so a chain that comes back
// to a shard has raced a move; its error stands, as does one that names no
// destination.
func (c *Client) Follow(id uid.UID, op func(ShardInfo) error) error {
	info := c.Resolve(id)
	var buf [4]int
	left := buf[:0]
	for {
		err := op(info)
		to := core.MovedTo(err)
		if to == "" {
			return err
		}
		left = append(left, info.ID)
		next, ok := c.shardAt(to)
		if !ok || slices.Contains(left, next.ID) {
			return err
		}
		c.remember(id, next.ID)
		info = next
	}
}
