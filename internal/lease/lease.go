// Package lease implements the client side of cached read leases: a
// tiered snapshot cache (a small per-client L1 over a shared per-node
// L2) whose entries are leased object snapshots granted by object
// servers, invalidated either eagerly — by an invalidation record the
// committing server piggybacks on the ordered group multicast — or
// lazily by lease expiry when the holder is unreachable.
//
// A cache entry is (state, seq, expiry). While the entry is valid —
// not expired and not invalidated — the holder may apply read-only
// methods to the cached state locally, with zero RPCs and zero
// lock-manager traffic, and the result is guaranteed to reflect the
// latest committed version the reader could have observed: any commit
// that advances the object's version either delivered an invalidation
// to this holder or waited out the lease clock before acknowledging
// (the standard lease safety rule; see the server side in
// internal/object).
//
// Invalidation channel. Each grant at version seq enrols the holder in
// the per-object, per-version group GroupID(id, seq). A commit that
// advances seq multicasts one Inval record to that group over the same
// ordered-multicast machinery that active replication uses, so
// invalidations are consistent with commit order by construction.
// Exactly one message is ever sent to a given group (the version it
// names is gone afterwards), so holders leave the group as soon as the
// record arrives.
package lease

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/group"
	"repro/internal/metrics"
	"repro/internal/uid"
)

// GroupPrefix prefixes the invalidation group joined for each granted
// lease: GroupPrefix + uid + "/" + seq.
const GroupPrefix = "lease/"

// GroupID names the invalidation group for version seq of object id.
// Keying the group by version — not just object — means a committing
// server needs no handshake with foreign granters: whoever granted a
// lease at seq enrolled its holder here, and the commit that replaces
// seq invalidates exactly this group.
func GroupID(id uid.UID, seq uint64) string {
	return GroupPrefix + id.String() + "/" + strconv.FormatUint(seq, 10)
}

// Snapshot is the leased read snapshot a grant carries.
type Snapshot struct {
	UID   uid.UID
	Class string
	State []byte
	// Seq is the committed version State derives from.
	Seq uint64
	// Expiry is the local instant the lease self-destructs. It is
	// computed from the instant the grant request was SENT, so however
	// the clocks relate, the holder's lease dies no later than the
	// granting server believes it does.
	Expiry time.Time
}

// Entry is one cached lease. Entries are shared by reference between
// the L2 cache and every L1 that has pulled them, so a single
// invalidation — flipping the dead flag — is write-through: every tier
// observes it on its next lookup with no per-tier bookkeeping.
type Entry struct {
	Snap Snapshot
	dead atomic.Bool
}

// Valid reports whether the lease may still serve reads at now.
func (e *Entry) Valid(now time.Time) bool {
	return e != nil && !e.dead.Load() && now.Before(e.Snap.Expiry)
}

// Kill invalidates the entry immediately.
func (e *Entry) Kill() { e.dead.Store(true) }

// Cache is the shared per-node L2: every client on the node sees the
// same set of leases, so one client's grant serves its neighbours'
// reads too. It owns the node's membership in the invalidation groups.
type Cache struct {
	host  *group.Host
	stats *metrics.Registry

	mu      sync.Mutex
	entries map[uid.UID]*Entry
}

// NewCache builds the node's shared lease cache over its group host
// (which receives the invalidation multicasts).
func NewCache(host *group.Host, stats *metrics.Registry) *Cache {
	return &Cache{host: host, stats: stats, entries: make(map[uid.UID]*Entry)}
}

// Put installs a freshly granted lease and enrols this node in the
// grant's invalidation group. Any previous lease for the object is
// killed and its group left — a newer grant supersedes it.
func (c *Cache) Put(snap Snapshot) *Entry {
	e := &Entry{Snap: snap}
	c.mu.Lock()
	old := c.entries[snap.UID]
	delete(c.entries, snap.UID)
	c.mu.Unlock()
	// Retire the superseded lease before joining: a re-grant at the SAME
	// version reuses the same group ID, and Leave-after-Join would strand
	// the new entry with no invalidation channel.
	c.retire(old)
	// Join BEFORE the entry becomes servable. Committing servers treat a
	// not-found reply to the invalidation multicast as proof the holder
	// discarded its lease (see invalidateHolders in internal/object);
	// joining first means a holder absent from the group can never be
	// about to serve from the entry being granted.
	c.host.Join(GroupID(snap.UID, snap.Seq), c.invalApply(e))
	c.mu.Lock()
	c.entries[snap.UID] = e
	c.mu.Unlock()
	c.pruneSome(time.Now())
	return e
}

// pruneSample bounds how many entries one Put inspects for expiry — a
// constant amortized sweep instead of a background goroutine.
const pruneSample = 8

// pruneSome retires up to pruneSample dead or expired entries. Without
// it, an entry whose object is never read again would be retained
// forever — snapshot bytes plus the invalidation-group membership from
// host.Join — so a long-lived node with object churn would grow without
// bound; Get only prunes the entry it was asked for. Map iteration
// starts at a different point each time, so repeated Puts eventually
// visit everything.
func (c *Cache) pruneSome(now time.Time) {
	c.mu.Lock()
	var victims []*Entry
	seen := 0
	for id, e := range c.entries {
		if seen >= pruneSample {
			break
		}
		seen++
		if !e.Valid(now) {
			delete(c.entries, id)
			victims = append(victims, e)
		}
	}
	c.mu.Unlock()
	for _, e := range victims {
		c.retire(e)
	}
}

// invalApply is the group delivery callback for one entry: an Inval
// record naming this entry's version (or a newer one) kills it. The
// group has served its purpose after the one message it will ever
// carry, so membership is dropped — asynchronously, to stay clear of
// the group host's delivery locks.
func (c *Cache) invalApply(e *Entry) group.Apply {
	return func(ctx context.Context, msg group.Delivered) ([]byte, error) {
		if msg.Kind != KindInval {
			return nil, nil
		}
		var inv Inval
		if err := decodeInval(msg.Payload, &inv); err != nil {
			return nil, err
		}
		if e.Snap.Seq <= inv.Seq {
			e.Kill()
			c.stats.Counter("lease.invalidated").Inc()
		}
		gid := msg.Group
		go c.host.Leave(gid)
		return nil, nil
	}
}

// Get returns the object's lease entry if it is still valid at now.
// Invalid entries are pruned (and their group membership dropped) on
// the way.
func (c *Cache) Get(id uid.UID, now time.Time) (*Entry, bool) {
	c.mu.Lock()
	e := c.entries[id]
	if e != nil && !e.Valid(now) {
		delete(c.entries, id)
		c.mu.Unlock()
		c.retire(e)
		e = nil
	} else {
		c.mu.Unlock()
	}
	if e == nil {
		c.stats.Counter("lease.l2.misses").Inc()
		return nil, false
	}
	c.stats.Counter("lease.l2.hits").Inc()
	return e, true
}

// Invalidate kills the object's cached lease locally (e.g. when the
// holder itself commits a write to the object through the servers).
func (c *Cache) Invalidate(id uid.UID) {
	c.mu.Lock()
	e := c.entries[id]
	delete(c.entries, id)
	c.mu.Unlock()
	c.retire(e)
}

// retire kills a superseded or pruned entry and leaves its group.
func (c *Cache) retire(e *Entry) {
	if e == nil {
		return
	}
	e.Kill()
	c.host.Leave(GroupID(e.Snap.UID, e.Snap.Seq))
}

// Local is a per-client L1 over the shared Cache: a tiny map of entry
// POINTERS, so an invalidation that lands in L2 is visible here with
// no cross-tier traffic (the shared dead flag is the write-through).
// Capacity is bounded; eviction is cheapest-possible (drop an
// arbitrary entry) since a miss only costs an L2 lookup.
type Local struct {
	cache *Cache
	cap   int

	mu      sync.Mutex
	entries map[uid.UID]*Entry
}

// DefaultLocalCap bounds an L1 when the caller passes cap <= 0.
const DefaultLocalCap = 64

// NewLocal builds an L1 view over the node's shared cache.
func NewLocal(cache *Cache, capacity int) *Local {
	if capacity <= 0 {
		capacity = DefaultLocalCap
	}
	return &Local{cache: cache, cap: capacity, entries: make(map[uid.UID]*Entry)}
}

// Get performs the layered lookup: L1 first, then the shared L2
// (caching the pointer on an L2 hit). Returns the entry only while the
// lease is valid at now.
func (l *Local) Get(id uid.UID, now time.Time) (*Entry, bool) {
	l.mu.Lock()
	e := l.entries[id]
	if e != nil && e.Valid(now) {
		l.mu.Unlock()
		l.cache.stats.Counter("lease.l1.hits").Inc()
		return e, true
	}
	if e != nil {
		delete(l.entries, id)
	}
	l.mu.Unlock()
	l.cache.stats.Counter("lease.l1.misses").Inc()
	e, ok := l.cache.Get(id, now)
	if !ok {
		return nil, false
	}
	l.mu.Lock()
	if len(l.entries) >= l.cap {
		for k := range l.entries {
			delete(l.entries, k)
			break
		}
	}
	l.entries[id] = e
	l.mu.Unlock()
	return e, true
}

// Put installs a fresh grant into the shared L2 and caches the pointer
// in this L1.
func (l *Local) Put(snap Snapshot) *Entry {
	e := l.cache.Put(snap)
	l.mu.Lock()
	if len(l.entries) >= l.cap {
		for k := range l.entries {
			delete(l.entries, k)
			break
		}
	}
	l.entries[snap.UID] = e
	l.mu.Unlock()
	return e
}

// Invalidate kills the object's lease in both tiers.
func (l *Local) Invalidate(id uid.UID) {
	l.mu.Lock()
	delete(l.entries, id)
	l.mu.Unlock()
	l.cache.Invalidate(id)
}
