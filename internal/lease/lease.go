// Package lease implements the client side of cached read leases: a
// tiered snapshot cache (a small per-client L1 over a shared per-node
// L2) whose entries are leased object snapshots granted by object
// servers, retired either eagerly — by one record the committing server
// sends to the holder's mailbox — or lazily by lease expiry when the
// holder is unreachable.
//
// A cache entry is (state, seq, expiry). While the entry is valid —
// not expired and not invalidated — the holder may apply read-only
// methods to the cached state locally, with zero RPCs and zero
// lock-manager traffic, and the result is guaranteed to reflect the
// latest committed version the reader could have observed: any commit
// that advances the object's version either retired this holder's lease
// at the old version or waited out the lease clock before acknowledging
// (the standard lease safety rule; see the server side in
// internal/object).
//
// Invalidation channel. Every node with a lease cache is a member of
// one group, Mailbox, joined once when the cache is built. A commit
// that replaces version s of an object sends each holder it granted a
// lease at s one Inval{UID, s}, a direct group.NaiveMulticast frame: a
// holder only needs to hear "versions ≤ s are dead" once, so no order
// between holders or between objects is asked of the channel. The
// mailbox kills and drops the node's entry for the object when that
// entry's version is s or older, leaves a newer grant alone, and answers
// without error whether or not it held anything.
//
// Update in place. The fence of a server's own commit carries the new
// version s' and its state in the same frame. A holder whose entry at s
// or older is still live swaps in an entry at s' under the OLD entry's
// expiry and answers Kept; the server then keeps it on its holder list at
// the expiry it recorded for the grant. An update never extends a lease,
// so every bound the expiry-based safety argument uses — the server's
// recorded expiry, the 2×TTL window a committer waits out — holds for the
// moved lease as it held for the grant. A holder with nothing live answers
// empty and drops off the list; a repeat of an update already applied
// answers Kept again and changes nothing.
package lease

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/group"
	"repro/internal/metrics"
	"repro/internal/uid"
)

// Mailbox is the group every lease cache's node joins to receive the
// Inval records committing servers send it.
const Mailbox = "lease/mailbox"

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
// reads too. An entry leaves the map only dead or expired, so an L1
// still pointing at it never serves it.
type Cache struct {
	stats *metrics.Registry

	mu      sync.Mutex
	entries map[uid.UID]*Entry
}

// NewCache builds the node's shared lease cache and joins host to the
// node's Mailbox. The join comes before any Put can make an entry
// servable: committing servers read a clean or not-found reply from a
// holder as proof that no lease at the version they replace survives
// there, and a Kept one as proof that the one lease left is at the new
// version (see invalidateHolders in internal/object).
func NewCache(host *group.Host, stats *metrics.Registry) *Cache {
	c := &Cache{stats: stats, entries: make(map[uid.UID]*Entry)}
	host.Join(Mailbox, c.deliver)
	return c
}

// Put installs a freshly granted lease. Any previous lease for the
// object is killed — a newer grant supersedes it.
func (c *Cache) Put(snap Snapshot) *Entry {
	e := &Entry{Snap: snap}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[snap.UID]; old != nil {
		old.Kill()
	}
	c.entries[snap.UID] = e
	c.pruneSomeLocked(now)
	return e
}

// pruneSample bounds how many entries one Put inspects for expiry — a
// constant amortized sweep instead of a background goroutine.
const pruneSample = 8

// pruneSomeLocked drops up to pruneSample dead or expired entries.
// Without it, an entry whose object is never read again would be
// retained forever with its snapshot bytes, so a long-lived node with
// object churn would grow without bound; Get only prunes the entry it
// was asked for. Map iteration starts at a different point each time,
// so repeated Puts eventually visit everything.
func (c *Cache) pruneSomeLocked(now time.Time) {
	seen := 0
	for id, e := range c.entries {
		if seen == pruneSample {
			return
		}
		seen++
		if !e.Valid(now) {
			delete(c.entries, id)
		}
	}
}

// deliver is the Mailbox's apply: an Inval at version s kills and drops
// the node's entry for the object when that entry's version is s or
// older. An updating Inval (NewSeq past s) puts an entry at NewSeq with
// the Inval's state in its place, under the old entry's expiry, when the
// old entry was still live, and answers Kept; it answers Kept too for a
// live entry already at NewSeq, so a repeated frame reads as the first
// did. A newer entry is left alone. Every other answer is empty, and none
// is an error.
func (c *Cache) deliver(_ context.Context, msg group.Delivered) ([]byte, error) {
	if msg.Kind != KindInval {
		return nil, nil
	}
	var inv Inval
	if err := decodeInval(msg.Payload, &inv); err != nil {
		return nil, err
	}
	id, err := uid.Parse(inv.UID)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	update := inv.NewSeq > inv.Seq
	var answer []byte
	c.mu.Lock()
	e := c.entries[id]
	killed := e != nil && e.Snap.Seq <= inv.Seq
	switch {
	case killed:
		live := e.Valid(now)
		e.Kill()
		delete(c.entries, id)
		if update && live {
			snap := e.Snap
			snap.State, snap.Seq = inv.State, inv.NewSeq
			c.entries[id] = &Entry{Snap: snap}
			answer = kept
		}
	case update && e != nil && e.Snap.Seq == inv.NewSeq && e.Valid(now):
		answer = kept
	}
	c.mu.Unlock()
	if killed {
		c.stats.Counter("lease.invalidated").Inc()
		if answer != nil {
			c.stats.Counter("lease.updated").Inc()
		}
	}
	return answer, nil
}

// Get returns the object's lease entry if it is still valid at now.
// An invalid entry is pruned on the way.
func (c *Cache) Get(id uid.UID, now time.Time) (*Entry, bool) {
	c.mu.Lock()
	e := c.entries[id]
	if e != nil && !e.Valid(now) {
		delete(c.entries, id)
		e = nil
	}
	c.mu.Unlock()
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
	if e := c.entries[id]; e != nil {
		e.Kill()
		delete(c.entries, id)
	}
	c.mu.Unlock()
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
	l.keep(id, e)
	return e, true
}

// keep caches e's pointer under id, dropping an arbitrary entry first
// when the L1 is full.
func (l *Local) keep(id uid.UID, e *Entry) {
	l.mu.Lock()
	if len(l.entries) >= l.cap {
		for k := range l.entries {
			delete(l.entries, k)
			break
		}
	}
	l.entries[id] = e
	l.mu.Unlock()
}

// Put installs a fresh grant into the shared L2 and caches the pointer
// in this L1.
func (l *Local) Put(snap Snapshot) *Entry {
	e := l.cache.Put(snap)
	l.keep(snap.UID, e)
	return e
}

// Invalidate kills the object's lease in both tiers.
func (l *Local) Invalidate(id uid.UID) {
	l.mu.Lock()
	delete(l.entries, id)
	l.mu.Unlock()
	l.cache.Invalidate(id)
}
