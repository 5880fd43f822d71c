package placement

import (
	"context"
	"sync"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/uid"
)

// Binder is the client's one binder: it resolves each object's shard
// through the placement client and delegates the bind to a per-shard
// core.Binder against that shard's group view database. A one-group
// deployment is a one-row table, resolved without a message, so it binds
// through here too. An action that binds objects from several shards
// transparently enlists participants from multiple groups — the ordinary
// 2PC coordinator then spans shards; an action whose objects all live in
// one shard keeps every one-group fast path, because each per-shard binder
// is a plain core.Binder.
//
// Stale placements heal at bind time (Client.Follow): if the resolved
// shard's database answers that the object moved away — an unknown-object
// answer naming the database it went to — the binder caches that shard and
// binds there, following at most one forward per shard. An unknown-object
// answer that names no destination means the object really is not there,
// and the error stands.
type Binder struct {
	// BindConfig is copied whole into every per-shard binder.
	core.BindConfig
	// Place resolves object → shard.
	Place *Client
	// RPC issues calls from the client node.
	RPC rpc.Client

	mu  sync.Mutex
	sub map[int]*core.Binder
}

// Bind resolves the object's shard and binds it there. Must be called
// inside a running client action.
func (b *Binder) Bind(ctx context.Context, act *action.Action, id uid.UID) (*core.Binding, error) {
	var bd *core.Binding
	err := b.Place.Follow(id, func(info ShardInfo) (err error) {
		bd, err = b.shardBinder(info).Bind(ctx, act, id)
		return err
	})
	return bd, err
}

// shardBinder returns the per-shard core.Binder for a shard, creating it
// on first use.
func (b *Binder) shardBinder(info ShardInfo) *core.Binder {
	b.mu.Lock()
	defer b.mu.Unlock()
	if sb, ok := b.sub[info.ID]; ok {
		return sb
	}
	sb := &core.Binder{BindConfig: b.BindConfig, DB: core.Client{RPC: b.RPC, DB: info.DB}}
	if b.sub == nil {
		b.sub = make(map[int]*core.Binder)
	}
	b.sub[info.ID] = sb
	return sb
}
