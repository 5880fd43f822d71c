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
// Stale placements self-heal at bind time: if the resolved shard's
// database does not know the object (CodeUnknownObject — the object was
// rebalanced away and deregistered), the binder forces a placement
// Refresh and, when the epoch has advanced, retries the bind once
// against the new shard. An epoch that has NOT advanced means the
// mapping is current and the object genuinely is not there, so the
// original error stands.
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
	info, epoch, err := b.Place.Resolve(ctx, id)
	if err != nil {
		return nil, err
	}
	bd, err := b.shardBinder(info).Bind(ctx, act, id)
	if err == nil || rpc.CodeOf(err) != core.CodeUnknownObject {
		return bd, err
	}
	// The shard's database does not know the object. Re-resolve: a
	// rebalance bumps the placement epoch when it reassigns, so an
	// advanced epoch (or changed shard) means our cache was stale.
	fresh, freshEpoch, rerr := b.Place.Refresh(ctx, id)
	if rerr != nil || (fresh.ID == info.ID && freshEpoch == epoch) {
		return nil, err
	}
	return b.shardBinder(fresh).Bind(ctx, act, id)
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
