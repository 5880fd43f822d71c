package placement

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// Move reassigns a batch of objects to the target shard: the §4.2
// catch-up machinery re-purposed for planned migration instead of crash
// recovery. Objects already placed at the target are skipped. Under a
// single top-level action the batch is migrated as one unit:
//
//  1. Each object is deregistered at the database it lives in, found as a
//     binder finds it (Client.Follow), with the target's database named as
//     where it goes — write locks on both entries plus the use-list
//     quiescence check, so the move waits out in-flight bindings rather
//     than racing them (a CodeNotQuiescent / CodeLockRefused refusal
//     retries the whole batch with backoff until ctx expires). An object
//     the follow finds at the target is skipped;
//  2. each object's newest committed state among its source St view is
//     installed on every target store that is behind — the same
//     highest-surviving-version rule as store recovery, one helper for
//     both (store.Newest). A source store whose intention on the object
//     is still undecided refuses the move as not quiescent, to retry;
//  3. each object is registered at the target group's database over the
//     target group's nodes;
//  4. the target database commits first, then each source database. A
//     source's commit is the flip of its objects: their deregistrations and
//     the tombstones that forward to the target are one stable write.
//
// The commit order bounds every crash window to a consistent state. A crash
// before the target commits aborts every database (locks cleaned by the
// janitor), and every object stays at its source with no forward. Between
// the target's commit and a source's, that source's objects are registered
// at both databases, but the source's entries sit behind the move's write
// locks, so a bind there is refused and retried, never served; a bind that
// goes to the target — a client whose ring or cache names it — finds the
// state the move installed. Only when a source's commit is lost for good
// (the mover, or the source, crashes in that window) does the cleanup
// abort the source half: its entries come back, with no forward, and its
// objects stay registered at both databases until a Move runs again.
// After a source commits, its entries are gone and a stale client's bind
// there follows the forward to the target.
//
// leaseFence, set when the deployment runs read leases, force-passivates
// each object's source instances before its source commits, fencing any
// leases they granted (a commit on the target shard could never reach
// those holders). Leaseless deployments pass false and keep the gentler
// behaviour: source instances are left to drain and the write-locked
// database entries alone keep new binds out.
func Move(ctx context.Context, place *Client, actions *action.Manager, rpcc rpc.Client, ids []uid.UID, target int, leaseFence bool) error {
	tgt, err := place.Shard(target)
	if err != nil || len(place.table) == 1 {
		return err // on one shard, every object is at the target already
	}
	backoff := 5 * time.Millisecond
	for {
		err := moveOnce(ctx, place, actions, rpcc, ids, tgt, leaseFence)
		switch rpc.CodeOf(err) {
		case core.CodeNotQuiescent, core.CodeLockRefused:
			// An in-flight binding or commit holds one of the objects; let
			// it finish.
			select {
			case <-ctx.Done():
				return fmt.Errorf("placement: move %v: %w (last: %v)", ids, ctx.Err(), err)
			case <-time.After(backoff):
			}
			if backoff < 200*time.Millisecond {
				backoff *= 2
			}
		default:
			return err
		}
	}
}

func moveOnce(ctx context.Context, place *Client, actions *action.Manager, rpcc rpc.Client, ids []uid.UID, tgt ShardInfo, leaseFence bool) error {
	act := actions.BeginTop()
	owner := act.ID()
	tgtDB := core.Client{RPC: rpcc, DB: tgt.DB}
	// Objects of one batch may come from several source shards, and a
	// follow takes the move's locks at every database it asks; each ends
	// its share of the action exactly once.
	srcDBs := make(map[transport.Addr]core.Client)
	abort := func() {
		for _, db := range srcDBs {
			_ = db.EndAction(context.Background(), owner, false)
		}
		_ = tgtDB.EndAction(context.Background(), owner, false)
		_ = act.Abort(context.Background())
	}

	for _, id := range ids {
		var src ShardInfo
		var view []transport.Addr
		var class string
		err := place.Follow(id, func(info ShardInfo) (err error) {
			src = info
			if info.ID == tgt.ID {
				// Already at the target, unless it answers with a forward.
				_, _, err = tgtDB.GetView(ctx, "", id)
				return err
			}
			db := core.Client{RPC: rpcc, DB: info.DB}
			srcDBs[info.DB] = db
			view, class, err = db.Deregister(ctx, owner, id, tgt.DB)
			return err
		})
		if err != nil {
			abort()
			return err
		}
		if src.ID == tgt.ID {
			continue
		}

		// Catch-up: the newest committed state among the (lock-protected)
		// source view is the object's state; unreachable members are
		// skipped — the survivors are mutually consistent, so any reachable
		// copy of the highest sequence is authoritative. A member still
		// holding an undecided intention on the object may hold a commit
		// the others missed: the move waits for its outcome rather than
		// copy the version beneath it.
		head, _ := store.Newest(ctx, rpcc, view, "", id)
		if head.Seq == 0 {
			abort()
			return fmt.Errorf("placement: move %v: no committed state reachable in source view %v", id, view)
		}
		if head.Pinned {
			abort()
			return rpc.Errorf(core.CodeNotQuiescent, "placement: move %v: an undecided intention is pending in source view %v", id, view)
		}
		for _, st := range tgt.Sts {
			remote := store.RemoteStore{Client: rpcc, Node: st}
			if v, rerr := remote.Read(ctx, id); rerr == nil && v.Seq >= head.Seq {
				continue
			}
			if perr := remote.Put(ctx, id, head.Data, head.Seq); perr != nil {
				abort()
				return fmt.Errorf("placement: move %v: install state at %s: %w", id, st, perr)
			}
		}

		if err := tgtDB.Register(ctx, owner, id, class, tgt.Svs, tgt.Sts); err != nil {
			abort()
			return err
		}

		// Fence stale read leases BEFORE the source commits: a lease granted
		// by a source server enrols only holders that server knows, so a
		// commit on the target shard could never invalidate it — it would
		// keep serving the pre-move state for its full TTL after writes
		// land on the new shard. Force-passivating the source instances
		// runs the server-side passivation fence (every holder is
		// invalidated through its mailbox, or waited out) while the
		// write-locked database entries still block new binds and hence
		// new grants. Unreachable servers are skipped: a crashed server
		// lost its volatile instance with its process; a partitioned one
		// is the lease fault model's documented residual. Leaseless
		// deployments skip the whole fence — force-passivation would only
		// fail the instances' pending ops for nothing.
		if !leaseFence {
			continue
		}
		for _, sv := range src.Svs {
			ref := object.ServerRef{Client: rpcc, Node: sv, UID: id}
			if _, perr := ref.Passivate(ctx, true); perr != nil &&
				!errors.Is(perr, transport.ErrUnreachable) && !errors.Is(perr, transport.ErrRequestLost) {
				abort()
				return fmt.Errorf("placement: move %v: lease fence at %s: %w", id, sv, perr)
			}
		}
	}
	if err := tgtDB.EndAction(ctx, owner, true); err != nil {
		abort()
		return err
	}
	var firstErr error
	for _, db := range srcDBs {
		if err := db.EndAction(ctx, owner, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		_ = act.Abort(context.Background())
		return firstErr
	}
	_, err := act.Commit(ctx)
	return err
}
