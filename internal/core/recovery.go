package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/action"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// RecoverServerNode runs the §4.1.2 server recovery protocol: for each
// object the node can serve, it executes Insert(UID, node) in a top-level
// action, its message's own. Although the node may already be in Sv_A, the
// Insert's write lock only succeeds when the object is quiescent, which is
// exactly the check that makes bindings safe across server crash and
// recovery.
func RecoverServerNode(ctx context.Context, node *sim.Node, db transport.Addr, ids []uid.UID) error {
	cli := Client{RPC: node.Client(), DB: db}
	for _, id := range ids {
		if _, err := cli.Do(ctx, InsertOp("", id, node.Name())); err != nil {
			return fmt.Errorf("core: recovery Insert(%v,%s): %w", id, node.Name(), err)
		}
	}
	return nil
}

// RecoverStoreNode runs the §4.2 store recovery protocol: for each object,
// the node refreshes its copy of the latest committed state from a current
// St member under an atomic action and then Includes itself back into
// St_A, making its object states available again.
func RecoverStoreNode(ctx context.Context, node *sim.Node, db transport.Addr, ids []uid.UID) error {
	cli := Client{RPC: node.Client(), DB: db}
	mgr := action.NewManager(string(node.Name())+"/st-recovery", nil)
	for _, id := range ids {
		act := mgr.BeginTop()
		owner := act.ID()
		err := recoverOneState(ctx, cli, node, owner, id)
		if err != nil {
			_ = cli.EndAction(context.Background(), owner, false)
			_ = act.Abort(context.Background())
			return err
		}
		// Cancellation stripped, as on the error path: an action left open
		// holds the entry's write lock, and nothing else would end it.
		if err := cli.EndAction(context.WithoutCancel(ctx), owner, true); err != nil {
			_ = act.Abort(context.Background())
			return err
		}
		if _, err := act.Commit(ctx); err != nil {
			return err
		}
	}
	return nil
}

// recoverOneState runs the §4.2 catch-up for one object: Include FIRST —
// acquiring the St entry's write lock, which waits out every in-flight
// action's view read lock and blocks new binds — and only then, with
// commit processing quiescent, fetch the latest committed state from
// another view member. Fetching before the lock is the race the chaos
// harness found: a commit can land between the fetch and the Include, and
// the node re-enters the view holding a stale state (st views diverge; a
// later catch-up from the stale copy loses the commit). The fetched state
// is adopted only when strictly newer than the local copy — the local
// store may be AHEAD of a reachable member when this node resolved an
// in-doubt commit at restart that the member has not yet processed.
func recoverOneState(ctx context.Context, cli Client, node *sim.Node, owner string, id uid.UID) error {
	self := node.Name()
	view, err := cli.Include(ctx, owner, id, self)
	if err != nil {
		return fmt.Errorf("core: recovery Include(%v,%s): %w", id, self, err)
	}
	ownSeq, haveOwn := node.Store().SeqOf(id)
	// "Commit processing quiescent" still leaves commits whose phase two
	// never arrived: a member holds the acknowledged version only as a
	// pinned intention. Newest has such a member apply what its
	// coordinators have decided before it is read (an undecided pin keeps
	// blocking writers, and the stale-version check refuses a copy loaded
	// underneath it).
	best, reachable := store.Newest(ctx, node.Client(), view, self, id)
	others := len(view)
	if slices.Contains(view, self) {
		others--
	}
	switch {
	case reachable > 0:
		if !haveOwn || best.Seq > ownSeq {
			if err := node.Store().Put(id, best.Data, best.Seq); err != nil {
				return fmt.Errorf("core: recovery adopt %v at %s: %w", id, self, err)
			}
		}
		// Else our copy is current or ahead (an in-doubt commit resolved at
		// restart that the member has not processed yet) — keep it.
	case others == 0:
		if !haveOwn {
			// Sole view member with no local state: nothing survives.
			return fmt.Errorf("core: recovery %v: no surviving state anywhere", id)
		}
		// Sole member: whatever this store holds is the surviving state.
	default:
		// Other members exist but none is reachable: we cannot rule out a
		// later chain on one of them, so the Include must not stand. The
		// caller aborts the recovery action, rolling the Include back.
		return fmt.Errorf("core: recovery %v: no reachable St member among %v", id, view)
	}
	return nil
}
