package chaos

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/object"
	"repro/internal/store"
	"repro/internal/uid"
)

// checkInvariants runs after quiesce and returns every breach found. The
// checks quantify over all interleavings, so any non-empty result is a
// real protocol bug (or a broken repair path), reproducible from the
// seed's fault plan.
func (r *runner) checkInvariants() []string {
	var violations []string
	bad := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// I1 + I2: St view consistency and conservation, per object.
	total := 0
	for i, id := range r.w.Objects {
		view, err := r.sys.StoreView(ctx, id)
		if err != nil {
			bad("obj%d: cannot read final St view: %v", i, err)
			continue
		}
		if len(view) == 0 {
			bad("obj%d: final St view is empty", i)
			continue
		}
		var (
			refVal  string
			refSeq  uint64
			haveRef bool
		)
		for _, st := range view {
			n := r.w.Cluster.Node(st)
			if n == nil || !n.Up() {
				bad("obj%d: St view member %s is down after quiesce", i, st)
				continue
			}
			v, err := n.Store().Read(id)
			if err != nil {
				bad("obj%d: St view member %s has no state: %v", i, st, err)
				continue
			}
			if !haveRef {
				refVal, refSeq, haveRef = string(v.Data), v.Seq, true
				continue
			}
			if string(v.Data) != refVal || v.Seq != refSeq {
				bad("obj%d: St view diverged: %s has %q/%d, expected %q/%d",
					i, st, v.Data, v.Seq, refVal, refSeq)
			}
		}
		if !haveRef {
			continue
		}
		val, err := strconv.Atoi(refVal)
		if err != nil {
			bad("obj%d: corrupt final state %q", i, refVal)
			continue
		}
		r.report.FinalValues["obj"+strconv.Itoa(i)] = val
		total += val

		if r.cfg.Workload != WorkloadBank && !r.pairObject(i) {
			// No lost committed update, no phantom: the settled value
			// covers every delta the facade reported committed, and exceeds
			// that only by deltas it reported in doubt (ErrOutcomeUnknown).
			// An action it reported ErrAborted contributes nothing — "every
			// effect was undone" is the contract under test.
			t := r.tallies[i]
			if val < t.committed || val > t.committed+t.uncertain {
				bad("obj%d: value %d outside [committed=%d, committed+uncertain=%d] — lost or phantom update",
					i, val, t.committed, t.committed+t.uncertain)
				// Breadcrumbs for replay: the observed post-increment values
				// of every committed action on this object (a duplicated
				// value means two actions committed over the same base on
				// different store chains — split brain; a value above the
				// final one means a committed suffix was lost), plus each
				// store's final state so the diverged chain is visible.
				r.note("obj%d committed chain: %s", i, r.chainFor(i))
				r.note("obj%d non-committed ops: %s", i, r.lostFor(i))
				r.note("obj%d final St view %v; per-store states: %s", i, view, r.storeStates(id))
			}
		}
	}
	if r.cfg.Workload == WorkloadBank {
		// Conservation is exact for transfers regardless of uncertain
		// outcomes: each action moves value atomically or not at all.
		if total != 0 {
			bad("bank total = %d, want 0 — money created or destroyed", total)
		}
	}
	if r.cfg.Workload == WorkloadReadOnlyRegister {
		if sum := r.report.FinalValues["obj0"] + r.report.FinalValues["obj1"]; sum != 0 {
			bad("pair total = %d, want 0 — a transfer was not failure-atomic", sum)
			// A transfer's trace is filed under its second leg, obj1.
			r.note("obj1 committed chain: %s", r.chainFor(1))
			r.note("obj1 non-committed ops: %s", r.lostFor(1))
			r.note("per-store states: obj0 %s; obj1 %s", r.storeStates(r.w.Objects[0]), r.storeStates(r.w.Objects[1]))
		}
	}

	// I3: outcome convergence — no store may still hold a
	// prepared-but-undecided intention after the recovery sweep.
	for _, st := range r.w.Sts {
		if pend := r.w.Cluster.Node(st).Store().PendingTxs(); len(pend) > 0 {
			bad("%s: unresolved intentions after recovery: %v", st, pend)
		}
	}

	// I4: server quiescence — every surviving instance has released every
	// action (wedged ones were repaired during quiesce and reported).
	cli := r.w.Cluster.Node(r.w.Clients[0]).Client()
	for _, sv := range r.w.Svs {
		if !r.w.Cluster.Node(sv).Up() {
			bad("%s: server still down after quiesce", sv)
			continue
		}
		for i, id := range r.w.Objects {
			stat, err := object.ServerRef{Client: cli, Node: sv, UID: id}.Status(ctx)
			if err != nil {
				bad("obj%d@%s: status query failed: %v", i, sv, err)
				continue
			}
			if stat.Active && (stat.Users > 0 || stat.Prepared > 0) {
				bad("obj%d@%s: instance not quiescent (users=%d prepared=%d)", i, sv, stat.Users, stat.Prepared)
			}
		}
	}

	// I5: outcome-log agreement — what a client observed never
	// contradicts what its coordinator logged.
	r.mu.Lock()
	ops := append([]opRec(nil), r.ops...)
	r.mu.Unlock()
	for _, op := range ops {
		logged := r.w.Mgrs[op.client].Lookup(op.tx)
		switch op.class {
		case opCommitted:
			if logged == store.OutcomeAborted {
				bad("tx %s: client observed commit, log says aborted", op.tx)
			}
		case opAborted:
			if logged == store.OutcomeCommitted {
				bad("tx %s: client observed abort, log says committed", op.tx)
			}
		}
	}

	// I7: lease-read freshness — no lease-served read may observe a value
	// older than the newest committed value some client had already seen
	// acknowledged when the read began. The floor is conservative (it
	// misses commits acknowledged concurrently with the read), so any
	// breach is a stale lease that outlived its object's commit fence. A
	// mixed transaction's leased read is held to a later floor — taken when
	// its body finished — because commit-time revalidation turns it into a
	// locked server read; a breach there is a transaction that committed
	// over a snapshot it should have found superseded.
	r.mu.Lock()
	reads := append([]leaseReadRec(nil), r.leaseReads...)
	r.mu.Unlock()
	for _, rec := range reads {
		switch {
		case !rec.leased || rec.saw >= rec.floor:
		case rec.mixed:
			bad("obj%d: mixed transaction committed having lease-read %d after %d was acknowledged committed — its read was not revalidated at commit",
				rec.obj, rec.saw, rec.floor)
		default:
			bad("obj%d: lease-served read observed %d after %d was acknowledged committed — stale lease outlived the commit fence",
				rec.obj, rec.saw, rec.floor)
		}
	}

	// I8: what a read-only client's committed reads returned
	// (WorkloadReadOnlyRegister). A counter key only grows, so a read is
	// bounded below by the increments its own node's writer had seen
	// acknowledged before the read began — the two bind by the same rule
	// from the same node — and above by every increment begun before the
	// read returned, less those already reported aborted; one client's reads
	// of one key never decrease; and the pair, which transfers keep at a sum
	// of zero, is never seen at another sum by a committed two-object read.
	r.mu.Lock()
	regReads := append([]registerRead(nil), r.regReads...)
	r.mu.Unlock()
	type readerKey struct {
		client string
		obj    int
	}
	// A violation notes, once per object, the breadcrumbs of the actions
	// that wrote or read it (runner.breadcrumbs).
	last := make(map[readerKey]int)
	traced := make(map[int]bool)
	crumbs := func(objs ...int) {
		for _, obj := range objs {
			if !traced[obj] {
				traced[obj] = true
				r.note("obj%d committed and uncertain actions:%s", obj, r.breadcrumbs(obj))
			}
		}
	}
	for _, rd := range regReads {
		if rd.pair {
			if rd.saw != 0 {
				bad("%s: a committed read of the pair saw a sum of %d, want 0 — its two reads straddled a transfer", rd.client, rd.saw)
				crumbs(0, 1)
			}
			continue
		}
		if rd.saw < rd.lo || rd.saw > rd.hi {
			bad("obj%d: %s read %d, outside [own increments acknowledged before the read %d, increments begun and not aborted %d]",
				rd.obj, rd.client, rd.saw, rd.lo, rd.hi)
			crumbs(rd.obj)
		}
		k := readerKey{string(rd.client), rd.obj}
		if rd.saw < last[k] {
			bad("obj%d: %s read %d after it had read %d — reads of one key went backwards", rd.obj, rd.client, rd.saw, last[k])
			crumbs(rd.obj)
		}
		last[k] = max(last[k], rd.saw)
	}

	return violations
}

// pairObject reports whether object i is one of the two WorkloadReadOnlyRegister
// moves value between: conserved as a pair, not one by one.
func (r *runner) pairObject(i int) bool {
	return r.cfg.Workload == WorkloadReadOnlyRegister && i < 2
}

// storeStates renders every store node's committed (value, seq, tx) for
// id — the per-replica view a diverged chain shows up in.
func (r *runner) storeStates(id uid.UID) string {
	var parts []string
	for _, st := range r.w.Sts {
		n := r.w.Cluster.Node(st)
		v, err := n.Store().Read(id)
		if err != nil {
			parts = append(parts, fmt.Sprintf("%s=<%v>", st, err))
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%s@%d(%s)", st, v.Data, v.Seq, v.TxID))
	}
	return strings.Join(parts, " ")
}

// chainFor renders the committed (value, tx) pairs of one counter object
// in value order — the trace a replay reads to see which committed
// update diverged or vanished.
func (r *runner) chainFor(obj int) string {
	r.mu.Lock()
	ops := append([]opRec(nil), r.ops...)
	r.mu.Unlock()
	var chain []opRec
	for _, op := range ops {
		if op.class == opCommitted && op.obj == obj && !op.read {
			chain = append(chain, op)
		}
	}
	sort.Slice(chain, func(i, j int) bool { return chain[i].val < chain[j].val })
	parts := make([]string, len(chain))
	for i, op := range chain {
		shape := ""
		if op.onePhase {
			shape = " one-phase"
		}
		parts[i] = fmt.Sprintf("%d=%s%s excluded=%v", op.val, op.tx, shape, op.excluded)
	}
	return strings.Join(parts, "\n    ")
}

// lostFor renders the NON-committed ops of one counter object with the
// value each observed (0 = the invoke never returned) and the error it
// ended on — the trace that identifies an aborted action whose increment
// nonetheless leaked into the committed history.
func (r *runner) lostFor(obj int) string {
	r.mu.Lock()
	ops := append([]opRec(nil), r.ops...)
	r.mu.Unlock()
	var parts []string
	for _, op := range ops {
		if op.class == opCommitted || op.obj != obj || op.read {
			continue
		}
		class := "aborted"
		if op.class == opUncertain {
			class = "uncertain"
		}
		parts = append(parts, fmt.Sprintf("%s %s saw=%d err=%q", op.tx, class, op.val, op.errMsg))
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, "\n    ")
}
