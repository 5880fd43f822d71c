// Package action implements the Atomic Action service of the paper (§2.2):
// top-level atomic actions with the properties of serialisability, failure
// atomicity and permanence of effect, in the style of Arjuna.
//
// The paper's protocols (§4.1) use two structuring forms, both begun by
// BeginTop:
//
//   - independent top-level actions — BeginTop() with no enclosing action;
//   - nested top-level actions — BeginTop() invoked from within another
//     action; it commits independently of the enclosing action, which is
//     precisely the semantics Figure 8 relies on.
//
// Every action is top-level: it owns its locks and participants itself,
// and its ID is the commit-record key. Commitment runs two-phase commit
// over the enlisted Participants; the commit point is a record in the coordinator's
// OutcomeLog, which recovering participants consult (presumed abort).
package action

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/conc"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/uid"
)

// Status is an action's lifecycle state.
type Status int

// Action statuses.
const (
	StatusRunning Status = iota + 1
	StatusPreparing
	StatusCommitted
	StatusAborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusPreparing:
		return "preparing"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Errors reported by action lifecycle operations.
var (
	// ErrNotRunning reports a Commit/Abort on an action that already ended.
	ErrNotRunning = errors.New("action: not running")
	// ErrPrepareFailed reports that two-phase commit aborted because a
	// participant could not prepare.
	ErrPrepareFailed = errors.New("action: participant failed to prepare")
	// ErrOutcomeLog reports that the commit record could not be made
	// durable: the action aborts, because without the record no recovery
	// could ever learn the commit.
	ErrOutcomeLog = errors.New("action: outcome log write failed")
	// ErrOutcomeUnknown marks a commit failure whose outcome the
	// coordinator could not determine: a one-phase attempt ended
	// ambiguously (the reply was lost after the request may have been
	// delivered) and the two-phase fallback could not reach the
	// participant to resolve the doubt — the combined round may have
	// committed at the participant's store with no way to report it.
	// Callers must treat such an action as in doubt, never as a definite
	// abort; the next activation of the object observes the true state.
	ErrOutcomeUnknown = errors.New("action: outcome unknown")
)

// Vote is a participant's phase-one answer (§4.1.2's read optimisation
// made explicit in the commit protocol).
type Vote int

// Phase-one votes.
const (
	// VoteCommit: the participant has stably prepared updates and needs a
	// phase-two Commit (or Abort) to learn the outcome.
	VoteCommit Vote = iota + 1
	// VoteReadOnly: the participant only read — it has released its
	// resources during Prepare and takes no part in phase two. Presumed
	// abort makes this safe: a read-only participant never consults the
	// outcome log because it has nothing to resolve.
	VoteReadOnly
)

// String implements fmt.Stringer.
func (v Vote) String() string {
	switch v {
	case VoteCommit:
		return "commit"
	case VoteReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("vote(%d)", int(v))
	}
}

// Participant is a resource that takes part in two-phase commit of a
// top-level action. tx is the top-level action's ID (the commit record
// key). Prepare returns the participant's vote; a VoteReadOnly
// participant must have released its resources by the time Prepare
// returns and is excluded from phase two. Abort may be invoked for a tx
// that never prepared (or voted read-only); it must be a no-op then.
type Participant interface {
	Name() string
	Prepare(ctx context.Context, tx string) (Vote, error)
	Commit(ctx context.Context, tx string) error
	Abort(ctx context.Context, tx string) error
}

// ErrOnePhaseIneligible is returned by a OnePhaser that cannot commit in
// a single combined round this time (e.g. the write would fan out to
// several stable stores, which needs the coordinator's outcome log to
// stay atomic). The coordinator falls back to ordinary two-phase commit;
// the participant must be left exactly as if CommitOnePhase was never
// called.
var ErrOnePhaseIneligible = errors.New("action: one-phase commit ineligible")

// OnePhaser is an optional Participant extension: when a top-level
// action has exactly one participant there is nothing to coordinate, so
// the commit decision can be delegated to the participant itself in a
// single combined prepare+commit round — one RPC instead of two, and no
// outcome-log write (the decision never outlives the call).
//
// CommitOnePhase either commits the participant's updates (VoteCommit),
// finds there was nothing to write and releases (VoteReadOnly), or
// fails — in which case the participant must be rolled back or left
// recoverable under presumed abort. ErrOnePhaseIneligible asks the
// coordinator to run ordinary 2PC instead.
type OnePhaser interface {
	CommitOnePhase(ctx context.Context, tx string) (Vote, error)
}

// Log records and reports transaction outcomes; it is the commit-record
// service of the 2PC coordinator. Record returns an error when the
// record could not be made durable — the coordinator must then abort
// rather than commit, because the commit point IS the durable record.
// Forget prunes a record that no participant can ever ask about again
// (every phase-two ack is in), so the log does not grow forever.
type Log interface {
	Record(tx string, o store.Outcome) error
	Forget(tx string) error
	store.OutcomeLog
}

// MemLog is an in-memory Log. The zero value is ready to use. Kept for
// tests that want a bare map; the default coordinator log is a
// BackendLog on the node's stable storage.
type MemLog struct {
	mu sync.Mutex
	m  map[string]store.Outcome
}

// NewMemLog returns an empty log.
func NewMemLog() *MemLog { return &MemLog{m: make(map[string]store.Outcome)} }

// Record implements Log.
func (l *MemLog) Record(tx string, o store.Outcome) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = make(map[string]store.Outcome)
	}
	l.m[tx] = o
	return nil
}

// Forget implements Log.
func (l *MemLog) Forget(tx string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.m, tx)
	return nil
}

// Lookup implements store.OutcomeLog.
func (l *MemLog) Lookup(tx string) store.Outcome {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m[tx]
}

// BackendLog is a Log whose records live in a storage.Backend — the
// coordinator's commit-record log on stable storage. Record syncs before
// returning (the commit point must be durable before phase two);
// Forget's delete is appended without a sync, since resurrecting a
// pruned record after a crash is harmless (it just gets pruned again).
type BackendLog struct {
	b func() storage.Backend
}

// NewBackendLog returns a log over the fixed backend b.
func NewBackendLog(b storage.Backend) *BackendLog {
	return &BackendLog{b: func() storage.Backend { return b }}
}

// NewBackendLogFunc returns a log that resolves its backend on every
// call. A node passes its store's current backend this way — commit
// records then share the node's stable storage AND follow it across a
// crash/reopen cycle, which replaces the backend instance (a captured
// one would stay closed forever).
func NewBackendLogFunc(b func() storage.Backend) *BackendLog {
	return &BackendLog{b: b}
}

// Record implements Log. A shut-down backend (the node is crashed)
// refuses: no durable record, no commit.
func (l *BackendLog) Record(tx string, o store.Outcome) error {
	b := l.b()
	if b == nil {
		return storage.ErrClosed
	}
	if err := b.PutOutcome(tx, uint8(o)); err != nil {
		return err
	}
	return b.Sync()
}

// Forget implements Log.
func (l *BackendLog) Forget(tx string) error {
	b := l.b()
	if b == nil {
		return storage.ErrClosed
	}
	return b.DeleteOutcome(tx)
}

// Lookup implements store.OutcomeLog. A backend that cannot answer (shut
// down mid-crash) reports OutcomeUnavailable — not "no record".
func (l *BackendLog) Lookup(tx string) store.Outcome {
	b := l.b()
	if b == nil {
		return store.OutcomeUnavailable
	}
	o, ok, err := b.Outcome(tx)
	if err != nil {
		return store.OutcomeUnavailable
	}
	if !ok {
		return store.OutcomeUnknown
	}
	return store.Outcome(o)
}

// Manager creates actions for one client/node.
type Manager struct {
	gen *uid.Generator
	log Log

	// inflight tracks top-level actions currently inside commit
	// processing — from before the first prepare RPC until the outcome
	// is durably recorded (or the action finished without a record).
	// Recovery-time lookups for these answer OutcomeUnavailable: a
	// participant's restart racing a LIVE commit must not read the
	// not-yet-written record as an affirmative "no record" and presume
	// abort — that rolls back a vote whose transaction is about to
	// commit. The set is volatile on purpose: if the coordinator itself
	// dies mid-flight it will never decide, and presumed abort becomes
	// correct again.
	mu       sync.Mutex
	inflight map[string]struct{}

	// pool runs the fan-outs of the manager's actions to their
	// participants.
	pool conc.Pool
}

// NewManager returns a manager minting action IDs from origin; log may be
// nil, in which case a fresh stable-storage-backed log over an in-memory
// backend is used.
func NewManager(origin string, log Log) *Manager {
	if log == nil {
		log = NewBackendLog(storage.NewMem())
	}
	return &Manager{gen: uid.NewGenerator(origin, 1), log: log}
}

// Log returns the manager's outcome log.
func (m *Manager) Log() Log { return m.log }

// beginCommitWindow marks tx as inside commit processing.
func (m *Manager) beginCommitWindow(tx string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inflight == nil {
		m.inflight = make(map[string]struct{})
	}
	m.inflight[tx] = struct{}{}
}

// endCommitWindow clears the in-flight marker once tx's fate is settled
// (outcome recorded, or finished without a record).
func (m *Manager) endCommitWindow(tx string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.inflight, tx)
}

// Lookup implements store.OutcomeLog with in-flight awareness: a
// transaction currently inside its coordinator's commit processing
// answers OutcomeUnavailable — the decision point has not passed, so
// neither commit nor presumed abort may be inferred yet; the asking
// participant keeps its intention pending and retries later. Expose THIS
// (not the raw log) as the coordinator's recovery-query surface.
func (m *Manager) Lookup(tx string) store.Outcome {
	m.mu.Lock()
	_, fl := m.inflight[tx]
	m.mu.Unlock()
	if fl {
		return store.OutcomeUnavailable
	}
	return m.log.Lookup(tx)
}

var _ store.OutcomeLog = (*Manager)(nil)

// Action is one top-level atomic action. Use Manager.BeginTop to create.
type Action struct {
	mgr *Manager
	id  string

	mu           sync.Mutex
	status       Status
	participants []Participant
	resolveHooks []func(committed bool)
	stash        map[string]any
	retainLog    bool
}

// BeginTop starts a top-level action. Called from within another action's
// dynamic extent, it is a *nested top-level action* (Figure 8): it commits
// or aborts independently of the enclosing action.
func (m *Manager) BeginTop() *Action {
	return &Action{mgr: m, id: m.gen.New().String(), status: StatusRunning}
}

// ID returns the action's identifier: its lock-owner identity and the key
// of its commit record.
func (a *Action) ID() string { return a.id }

// Status returns the current lifecycle state.
func (a *Action) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.status
}

// Enlist registers a two-phase-commit participant.
func (a *Action) Enlist(p Participant) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.status != StatusRunning {
		return fmt.Errorf("enlist %s in %s (%s): %w", p.Name(), a.id, a.status, ErrNotRunning)
	}
	a.participants = append(a.participants, p)
	return nil
}

// OnResolve registers a hook invoked when the action's fate is decided:
// commit (true) or abort (false).
//
// It reports whether the hook was registered. An action that has left
// StatusRunning has already taken its list of hooks into commit or abort
// processing, so a hook offered from then on — by a participant's Prepare,
// say — would never run: OnResolve refuses it, and a caller that was about to
// acquire something only the hook releases must not acquire it.
func (a *Action) OnResolve(f func(committed bool)) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.status != StatusRunning {
		return false
	}
	a.resolveHooks = append(a.resolveHooks, f)
	return true
}

// RetainOutcome marks the action's commit record as still needed after
// phase two: some lower-level resource — typically a store that was
// excluded from St with a prepared intention on board — may query the
// outcome at its own recovery, even though every Participant acked.
// Participants call this during phase two; it suppresses the outcome-log
// GC for this action.
func (a *Action) RetainOutcome() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.retainLog = true
}

func (a *Action) outcomeRetained() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retainLog
}

// ExpectPrepared opens the action's in-flight window ahead of Commit. A
// participant about to create remote prepared state before commit
// processing starts — a request that carries the action's phase one — calls
// it first, so that a recovery lookup racing the action sees "undecided",
// never a premature "no record" that presumed abort would drop a live
// intention on (see Manager.Lookup). The window closes when the action ends,
// whichever way.
func (a *Action) ExpectPrepared() {
	a.mgr.beginCommitWindow(a.id)
}

// StashOnce stores v under key if the key is empty and reports whether it
// stored. It lets per-action resources register exactly once.
func (a *Action) StashOnce(key string, v any) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stash == nil {
		a.stash = make(map[string]any)
	}
	if _, ok := a.stash[key]; ok {
		return false
	}
	a.stash[key] = v
	return true
}

// Stashed returns the value stored under key, if any.
func (a *Action) Stashed(key string) (any, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, ok := a.stash[key]
	return v, ok
}

// CommitReport describes the aftermath of a commit — including the vote
// anatomy, so callers (and benchmarks) can see which round-trip
// eliminations fired.
type CommitReport struct {
	// PhaseTwoErrors lists participants whose Commit call failed after the
	// commit point. The action IS committed; these participants recover
	// via the outcome log.
	PhaseTwoErrors []error
	// ReadOnlyVoters and CommitVoters count the phase-one votes. Read-only
	// voters were released after phase one and took no part in phase two.
	ReadOnlyVoters int
	CommitVoters   int
	// OnePhase reports that the commit ran as a single combined
	// prepare+commit round with the action's only participant.
	OnePhase bool
	// OutcomeLogged reports whether a commit record was written. All-read-
	// only and one-phase commits skip it (presumed abort makes this safe).
	OutcomeLogged bool
	// OutcomePruned reports that the commit record was garbage-collected
	// right after phase two: every commit voter acked and no participant
	// asked for retention, so no recovery can ever query this record.
	OutcomePruned bool
}

// Commit ends the action successfully: two-phase commit over all
// participants, with the commit record written to the manager's log
// between the phases. A prepare failure aborts the action and returns
// ErrPrepareFailed. Phase-two failures do not undo the commit — crashed
// participants learn the outcome from the log at recovery; such errors are
// reported via the returned CommitReport.
//
// Both phases fan out to all participants concurrently: participants are
// independent resources, so commit latency is that of the slowest
// participant rather than the sum over participants.
//
// Three round-trip eliminations apply (§4.1.2):
//
//   - a participant that voted VoteReadOnly is released during phase one
//     and is excluded from phase two;
//   - when every participant voted read-only, the outcome-log write is
//     skipped too — there is nothing any recovery would ask about;
//   - an action with a single participant that implements OnePhaser
//     commits in one combined prepare+commit round with no log write:
//     the decision is delegated to the participant.
func (a *Action) Commit(ctx context.Context) (*CommitReport, error) {
	a.mu.Lock()
	if a.status != StatusRunning {
		st := a.status
		a.mu.Unlock()
		return nil, fmt.Errorf("commit %s (%s): %w", a.id, st, ErrNotRunning)
	}
	a.status = StatusPreparing
	participants := a.participants
	resolveHooks := a.resolveHooks
	a.mu.Unlock()

	// Read-only fast path: nothing to prepare.
	if len(participants) == 0 {
		a.finish(StatusCommitted, resolveHooks)
		return &CommitReport{}, nil
	}

	// Open the in-flight window BEFORE any prepare can create remote
	// state: recovery lookups racing this commit must see "undecided",
	// never a premature "no record" (see Manager.Lookup).
	a.mgr.beginCommitWindow(a.id)
	defer a.mgr.endCommitWindow(a.id)

	// One-phase fast path: a single participant needs no coordination.
	if len(participants) == 1 {
		if op, ok := participants[0].(OnePhaser); ok {
			report, err := a.commitOnePhase(ctx, participants[0], op, resolveHooks)
			if !errors.Is(err, ErrOnePhaseIneligible) {
				return report, err
			}
			// Ineligible: the participant is untouched; run ordinary 2PC.
		}
	}

	// Phase one: concurrent, with first-failure abort — the first prepare
	// refusal cancels the prepares still in flight.
	votes, rolledBack, err := a.prepareAll(ctx, participants)
	if err != nil {
		a.recordAbort(rolledBack)
		a.finish(StatusAborted, resolveHooks)
		return nil, err
	}
	report := &CommitReport{}
	var voters []Participant
	for i, v := range votes {
		if v == VoteReadOnly {
			report.ReadOnlyVoters++
			continue
		}
		report.CommitVoters++
		voters = append(voters, participants[i])
	}

	// All participants voted read-only: they are already released, and
	// presumed abort means no recovery will ever consult the log for this
	// action — skip the outcome-log write and the whole of phase two.
	if len(voters) == 0 {
		a.finish(StatusCommitted, resolveHooks)
		return report, nil
	}

	// Commit point: the durable record. A failed write means the commit
	// never happened — no recovery could learn it — so the action aborts
	// and the prepared participants are rolled back.
	if err := a.mgr.log.Record(a.id, store.OutcomeCommitted); err != nil {
		// The failed write may have left the record behind unsynced: take
		// it back, so no lookup can read a commit that never happened.
		_ = a.mgr.log.Forget(a.id)
		a.recordAbort(a.rollbackAll(ctx, participants, a.id))
		a.finish(StatusAborted, resolveHooks)
		return nil, fmt.Errorf("%s: %v: %w", a.id, err, ErrOutcomeLog)
	}
	report.OutcomeLogged = true
	a.mu.Lock()
	a.status = StatusCommitted
	a.mu.Unlock()

	// Phase two: concurrent over the commit voters only, best effort;
	// failures are survivable and aggregated in participant order so the
	// report is deterministic.
	errs := a.mgr.pool.DoErr(len(voters), func(i int) error {
		if err := voters[i].Commit(ctx, a.id); err != nil {
			return fmt.Errorf("phase-2 commit at %s: %w", voters[i].Name(), err)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			report.PhaseTwoErrors = append(report.PhaseTwoErrors, err)
		}
	}
	// Outcome-log GC: once every commit voter has acked phase two —
	// and no participant flagged a lower-level straggler via
	// RetainOutcome — nobody can ever query this record again (a
	// participant only asks when it holds an unresolved intention, and
	// an acked Commit resolved it). Presumed abort makes the pruned
	// state indistinguishable from "never asked".
	if len(report.PhaseTwoErrors) == 0 && !a.outcomeRetained() {
		if a.mgr.log.Forget(a.id) == nil {
			report.OutcomePruned = true
		}
	}
	for _, f := range resolveHooks {
		f(true)
	}
	return report, nil
}

// recordAbort writes the abort record only when some participant did not
// acknowledge its rollback: with every intention gone no recovery will
// ask, and even for stragglers presumed abort gives the same answer with
// no record at all — the record is only a diagnostic breadcrumb while some
// participant is still unaccounted for.
func (a *Action) recordAbort(rolledBack bool) {
	if !rolledBack {
		_ = a.mgr.log.Record(a.id, store.OutcomeAborted)
	}
}

// rollbackAll aborts every participant under the given transaction ID
// and reports whether all of them acknowledged.
func (a *Action) rollbackAll(ctx context.Context, participants []Participant, tx string) bool {
	errs := a.mgr.pool.DoErr(len(participants), func(i int) error {
		return participants[i].Abort(ctx, tx)
	})
	for _, err := range errs {
		if err != nil {
			return false
		}
	}
	return true
}

// commitOnePhase delegates the commit decision to the action's only
// participant in a single combined round. No outcome log record is
// written on either path: the participant resolves its own fate before
// the call returns, and anything it left prepared-but-undecided (a crash
// mid-call) resolves to abort under the presumed-abort rule.
func (a *Action) commitOnePhase(ctx context.Context, p Participant, op OnePhaser, resolveHooks []func(bool)) (*CommitReport, error) {
	vote, err := op.CommitOnePhase(ctx, a.id)
	if errors.Is(err, ErrOnePhaseIneligible) {
		return nil, err
	}
	if err != nil {
		// Roll the participant back (idempotent if it already did).
		_ = p.Abort(ctx, a.id)
		a.finish(StatusAborted, resolveHooks)
		return nil, fmt.Errorf("%s: %s: %w: %w", a.id, p.Name(), err, ErrPrepareFailed)
	}
	report := &CommitReport{OnePhase: true}
	if vote == VoteReadOnly {
		report.ReadOnlyVoters = 1
	} else {
		report.CommitVoters = 1
	}
	a.finish(StatusCommitted, resolveHooks)
	return report, nil
}

// finish records the final status and fires the resolve hooks.
func (a *Action) finish(st Status, resolveHooks []func(bool)) {
	a.mu.Lock()
	a.status = st
	a.mu.Unlock()
	for _, f := range resolveHooks {
		f(st == StatusCommitted)
	}
}

// prepareAll runs phase one across all participants concurrently and
// collects their votes. On the first failure the remaining in-flight
// prepares are cancelled and every participant is rolled back — including
// ones whose prepare may have half-happened (e.g. a lost reply), ones
// that never prepared, and read-only voters already released (Abort is a
// no-op for them, per the Participant contract). The roll-back uses the
// caller's context, not the cancelled one; rolledBack reports whether
// every participant acknowledged it (which licenses pruning the abort
// record).
func (a *Action) prepareAll(ctx context.Context, participants []Participant) (votes []Vote, rolledBack bool, err error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	votes = make([]Vote, len(participants))
	a.mgr.pool.Do(len(participants), func(i int) {
		v, err := participants[i].Prepare(pctx, a.id)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
				firstIdx = i
			}
			mu.Unlock()
			cancel()
			return
		}
		votes[i] = v
	})
	if firstErr == nil {
		return votes, false, nil
	}
	rolledBack = a.rollbackAll(ctx, participants, a.id)
	// Wrap with %w so sentinel causes survive — a participant reporting
	// ErrOutcomeUnknown must stay visible through this chain or the
	// caller would misread an in-doubt commit as a definite abort.
	return nil, rolledBack, fmt.Errorf("%s: %s: %w: %w", a.id, participants[firstIdx].Name(), firstErr, ErrPrepareFailed)
}

// Abort ends the action, undoing its effects.
func (a *Action) Abort(ctx context.Context) error {
	a.mu.Lock()
	if a.status != StatusRunning {
		st := a.status
		a.mu.Unlock()
		return fmt.Errorf("abort %s (%s): %w", a.id, st, ErrNotRunning)
	}
	a.status = StatusAborted
	participants := a.participants
	resolveHooks := a.resolveHooks
	a.participants = nil
	a.resolveHooks = nil
	a.mu.Unlock()

	a.recordAbort(a.rollbackAll(ctx, participants, a.id))
	a.mgr.endCommitWindow(a.id) // opened early by ExpectPrepared, if at all
	for _, f := range resolveHooks {
		f(false)
	}
	return nil
}
