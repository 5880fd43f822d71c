package action

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/uid"
)

// resolveFunc is a function as a Resolver.
type resolveFunc func(committed bool)

func (f resolveFunc) Resolved(committed bool) { f(committed) }

// fakeParticipant records lifecycle calls and can be told to fail prepare
// or vote read-only.
type fakeParticipant struct {
	name        string
	failPrepare bool
	readOnly    bool

	mu       sync.Mutex
	prepares []string
	commits  []string
	aborts   []string
}

func (p *fakeParticipant) Name() string { return p.name }

func (p *fakeParticipant) Prepare(_ context.Context, tx string) (Vote, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.prepares = append(p.prepares, tx)
	if p.failPrepare {
		return 0, errors.New("refusing to prepare")
	}
	if p.readOnly {
		return VoteReadOnly, nil
	}
	return VoteCommit, nil
}

func (p *fakeParticipant) Commit(_ context.Context, tx string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.commits = append(p.commits, tx)
	return nil
}

func (p *fakeParticipant) Abort(_ context.Context, tx string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.aborts = append(p.aborts, tx)
	return nil
}

func counts(p *fakeParticipant) (int, int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.prepares), len(p.commits), len(p.aborts)
}

func TestTopLevelCommitRunsTwoPhase(t *testing.T) {
	m := NewManager("client", nil)
	a := m.BeginTop()
	p1 := &fakeParticipant{name: "s1"}
	p2 := &fakeParticipant{name: "s2"}
	if err := a.Enlist(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Enlist(p2); err != nil {
		t.Fatal(err)
	}
	rep, err := a.Commit(context.Background())
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if len(rep.PhaseTwoErrors) != 0 {
		t.Fatalf("phase-2 errors: %v", rep.PhaseTwoErrors)
	}
	for _, p := range []*fakeParticipant{p1, p2} {
		pr, cm, ab := counts(p)
		if pr != 1 || cm != 1 || ab != 0 {
			t.Fatalf("%s lifecycle = %d/%d/%d, want 1/1/0", p.name, pr, cm, ab)
		}
	}
	if !rep.OutcomeLogged || !rep.OutcomePruned {
		t.Fatalf("report = %+v, want outcome logged then pruned (all voters acked)", rep)
	}
	if m.Log().Lookup(a.ID()) != store.OutcomeUnknown {
		t.Fatal("fully-acked commit record must be garbage-collected")
	}
	if a.Status() != StatusCommitted {
		t.Fatalf("status = %v", a.Status())
	}
}

func TestPrepareFailureAbortsAll(t *testing.T) {
	m := NewManager("client", nil)
	a := m.BeginTop()
	good := &fakeParticipant{name: "good"}
	bad := &fakeParticipant{name: "bad", failPrepare: true}
	_ = a.Enlist(good)
	_ = a.Enlist(bad)
	_, err := a.Commit(context.Background())
	if !errors.Is(err, ErrPrepareFailed) {
		t.Fatalf("err = %v, want ErrPrepareFailed", err)
	}
	if a.Status() != StatusAborted {
		t.Fatalf("status = %v", a.Status())
	}
	_, gc, ga := counts(good)
	if gc != 0 || ga != 1 {
		t.Fatalf("good commits=%d aborts=%d, want 0/1", gc, ga)
	}
	_, _, ba := counts(bad)
	if ba != 1 {
		t.Fatalf("bad aborts=%d, want 1", ba)
	}
	// Every participant acknowledged its rollback, so no abort record is
	// kept — presumed abort answers any later query the same.
	if m.Log().Lookup(a.ID()) != store.OutcomeUnknown {
		t.Fatal("a fully-acked abort must leave no record")
	}
}

func TestReadOnlyCommitSkipsTwoPhase(t *testing.T) {
	m := NewManager("client", nil)
	a := m.BeginTop()
	resolved := false
	a.OnResolve(resolveFunc(func(committed bool) { resolved = committed }))
	if _, err := a.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !resolved {
		t.Fatal("resolve hook not fired with commit=true")
	}
	// Read-only actions leave no record (presumed abort makes this safe).
	if m.Log().Lookup(a.ID()) != store.OutcomeUnknown {
		t.Fatal("read-only commit should not write a record")
	}
}

func TestReadOnlyVoterReleasedAfterPhaseOne(t *testing.T) {
	// §4.1.2 read optimisation: a participant that votes read-only is
	// excluded from phase two; with every participant read-only the
	// outcome-log write is skipped too — zero phase-two calls, zero log
	// records.
	m := NewManager("client", nil)
	a := m.BeginTop()
	p1 := &fakeParticipant{name: "r1", readOnly: true}
	p2 := &fakeParticipant{name: "r2", readOnly: true}
	_ = a.Enlist(p1)
	_ = a.Enlist(p2)
	rep, err := a.Commit(context.Background())
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	for _, p := range []*fakeParticipant{p1, p2} {
		pr, cm, ab := counts(p)
		if pr != 1 || cm != 0 || ab != 0 {
			t.Fatalf("%s lifecycle = %d/%d/%d, want 1/0/0 (no phase two)", p.name, pr, cm, ab)
		}
	}
	if rep.ReadOnlyVoters != 2 || rep.CommitVoters != 0 {
		t.Fatalf("votes = %d read-only / %d commit, want 2/0", rep.ReadOnlyVoters, rep.CommitVoters)
	}
	if rep.OutcomeLogged {
		t.Fatal("all-read-only commit must not write the outcome log")
	}
	if m.Log().Lookup(a.ID()) != store.OutcomeUnknown {
		t.Fatal("outcome log must stay empty for an all-read-only commit")
	}
	if a.Status() != StatusCommitted {
		t.Fatalf("status = %v", a.Status())
	}
}

func TestMixedVotesRunPhaseTwoOnCommitVotersOnly(t *testing.T) {
	m := NewManager("client", nil)
	a := m.BeginTop()
	ro := &fakeParticipant{name: "reader", readOnly: true}
	rw := &fakeParticipant{name: "writer"}
	_ = a.Enlist(ro)
	_ = a.Enlist(rw)
	rep, err := a.Commit(context.Background())
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if rep.ReadOnlyVoters != 1 || rep.CommitVoters != 1 || !rep.OutcomeLogged {
		t.Fatalf("report = %+v, want 1 read-only, 1 commit voter, outcome logged", rep)
	}
	if _, cm, _ := counts(ro); cm != 0 {
		t.Fatal("read-only voter must not see phase two")
	}
	if _, cm, _ := counts(rw); cm != 1 {
		t.Fatal("commit voter must see phase two")
	}
	if !rep.OutcomePruned || m.Log().Lookup(a.ID()) != store.OutcomeUnknown {
		t.Fatalf("report = %+v, lookup = %v; the record must be written for phase two and pruned once the commit voter acked",
			rep, m.Log().Lookup(a.ID()))
	}
}

// onePhaseParticipant counts combined rounds and can refuse eligibility
// or fail outright.
type onePhaseParticipant struct {
	fakeParticipant
	ineligible   bool
	failCombined bool
	combined     int
}

func (p *onePhaseParticipant) CommitOnePhase(_ context.Context, tx string) (Vote, error) {
	if p.ineligible {
		return 0, ErrOnePhaseIneligible
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.combined++
	if p.failCombined {
		return 0, errors.New("combined round failed")
	}
	if p.readOnly {
		return VoteReadOnly, nil
	}
	return VoteCommit, nil
}

func TestSingleParticipantCommitsOnePhase(t *testing.T) {
	m := NewManager("client", nil)
	a := m.BeginTop()
	p := &onePhaseParticipant{fakeParticipant: fakeParticipant{name: "solo"}}
	_ = a.Enlist(p)
	rep, err := a.Commit(context.Background())
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if !rep.OnePhase || rep.CommitVoters != 1 || rep.OutcomeLogged {
		t.Fatalf("report = %+v, want one-phase commit with no log write", rep)
	}
	pr, cm, _ := counts(&p.fakeParticipant)
	if pr != 0 || cm != 0 || p.combined != 1 {
		t.Fatalf("lifecycle prepare/commit/combined = %d/%d/%d, want 0/0/1", pr, cm, p.combined)
	}
	if m.Log().Lookup(a.ID()) != store.OutcomeUnknown {
		t.Fatal("one-phase commit must not write the outcome log")
	}
}

func TestOnePhaseIneligibleFallsBackToTwoPhase(t *testing.T) {
	m := NewManager("client", nil)
	a := m.BeginTop()
	p := &onePhaseParticipant{fakeParticipant: fakeParticipant{name: "solo"}, ineligible: true}
	_ = a.Enlist(p)
	rep, err := a.Commit(context.Background())
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if rep.OnePhase {
		t.Fatal("ineligible one-phase must fall back to 2PC")
	}
	pr, cm, _ := counts(&p.fakeParticipant)
	if pr != 1 || cm != 1 {
		t.Fatalf("fallback lifecycle = %d/%d, want full 2PC 1/1", pr, cm)
	}
	if !rep.OutcomeLogged || !rep.OutcomePruned {
		t.Fatalf("report = %+v, want fallback 2PC to log the outcome and prune it after the ack", rep)
	}
}

func TestOnePhaseFailureAbortsAction(t *testing.T) {
	m := NewManager("client", nil)
	a := m.BeginTop()
	p := &onePhaseParticipant{fakeParticipant: fakeParticipant{name: "solo"}, failCombined: true}
	_ = a.Enlist(p)
	_, err := a.Commit(context.Background())
	if !errors.Is(err, ErrPrepareFailed) {
		t.Fatalf("err = %v, want ErrPrepareFailed", err)
	}
	if a.Status() != StatusAborted {
		t.Fatalf("status = %v", a.Status())
	}
	if _, _, ab := counts(&p.fakeParticipant); ab != 1 {
		t.Fatalf("aborts = %d, want 1 (roll-back after failed combined round)", ab)
	}
}

func TestDoubleEndRefused(t *testing.T) {
	m := NewManager("client", nil)
	a := m.BeginTop()
	if _, err := a.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(context.Background()); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("second commit: %v", err)
	}
	if err := a.Abort(context.Background()); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestEnlistAfterEndRefused(t *testing.T) {
	m := NewManager("client", nil)
	a := m.BeginTop()
	_ = a.Abort(context.Background())
	if err := a.Enlist(&fakeParticipant{name: "x"}); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("err = %v", err)
	}
}

// hookingParticipant offers the action a resolve hook from inside Prepare.
type hookingParticipant struct {
	fakeParticipant
	act        *Action
	registered bool
	ran        atomic.Int64
}

func (p *hookingParticipant) Prepare(ctx context.Context, tx string) (Vote, error) {
	p.registered = p.act.OnResolve(resolveFunc(func(bool) { p.ran.Add(1) }))
	return p.fakeParticipant.Prepare(ctx, tx)
}

// TestOnResolveReportsRegistration: commit processing takes the hook list
// with it when it starts, so a hook offered during phase one — or after the
// action ended, either way — would never run. OnResolve says so instead of
// dropping it silently (a lock taken on the strength of such a hook leaked);
// on a running action it registers and the hook runs once.
func TestOnResolveReportsRegistration(t *testing.T) {
	m := NewManager("client", nil)
	ctx := context.Background()
	for _, end := range []struct {
		name string
		run  func(a *Action) error
	}{
		{"commit", func(a *Action) error { _, err := a.Commit(ctx); return err }},
		{"abort", func(a *Action) error { return a.Abort(ctx) }},
	} {
		a := m.BeginTop()
		var early atomic.Int64
		if !a.OnResolve(resolveFunc(func(bool) { early.Add(1) })) {
			t.Fatalf("%s: a running action refused a resolve hook", end.name)
		}
		p := &hookingParticipant{fakeParticipant: fakeParticipant{name: "p"}, act: a}
		_ = a.Enlist(p)
		if err := end.run(a); err != nil {
			t.Fatal(err)
		}
		if end.name == "commit" && p.registered {
			t.Fatal("a hook offered during phase one was reported registered")
		}
		if a.OnResolve(resolveFunc(func(bool) { p.ran.Add(1) })) {
			t.Fatalf("%s: an ended action reported a hook registered", end.name)
		}
		if early.Load() != 1 || p.ran.Load() != 0 {
			t.Fatalf("%s: the hook registered while running ran %d times, the refused ones %d; want 1 and 0",
				end.name, early.Load(), p.ran.Load())
		}
	}
}

func TestNestedTopLevelActionIndependent(t *testing.T) {
	// An action begun while another runs commits even if the other later
	// aborts: the independence Figure 8's nested top-level actions have,
	// though no binder begins one inside another.
	m := NewManager("client", nil)
	outer := m.BeginTop()
	inner := m.BeginTop() // begun while outer runs: still independent
	p := &fakeParticipant{name: "db"}
	_ = inner.Enlist(p)
	if _, err := inner.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := outer.Abort(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, cm, ab := counts(p)
	if cm != 1 || ab != 0 {
		t.Fatalf("inner effects disturbed by outer abort: commits=%d aborts=%d", cm, ab)
	}
	if m.Log().Lookup(inner.ID()) == store.OutcomeAborted {
		t.Fatal("inner commit must not be recorded as aborted by the outer abort")
	}
}

// storeParticipant drives one store through two-phase commit with a fixed
// write set.
type storeParticipant struct {
	remote store.RemoteStore
	writes []store.Write
}

func (p storeParticipant) Name() string { return string(p.remote.Node) }
func (p storeParticipant) Prepare(ctx context.Context, tx string) (Vote, error) {
	return VoteCommit, p.remote.Prepare(ctx, tx, p.writes, false)
}
func (p storeParticipant) Commit(ctx context.Context, tx string) error {
	return p.remote.Commit(ctx, tx)
}
func (p storeParticipant) Abort(ctx context.Context, tx string) error { return p.remote.Abort(ctx, tx) }

func TestCrashBeforePhaseTwoRecoversViaLog(t *testing.T) {
	// The classic 2PC recovery flow: participant prepares, coordinator
	// records commit, participant "crashes" before phase 2 (we simply do
	// not deliver the Commit), then recovery applies it from the log.
	// A second commit-voting participant keeps the action off the
	// single-participant one-phase fast path.
	net := transport.NewMem(transport.MemOptions{}, nil)
	srv := rpc.NewServer()
	st := store.New("beta")
	store.RegisterService(srv, st)
	net.Register("beta", srv.Handler())

	gen := uid.NewGenerator("obj", 1)
	id := gen.New()
	st.Put(id, []byte("v0"), 1)

	m := NewManager("client", nil)
	RegisterLogService(srv, m.Log())
	a := m.BeginTop()
	part := storeParticipant{
		remote: store.RemoteStore{Client: rpc.Client{Net: net, From: "client"}, Node: "beta"},
		writes: []store.Write{{UID: id, Data: []byte("v1"), Seq: 2}},
	}
	_ = a.Enlist(part)
	_ = a.Enlist(&fakeParticipant{name: "other"})
	// Drop the phase-2 Commit request: store keeps its intention.
	net.Faults().DropRequests(1, func(req transport.Request) bool {
		return req.Service == store.ServiceName && req.Method == store.MethodCommit
	})
	rep, err := a.Commit(context.Background())
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if len(rep.PhaseTwoErrors) != 1 {
		t.Fatalf("expected one phase-2 error, got %v", rep.PhaseTwoErrors)
	}
	// Intention still pending, state unchanged.
	if v, _ := st.Read(id); string(v.Data) != "v0" {
		t.Fatal("state should be unchanged before recovery")
	}
	// Recovery consults the (remote) log and applies.
	rlog := RemoteLog{Client: rpc.Client{Net: net, From: "beta"}, Node: "beta"}
	applied, aborted := st.Recover(rlog)
	if len(applied) != 1 || len(aborted) != 0 {
		t.Fatalf("recover applied=%v aborted=%v", applied, aborted)
	}
	if v, _ := st.Read(id); string(v.Data) != "v1" {
		t.Fatal("recovery did not apply committed intention")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusRunning:   "running",
		StatusPreparing: "preparing",
		StatusCommitted: "committed",
		StatusAborted:   "aborted",
		Status(0):       "status(0)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestMemLogZeroValue(t *testing.T) {
	var l MemLog
	l.Record("t", store.OutcomeCommitted)
	if l.Lookup("t") != store.OutcomeCommitted {
		t.Fatal("zero-value MemLog should work")
	}
	if l.Lookup("unknown") != store.OutcomeUnknown {
		t.Fatal("unknown tx should be OutcomeUnknown")
	}
}

// rendezvousParticipant blocks in Prepare until every sibling has also
// entered Prepare — it can only ever succeed if phase one runs the
// participants concurrently.
type rendezvousParticipant struct {
	name    string
	arrive  chan struct{}
	release chan struct{}
}

func (p *rendezvousParticipant) Name() string { return p.name }

func (p *rendezvousParticipant) Prepare(ctx context.Context, tx string) (Vote, error) {
	p.arrive <- struct{}{}
	select {
	case <-p.release:
		return VoteCommit, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-time.After(5 * time.Second):
		return 0, errors.New("prepare never released: phase one is not concurrent")
	}
}

func (p *rendezvousParticipant) Commit(context.Context, string) error { return nil }
func (p *rendezvousParticipant) Abort(context.Context, string) error  { return nil }

func TestPrepareRunsParticipantsConcurrently(t *testing.T) {
	// One slow participant must not delay the others' Prepare: all three
	// participants rendezvous inside phase one. Under the old serial
	// phase one the first Prepare would block forever waiting for the
	// other two, which would never be invoked.
	const n = 3
	arrive := make(chan struct{}, n)
	release := make(chan struct{})
	m := NewManager("conc2pc", nil)
	act := m.BeginTop()
	for i := 0; i < n; i++ {
		if err := act.Enlist(&rendezvousParticipant{
			name: fmt.Sprintf("p%d", i), arrive: arrive, release: release,
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := act.Commit(context.Background())
		done <- err
	}()
	for i := 0; i < n; i++ {
		select {
		case <-arrive:
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d participants entered Prepare concurrently", i, n)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("commit: %v", err)
	}
	if act.Status() != StatusCommitted {
		t.Fatalf("status = %v", act.Status())
	}
}

func TestPrepareFirstFailureCancelsInFlightPrepares(t *testing.T) {
	// One participant refuses while another is still preparing: the
	// cancellation must release the in-flight Prepare (via its context)
	// and the action must abort everyone.
	arrive := make(chan struct{}, 1)
	release := make(chan struct{}) // never closed: only ctx can release
	slow := &rendezvousParticipant{name: "slow", arrive: arrive, release: release}
	bad := &fakeParticipant{name: "bad", failPrepare: true}
	m := NewManager("cancel2pc", nil)
	act := m.BeginTop()
	for _, p := range []Participant{slow, bad} {
		if err := act.Enlist(p); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := act.Commit(context.Background())
		done <- err
	}()
	<-arrive
	select {
	case err := <-done:
		if !errors.Is(err, ErrPrepareFailed) {
			t.Fatalf("commit err = %v, want ErrPrepareFailed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("commit hung: first failure did not cancel the in-flight prepare")
	}
	if act.Status() != StatusAborted {
		t.Fatalf("status = %v, want aborted", act.Status())
	}
	if _, _, aborts := counts(bad); aborts != 1 {
		t.Fatalf("failed participant aborted %d times, want 1", aborts)
	}
	// The slow participant's rollback used the live context and acked, as
	// did the failed one — so presumed abort keeps no abort record.
	if m.Log().Lookup(act.ID()) == store.OutcomeCommitted {
		t.Fatal("cancelled commit must never be recorded as committed")
	}
}

// stubbornParticipant fails its Commit and/or Abort calls — the phase-two
// straggler whose outstanding ack must keep the outcome record alive.
type stubbornParticipant struct {
	fakeParticipant
	failCommit bool
	failAbort  bool
}

func (p *stubbornParticipant) Commit(ctx context.Context, tx string) error {
	_ = p.fakeParticipant.Commit(ctx, tx)
	if p.failCommit {
		return errors.New("commit lost")
	}
	return nil
}

func (p *stubbornParticipant) Abort(ctx context.Context, tx string) error {
	_ = p.fakeParticipant.Abort(ctx, tx)
	if p.failAbort {
		return errors.New("abort lost")
	}
	return nil
}

// TestOutcomeLogGC: the satellite requirement in one place — records do
// not accumulate. A run of fully-acked commits and aborts leaves the
// coordinator log empty.
func TestOutcomeLogGC(t *testing.T) {
	log := NewMemLog()
	m := NewManager("gc", log)
	var ids []string
	for i := 0; i < 5; i++ {
		a := m.BeginTop()
		ids = append(ids, a.ID())
		_ = a.Enlist(&fakeParticipant{name: "p1"})
		_ = a.Enlist(&fakeParticipant{name: "p2"})
		rep, err := a.Commit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OutcomeLogged || !rep.OutcomePruned {
			t.Fatalf("commit %d: report = %+v, want logged and pruned", i, rep)
		}
	}
	for i := 0; i < 5; i++ {
		a := m.BeginTop()
		ids = append(ids, a.ID())
		_ = a.Enlist(&fakeParticipant{name: "p1"})
		if err := a.Abort(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if o := log.Lookup(id); o != store.OutcomeUnknown {
			t.Fatalf("outcome log holds %v for %s after fully-acked actions, want no record", o, id)
		}
	}
}

// TestOutcomeLogGCRetainsUnackedPhaseTwo: a participant whose Commit
// failed may hold an unresolved intention; its record must survive GC so
// recovery can still learn the commit.
func TestOutcomeLogGCRetainsUnackedPhaseTwo(t *testing.T) {
	log := NewMemLog()
	m := NewManager("gc", log)
	a := m.BeginTop()
	_ = a.Enlist(&fakeParticipant{name: "ok"})
	_ = a.Enlist(&stubbornParticipant{fakeParticipant: fakeParticipant{name: "gone"}, failCommit: true})
	rep, err := a.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PhaseTwoErrors) != 1 || rep.OutcomePruned {
		t.Fatalf("report = %+v, want one phase-two error and no pruning", rep)
	}
	// The action's own record is the only one the log could hold.
	if log.Lookup(a.ID()) != store.OutcomeCommitted {
		t.Fatal("commit record pruned while a participant never acked phase two")
	}
}

// TestOutcomeLogGCRetainsOnRequest: RetainOutcome (the hook store-level
// exclusion uses) vetoes pruning even when every Participant acked.
func TestOutcomeLogGCRetainsOnRequest(t *testing.T) {
	log := NewMemLog()
	m := NewManager("gc", log)
	a := m.BeginTop()
	p := &fakeParticipant{name: "p"}
	_ = a.Enlist(p)
	a.RetainOutcome()
	rep, err := a.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutcomePruned {
		t.Fatalf("report = %+v: RetainOutcome must suppress pruning", rep)
	}
	if log.Lookup(a.ID()) != store.OutcomeCommitted {
		t.Fatal("retained commit record missing")
	}
}

// TestOutcomeLogGCRetainsUnackedAbort: an abort whose rollback fan-out
// was not fully acknowledged keeps its record as a breadcrumb.
func TestOutcomeLogGCRetainsUnackedAbort(t *testing.T) {
	log := NewMemLog()
	m := NewManager("gc", log)
	a := m.BeginTop()
	_ = a.Enlist(&stubbornParticipant{fakeParticipant: fakeParticipant{name: "gone"}, failAbort: true})
	if err := a.Abort(context.Background()); err != nil {
		t.Fatal(err)
	}
	if log.Lookup(a.ID()) != store.OutcomeAborted {
		t.Fatal("abort record pruned while a participant never acked the rollback")
	}
}

// countingLog counts the calls that write to the log.
type countingLog struct {
	MemLog
	records, forgets atomic.Int32
}

func (l *countingLog) Record(tx string, o store.Outcome) error {
	l.records.Add(1)
	return l.MemLog.Record(tx, o)
}

func (l *countingLog) Forget(tx string) error {
	l.forgets.Add(1)
	return l.MemLog.Forget(tx)
}

// TestAckedAbortWritesNoRecord: presumed abort needs no record for an abort
// every participant acknowledged, so neither an Abort nor a refused
// prepare whose rollback was acknowledged touches the log.
func TestAckedAbortWritesNoRecord(t *testing.T) {
	log := &countingLog{}
	m := NewManager("acked", log)
	a := m.BeginTop()
	_ = a.Enlist(&fakeParticipant{name: "p"})
	if err := a.Abort(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := m.BeginTop()
	_ = b.Enlist(&fakeParticipant{name: "good"})
	_ = b.Enlist(&fakeParticipant{name: "bad", failPrepare: true})
	if _, err := b.Commit(context.Background()); !errors.Is(err, ErrPrepareFailed) {
		t.Fatalf("commit with a refused prepare: %v", err)
	}
	if r, f := log.records.Load(), log.forgets.Load(); r != 0 || f != 0 {
		t.Fatalf("acknowledged aborts wrote %d records and forgot %d; want none", r, f)
	}
}

// failingLog refuses Record — the disk-full coordinator.
type failingLog struct{ MemLog }

func (l *failingLog) Record(string, store.Outcome) error {
	return errors.New("log device full")
}

// TestCommitPointWriteFailureAborts: if the commit record cannot be made
// durable there IS no commit — the action must abort and roll its
// prepared participants back, reporting ErrOutcomeLog.
func TestCommitPointWriteFailureAborts(t *testing.T) {
	m := NewManager("sick", &failingLog{})
	a := m.BeginTop()
	p := &fakeParticipant{name: "p"}
	_ = a.Enlist(p)
	_, err := a.Commit(context.Background())
	if !errors.Is(err, ErrOutcomeLog) {
		t.Fatalf("err = %v, want ErrOutcomeLog", err)
	}
	if a.Status() != StatusAborted {
		t.Fatalf("status = %v, want aborted", a.Status())
	}
	if _, cm, ab := counts(p); cm != 0 || ab != 1 {
		t.Fatalf("participant commits/aborts = %d/%d, want 0/1 (rolled back)", cm, ab)
	}
}

// TestBackendLogDurability: the default coordinator log runs over a
// storage backend; with a disk backend commit records survive a close
// and replay on reopen.
func TestBackendLogDurability(t *testing.T) {
	dir := t.TempDir()
	b, err := storage.OpenDisk(dir, storage.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	log := NewBackendLog(b)
	if err := log.Record("tx-1", store.OutcomeCommitted); err != nil {
		t.Fatal(err)
	}
	if err := log.Record("tx-2", store.OutcomeAborted); err != nil {
		t.Fatal(err)
	}
	if err := log.Forget("tx-2"); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// While closed, the log answers "unavailable" — never "no record".
	if got := log.Lookup("tx-1"); got != store.OutcomeUnavailable {
		t.Fatalf("closed-backend lookup = %v, want unavailable", got)
	}
	b2, err := storage.OpenDisk(dir, storage.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	log2 := NewBackendLog(b2)
	if got := log2.Lookup("tx-1"); got != store.OutcomeCommitted {
		t.Fatalf("replayed tx-1 = %v, want committed", got)
	}
	if got := log2.Lookup("tx-2"); got != store.OutcomeUnknown {
		t.Fatalf("pruned tx-2 = %v, want unknown after replay", got)
	}
}

// gatedParticipant blocks in Prepare until released, so a test can probe
// coordinator state mid-phase-one.
type gatedParticipant struct {
	fakeParticipant
	entered chan struct{}
	release chan struct{}
}

func (p *gatedParticipant) Prepare(ctx context.Context, tx string) (Vote, error) {
	p.entered <- struct{}{}
	<-p.release
	return p.fakeParticipant.Prepare(ctx, tx)
}

// TestLookupDuringCommitIsUnavailable pins the decision-point guard: a
// recovery lookup racing a LIVE commit — after a participant may hold a
// prepared intention, before the record is written — must answer
// "unavailable" (keep the intention pending), never "no record". Reading
// the empty log as presumed abort in that window rolls back a commit
// vote whose transaction then commits: the chain fork chaos seed 8
// found.
func TestLookupDuringCommitIsUnavailable(t *testing.T) {
	m := NewManager("client", nil)
	a := m.BeginTop()
	p := &gatedParticipant{entered: make(chan struct{}), release: make(chan struct{})}
	_ = a.Enlist(p)
	done := make(chan error, 1)
	go func() {
		_, err := a.Commit(context.Background())
		done <- err
	}()
	<-p.entered
	if got := m.Lookup(a.ID()); got != store.OutcomeUnavailable {
		t.Fatalf("mid-commit lookup = %v, want unavailable", got)
	}
	// The raw log still has no record — the guard lives in the manager.
	if got := m.Log().Lookup(a.ID()); got != store.OutcomeUnknown {
		t.Fatalf("raw log mid-commit = %v, want unknown", got)
	}
	close(p.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Window closed: the (pruned, fully-acked) record answers unknown —
	// presumed abort is safe again because the decision point has passed.
	if got := m.Lookup(a.ID()); got == store.OutcomeUnavailable {
		t.Fatal("lookup still unavailable after commit finished")
	}
}

// TestExpectPreparedOpensTheWindowEarly: a participant whose request carries
// phase one leaves prepared state at the stores before Commit is called. A
// recovery lookup in that gap must answer "unavailable" too, and the window
// must close when the action ends — by abort as well as by commit, or the
// stores would hold the intention forever.
func TestExpectPreparedOpensTheWindowEarly(t *testing.T) {
	m := NewManager("client", nil)
	for _, commit := range []bool{true, false} {
		a := m.BeginTop()
		_ = a.Enlist(&fakeParticipant{name: "p"})
		if got := m.Lookup(a.ID()); got == store.OutcomeUnavailable {
			t.Fatalf("lookup of a running action that prepared nothing = %v", got)
		}
		a.ExpectPrepared()
		if got := m.Lookup(a.ID()); got != store.OutcomeUnavailable {
			t.Fatalf("lookup before Commit, after ExpectPrepared = %v, want unavailable", got)
		}
		if commit {
			if _, err := a.Commit(context.Background()); err != nil {
				t.Fatal(err)
			}
		} else if err := a.Abort(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := m.Lookup(a.ID()); got == store.OutcomeUnavailable {
			t.Fatalf("lookup still unavailable after the action ended (commit=%v)", commit)
		}
	}
}
