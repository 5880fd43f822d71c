package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/replica"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n1"}}
	tb.AddRow("1", "2")
	out := tb.String()
	for _, want := range []string{"== T ==", "a", "bb", "1", "2", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestE1NaiveDivergesOrderedNever(t *testing.T) {
	r, err := RunE1(E1Config{Replicas: 3, Trials: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.OrderedDiverged != 0 {
		t.Fatalf("ordered multicast diverged %d times", r.OrderedDiverged)
	}
	if r.NaiveDiverged == 0 {
		t.Fatal("naive multicast never diverged — the Figure 1 anomaly is not reproduced")
	}
	if got := r.Table().String(); !strings.Contains(got, "E1") {
		t.Fatal("table missing title")
	}
}

func TestE2AvailabilityDropsWithCrashProb(t *testing.T) {
	zero, err := RunAvailability(AvailConfig{Servers: 1, Stores: 1, Policy: replica.SingleCopyPassive, CrashProb: 0, Trials: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Availability() != 1 {
		t.Fatalf("p=0 availability = %v", zero.Availability())
	}
	high, err := RunAvailability(AvailConfig{Servers: 1, Stores: 1, Policy: replica.SingleCopyPassive, CrashProb: 0.5, Trials: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if high.Availability() >= zero.Availability() {
		t.Fatalf("availability did not drop: %v vs %v", high.Availability(), zero.Availability())
	}
	if zero.InconsistentStores+high.InconsistentStores != 0 {
		t.Fatal("store consistency violated")
	}
}

func TestE3ReplicationImprovesAvailability(t *testing.T) {
	const p, trials = 0.3, 40
	k1, err := RunAvailability(AvailConfig{Servers: 1, Stores: 1, Policy: replica.SingleCopyPassive, CrashProb: p, Trials: trials, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	k3, err := RunAvailability(AvailConfig{Servers: 1, Stores: 3, Policy: replica.SingleCopyPassive, CrashProb: p, Trials: trials, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if k3.Availability() <= k1.Availability() {
		t.Fatalf("state replication did not help: k=1 %v, k=3 %v", k1.Availability(), k3.Availability())
	}
	if k1.InconsistentStores+k3.InconsistentStores != 0 {
		t.Fatal("store consistency violated")
	}
}

func TestE4ActiveReplicationMasksMidActionCrash(t *testing.T) {
	const trials = 20
	// k=1: the mid-action crash always aborts.
	k1, err := RunAvailability(AvailConfig{Servers: 1, Stores: 1, Policy: replica.Active, CrashProb: 0, CrashDuring: true, Trials: trials, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if k1.Committed != 0 {
		t.Fatalf("k=1 with mid-action crash committed %d times", k1.Committed)
	}
	// k=3: one crash is masked; all commit.
	k3, err := RunAvailability(AvailConfig{Servers: 3, Stores: 1, Policy: replica.Active, CrashProb: 0, CrashDuring: true, Trials: trials, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if k3.Committed != trials {
		t.Fatalf("k=3 committed only %d/%d", k3.Committed, trials)
	}
	if k1.InconsistentStores+k3.InconsistentStores != 0 {
		t.Fatal("store consistency violated")
	}
}

func TestE5GeneralCaseDominates(t *testing.T) {
	const p, trials = 0.3, 30
	base, err := RunAvailability(AvailConfig{Servers: 1, Stores: 1, Policy: replica.Active, CrashProb: p, Trials: trials, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := RunAvailability(AvailConfig{Servers: 3, Stores: 3, Policy: replica.Active, CrashProb: p, Trials: trials, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Availability() <= base.Availability() {
		t.Fatalf("general case no better: %v vs %v", gen.Availability(), base.Availability())
	}
	if gen.InconsistentStores != 0 {
		t.Fatal("general case violated store consistency")
	}
}

func TestE678ProbeShape(t *testing.T) {
	cfg := SchemeConfig{
		Servers: 2, Stores: 1, Clients: 4,
		ActionsPerClient: 4, CrashAfter: 4,
	}
	cfg.Scheme = core.SchemeStandard
	std, err := RunScheme(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = core.SchemeIndependent
	ind, err := RunScheme(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Standard: every post-crash action probes the dead server (12 actions
	// after the crash). Enhanced: only the first.
	if std.ProbesAfter <= ind.ProbesAfter {
		t.Fatalf("probe shape wrong: standard %d, independent %d", std.ProbesAfter, ind.ProbesAfter)
	}
	if ind.ProbesAfter != 1 {
		t.Fatalf("independent scheme probes = %d, want exactly 1", ind.ProbesAfter)
	}
	if std.ProbesAfter != 12 {
		t.Fatalf("standard scheme probes = %d, want 12 (every post-crash action)", std.ProbesAfter)
	}
	if std.Aborted+ind.Aborted != 0 {
		t.Fatalf("aborts: std=%d ind=%d", std.Aborted, ind.Aborted)
	}
}

// TestE678NestedTopLevelMatchesIndependent: without nested actions Figure 8
// runs Figure 7's code, so on one workload the two schemes' rows agree in
// every count, and both repair Sv with the one probe.
func TestE678NestedTopLevelMatchesIndependent(t *testing.T) {
	cfg := SchemeConfig{
		Servers: 2, Stores: 1, Clients: 3,
		ActionsPerClient: 3, CrashAfter: 3,
	}
	cfg.Scheme = core.SchemeNestedTopLevel
	ntl, err := RunScheme(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = core.SchemeIndependent
	ind, err := RunScheme(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type counts struct{ committed, aborted, probesBefore, probesAfter int }
	nested := counts{ntl.Committed, ntl.Aborted, ntl.ProbesBefore, ntl.ProbesAfter}
	independent := counts{ind.Committed, ind.Aborted, ind.ProbesBefore, ind.ProbesAfter}
	if nested != independent {
		t.Fatalf("nested-top-level row %+v, independent row %+v: want them equal", nested, independent)
	}
	if ntl.ProbesAfter != 1 {
		t.Fatalf("nested-top-level probes = %d, want 1", ntl.ProbesAfter)
	}
	if ntl.Aborted != 0 {
		t.Fatalf("aborts: nested=%d", ntl.Aborted)
	}
}

func TestE9LockTypeShape(t *testing.T) {
	r, err := RunE9(E9Config{Readers: 3, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.ExcludeWriteAborts != 0 {
		t.Fatalf("exclude-write aborted %d times under readers", r.ExcludeWriteAborts)
	}
	if r.WriteLockCommits != 0 {
		t.Fatalf("write-lock promotion committed %d times under readers", r.WriteLockCommits)
	}
	// With no readers, both lock types succeed.
	r0, err := RunE9(E9Config{Readers: 0, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r0.WriteLockAborts != 0 || r0.ExcludeWriteAborts != 0 {
		t.Fatalf("no-reader case aborted: %+v", r0)
	}
}

func TestE10ReadOptimisationCommitsEverything(t *testing.T) {
	r, err := RunE10(E10Config{Servers: 3, Readers: 3, ReadsPerClient: 3})
	if err != nil {
		t.Fatal(err)
	}
	total := 9
	if r.OptimisedCommitted != total || r.FullBindCommitted != total {
		t.Fatalf("commits: optimised %d, full %d, want %d", r.OptimisedCommitted, r.FullBindCommitted, total)
	}
	if r.DistinctServersUsed < 1 {
		t.Fatal("no servers recorded")
	}
	// RunE10 fails on any committed read that sent another count.
	if r.OptimisedDBMsgs != 1 || r.FullBindDBMsgs != 1 {
		t.Fatalf("database messages per committed read: optimised %d, full bind %d; want 1 and 1", r.OptimisedDBMsgs, r.FullBindDBMsgs)
	}
}

func TestE11RecoveryRestoresView(t *testing.T) {
	r, err := RunE11(E11Config{Stores: 3, ActionsBefore: 2, ActionsDuring: 2, ActionsAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.ViewBefore != 3 || r.ViewDuring != 2 || r.ViewAfter != 3 {
		t.Fatalf("view trace = %d/%d/%d, want 3/2/3", r.ViewBefore, r.ViewDuring, r.ViewAfter)
	}
	if !r.CaughtUp {
		t.Fatal("recovered store did not catch up")
	}
	if !r.FinalConsist {
		t.Fatal("final view inconsistent")
	}
	if r.Aborted != 0 {
		t.Fatalf("aborts = %d", r.Aborted)
	}
}

func TestE12ConsistencySurvivesNonAtomicSv(t *testing.T) {
	r, err := RunE12(E12Config{Servers: 2, Stores: 2, Actions: 10, CrashEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r.AtomicConsistent || !r.NonAtomicConsistent {
		t.Fatalf("consistency: atomic=%v nonatomic=%v", r.AtomicConsistent, r.NonAtomicConsistent)
	}
	if !r.UnsafeInsertAllowed {
		t.Fatal("non-atomic name server should accept insert-while-in-use")
	}
}

func TestJanitorAblationShape(t *testing.T) {
	tb, err := RunJanitorAblation(50 * 1e6) // 50ms
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// off: refused; on: succeeded.
	if !strings.Contains(tb.Rows[0][2], "refused") {
		t.Fatalf("janitor-off row = %v", tb.Rows[0])
	}
	if tb.Rows[1][2] != "succeeded" {
		t.Fatalf("janitor-on row = %v", tb.Rows[1])
	}
}

func TestMulticastCostAblation(t *testing.T) {
	tb, err := RunMulticastCost([]int{2, 3}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestTableBuilders(t *testing.T) {
	if _, err := RunE2(5, 1, []float64{0, 0.2}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunE3(5, 1, 0.2, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunE4(5, 1, 0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunE5(5, 1, 0.2, []int{1, 2}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunE678(SchemeConfig{Servers: 2, Stores: 1, Clients: 2, ActionsPerClient: 2, CrashAfter: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunE678Contention(2, 2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := RunE9Sweep([]int{0, 1}, 2, 1); err != nil {
		t.Fatal(err)
	}
}
