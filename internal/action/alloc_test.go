//go:build !race

package action

import (
	"context"
	"testing"
)

// nopParticipant votes commit and acknowledges every phase, allocating
// nothing of its own.
type nopParticipant struct{}

func (nopParticipant) Name() string                                  { return "nop" }
func (nopParticipant) Prepare(context.Context, string) (Vote, error) { return VoteCommit, nil }
func (nopParticipant) Commit(context.Context, string) error          { return nil }
func (nopParticipant) Abort(context.Context, string) error           { return nil }

// TestCommitOneParticipantAllocs pins what a two-phase commit with one
// participant allocates — the shape of a write over several stores, which
// cannot commit in one phase: the action, which keeps its participant list
// and report inside it, the commit window, and the outcome log's record and
// its removal. A lone
// participant's Prepare and Commit are called directly, so neither phase
// allocates a cancel context, a vote list or an error list for it.
//
// A change that adds an allocation fails here; one that takes one away
// updates the pin, and says so.
func TestCommitOneParticipantAllocs(t *testing.T) {
	m := NewManager("client", nil)
	ctx := context.Background()
	op := func() {
		a := m.BeginTop()
		if err := a.Enlist(nopParticipant{}); err != nil {
			t.Fatal(err)
		}
		rep, err := a.Commit(ctx)
		if err != nil || rep.CommitVoters != 1 || !rep.OutcomeLogged {
			t.Fatalf("commit = %+v, %v; want one commit voter and a logged outcome", rep, err)
		}
	}
	op() // warm-up: the commit window's map, the log's buffers
	got := testing.AllocsPerRun(200, op)
	t.Logf("%.0f allocations per action", got)
	// 16 while the lone participant's phases ran through the fan-out: a
	// cancel context and its propagation, the vote list and the closure
	// state of phase one, the voter list, phase two's error list; 5 while
	// the participant list and the report were objects of their own.
	if want := 3.0; got != want {
		t.Errorf("%.0f allocations per action, pinned at %.0f", got, want)
	}
}
