package group

import (
	"context"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
)

// TestMulticastRetryDeduplicatesAcrossMuxStreams pins the dedup contract
// on the multiplexed transport: a retried multicast under the original
// MsgID that arrives over a DIFFERENT mux stream — every connection the
// first round used is severed, so the retry redials — must still hit the
// receivers' dedup caches (keyed by MsgID, not by connection) and return
// the complete fan-out outcome under the original sequence number.
func TestMulticastRetryDeduplicatesAcrossMuxStreams(t *testing.T) {
	mux := transport.NewTCPMux()
	defer mux.Close()
	members := []transport.Addr{"a1", "a2", "a3"}
	f := newFixtureOn(t, sim.NewClusterOn(mux), members...)
	ctx := context.Background()
	msgID := "stable-id/mux-1"

	first, err := multicastWithID(ctx, f.client(), f.grp, "op", []byte("x"), msgID)
	if err != nil {
		t.Fatal(err)
	}

	// Sever every connection the first round established: the client's
	// link to the sequencer and the sequencer's relay links to the
	// members. The retry must transparently run over fresh streams.
	nodes := append([]transport.Addr{"client"}, members...)
	for _, from := range nodes {
		for _, to := range nodes {
			if from != to {
				mux.KillConns(from, to)
			}
		}
	}

	retry, err := multicastWithID(ctx, f.client(), f.grp, "op", []byte("x"), msgID)
	if err != nil {
		t.Fatal(err)
	}
	if retry.Seq != first.Seq {
		t.Fatalf("retry seq = %d, want original %d", retry.Seq, first.Seq)
	}
	if len(retry.Replies) != len(members) || len(retry.Failed) != 0 {
		t.Fatalf("retry replies=%d failed=%v, want full cached replies from all %d members",
			len(retry.Replies), retry.Failed, len(members))
	}
	for _, r := range retry.Replies {
		if r.Err != "" || string(r.Payload) != "ack-op" {
			t.Fatalf("retry reply from %s = (%q, %q), want cached ack", r.Member, r.Payload, r.Err)
		}
	}
	for _, m := range members {
		if got := f.members[m].history(); got != "op:x" {
			t.Fatalf("%s history = %q, want single delivery despite stream change", m, got)
		}
	}
}
