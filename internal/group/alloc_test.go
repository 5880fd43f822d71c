//go:build !race

package group

import (
	"context"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
)

// TestLocalRoundAllocs pins a one-member sequenced message, as active
// replication sends to a group of one replica: the member is its own
// sequencer, and the message's one-item frame is delivered locally — the
// caller's Sequence call and nothing else on the wire: 26–27, as the round
// batcher this replaced cost; the single-message relay before that cost
// 33–34.
func TestLocalRoundAllocs(t *testing.T) {
	c := sim.NewCluster(transport.MemOptions{})
	n := c.Add("holder")
	NewHost(n.Server(), n.Client()).Join("G", func(context.Context, Delivered) ([]byte, error) { return nil, nil })
	cli := c.Add("server").Client()
	g := Group{ID: "G", Members: []transport.Addr{"holder"}}
	ctx := context.Background()
	round := func() {
		if _, err := Multicast(ctx, cli, g, "inval", []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if got := testing.AllocsPerRun(500, round); got > 27 {
		t.Fatalf("a local round allocated %.0f objects, want at most 27", got)
	}
}
