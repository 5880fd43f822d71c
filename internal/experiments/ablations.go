package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/harness"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// RunJanitorAblation measures the design choice behind the §4.1.3 cleanup
// protocol: a client crashes while holding use counts (its Decrement will
// never run). Without the janitor the object never becomes quiescent, so a
// recovering server's Insert (§4.1.2) can only time out; with the janitor
// the counters are cleared and the Insert succeeds.
func RunJanitorAblation(insertTimeout time.Duration) (*Table, error) {
	t := &Table{
		Title:  "Ablation (§4.1.3): use-list janitor on/off after a client crash",
		Header: []string{"janitor", "object quiescent", "recovering Insert"},
	}
	for _, withJanitor := range []bool{false, true} {
		w, err := harness.New(harness.Options{Servers: 2, Stores: 1, Clients: 2})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		// c1 binds with use lists and crashes mid-action.
		b := w.Binder("c1", core.SchemeIndependent, replica.SingleCopyPassive, 1)
		act := b.Actions.BeginTop()
		bd, err := b.Bind(ctx, act, w.Objects[0])
		if err != nil {
			return nil, err
		}
		if _, err := bd.Invoke(ctx, replica.Call{Method: "add", Args: []byte("1")}); err != nil {
			return nil, err
		}
		w.Cluster.Node("c1").Crash()

		if withJanitor {
			core.NewJanitor(w.DB).Sweep(ctx)
		}
		quiescent := w.DB.Quiescent(w.Objects[0])

		// A recovering server tries to re-Insert under a bounded wait.
		insCtx, cancel := context.WithTimeout(ctx, insertTimeout)
		cli := core.Client{RPC: w.Cluster.Node("c2").Client(), DB: "db"}
		_, insErr := cli.Do(insCtx, core.InsertOp("", w.Objects[0], "sv2"))
		cancel()

		outcome := "succeeded"
		if insErr != nil {
			outcome = "refused (" + rpc.CodeOf(insErr) + ")"
		}
		label := "off"
		if withJanitor {
			label = "on"
		}
		t.AddRow(label, fmt.Sprintf("%v", quiescent), outcome)
	}
	t.Notes = append(t.Notes,
		"paper: 'a crash of a client does not automatically undo changes made to the database. So, failure",
		"detection and cleanup protocols will be required.' (§4.1.3)",
	)
	return t, nil
}

// MulticastCostPoint is the measured per-message multicast cost at one
// group size — the numeric form of one RunMulticastCost table row, for
// benchmarks and callers that aggregate rather than print.
type MulticastCostPoint struct {
	Members       int
	OrderedMicros float64
	NaiveMicros   float64
}

// MeasureMulticastCost measures the E1 ablation numerically: the
// per-message cost of the sequencer-relayed ordered multicast against the
// naive direct fan-out, across group sizes. The ordered discipline pays
// one extra hop (sender → sequencer); since the relay fans out to all
// members concurrently, the cost grows with the slowest member rather
// than the member count.
func MeasureMulticastCost(sizes []int, messages int, latency time.Duration) ([]MulticastCostPoint, error) {
	points := make([]MulticastCostPoint, 0, len(sizes))
	for _, k := range sizes {
		ordered, naive, err := multicastCost(k, messages, latency)
		if err != nil {
			return nil, err
		}
		points = append(points, MulticastCostPoint{Members: k, OrderedMicros: ordered, NaiveMicros: naive})
	}
	return points, nil
}

// RunMulticastCost renders MeasureMulticastCost as a printable table.
func RunMulticastCost(sizes []int, messages int, latency time.Duration) (*Table, error) {
	points, err := MeasureMulticastCost(sizes, messages, latency)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation (Figure 1): multicast cost, %d messages/point, %v per network leg", messages, latency),
		Header: []string{"members", "ordered µs/msg", "naive µs/msg"},
	}
	for _, p := range points {
		t.AddRow(d(p.Members), f(p.OrderedMicros), f(p.NaiveMicros))
	}
	t.Notes = append(t.Notes,
		"ordered delivery costs one extra hop via the sequencer; naive saves it but permits Figure 1 divergence")
	return t, nil
}

// PipelinedMulticastPoint is the measured cost of concurrent ordered
// multicast: many senders' messages through one sequencer at once.
type PipelinedMulticastPoint struct {
	Members int
	Senders int
	// Micros is the wall-clock per-message cost across all senders.
	Micros float64
	// Rounds and Messages are the sequencer's fan-out statistics. The
	// sequencer relays each message on its own, so they are equal.
	Rounds   uint64
	Messages uint64
}

// MsgsPerRound reports messages per sequencer round: 1 by construction.
func (p PipelinedMulticastPoint) MsgsPerRound() float64 {
	if p.Rounds == 0 {
		return 0
	}
	return float64(p.Messages) / float64(p.Rounds)
}

// MeasurePipelinedMulticast drives `senders` concurrent callers, each
// multicasting `perSender` ordered messages to a `members`-strong group,
// and reports the per-message cost plus the sequencer's fan-out statistics.
// The sequencer numbers and relays each message as it arrives, so many
// messages are on the wire at once and the cost falls below one round trip
// per message as senders are added.
func MeasurePipelinedMulticast(members, senders, perSender int, latency time.Duration) (PipelinedMulticastPoint, error) {
	cluster := sim.NewCluster(transport.MemOptions{BaseLatency: latency})
	var addrs []transport.Addr
	var seqHost *group.Host
	for i := 0; i < members; i++ {
		name := transport.Addr(fmt.Sprintf("m%d", i+1))
		n := cluster.Add(name)
		h := group.NewHost(n.Server(), n.Client())
		h.Join("G", func(_ context.Context, msg group.Delivered) ([]byte, error) {
			return []byte("ok"), nil
		})
		if seqHost == nil {
			seqHost = h // first member is the deterministic sequencer
		}
		addrs = append(addrs, name)
	}
	g := group.Group{ID: "G", Members: addrs}
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, senders)
	start := time.Now()
	for s := 0; s < senders; s++ {
		sender := cluster.Add(transport.Addr(fmt.Sprintf("sender%d", s+1)))
		wg.Add(1)
		go func(s int, cli rpc.Client) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if _, err := group.Multicast(ctx, cli, g, "op", nil); err != nil {
					errs[s] = err
					return
				}
			}
		}(s, rpc.Client{Net: cluster.Net(), From: sender.Name()})
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return PipelinedMulticastPoint{}, err
		}
	}
	total := senders * perSender
	rounds, msgs := seqHost.SequencerStats()
	return PipelinedMulticastPoint{
		Members:  members,
		Senders:  senders,
		Micros:   float64(elapsed.Microseconds()) / float64(total),
		Rounds:   rounds,
		Messages: msgs,
	}, nil
}

func multicastCost(members, messages int, latency time.Duration) (orderedMicros, naiveMicros float64, err error) {
	cluster := sim.NewCluster(transport.MemOptions{BaseLatency: latency})
	var addrs []transport.Addr
	for i := 0; i < members; i++ {
		name := transport.Addr(fmt.Sprintf("m%d", i+1))
		n := cluster.Add(name)
		h := group.NewHost(n.Server(), n.Client())
		h.Join("G", func(_ context.Context, msg group.Delivered) ([]byte, error) {
			return []byte("ok"), nil
		})
		addrs = append(addrs, name)
	}
	sender := cluster.Add("sender")
	g := group.Group{ID: "G", Members: addrs}
	ctx := context.Background()
	cli := rpc.Client{Net: cluster.Net(), From: sender.Name()}

	start := time.Now()
	for i := 0; i < messages; i++ {
		if _, err := group.Multicast(ctx, cli, g, "op", nil); err != nil {
			return 0, 0, err
		}
	}
	orderedMicros = float64(time.Since(start).Microseconds()) / float64(messages)

	start = time.Now()
	for i := 0; i < messages; i++ {
		group.NaiveMulticast(ctx, cli, g, "op", nil)
	}
	naiveMicros = float64(time.Since(start).Microseconds()) / float64(messages)
	return orderedMicros, naiveMicros, nil
}
