// Package group provides group communication for replicated objects.
//
// The paper (§2.3(2)) observes that communication *between replica groups*
// requires "reliable distribution and ordering guarantees not associated
// with non-replicated systems": reliability ensures all correctly
// functioning members of a group receive messages intended for the group,
// ordering ensures the messages are received in an identical order at each
// functioning member — otherwise replica states can diverge, as in the
// paper's Figure 1 where a reply reaches replica A1 but not A2.
//
// Two disciplines are implemented:
//
//   - Multicast — reliable, totally ordered: a fixed sequencer (Kaashoek et
//     al.'s Amoeba broadcast). The sender hands the message to the first
//     member of its view that answers, which gives it the group's next
//     sequence number and relays it to every member. The sender makes a
//     single call, so a sender failure cannot cause partial delivery; a
//     sequencer failure is handled by retrying through the next member with
//     the same message ID, which keeps its original number and which
//     receivers deduplicate.
//   - NaiveMulticast — the sender fans out to the members itself, one
//     after another, so a failure (of the sender, or of reply delivery)
//     midway leaves the group inconsistent: the baseline that reproduces
//     the Figure 1 anomaly, and the right tool where members share no
//     state to diverge — a lease invalidation, one message to each holder
//     node's mailbox (internal/lease), travels this way.
//
// Both travel in one frame, DeliverBatch. The sequencer relays each message
// on its own, to all members at once, as a frame of one item; a naive send
// is a frame of one item with sequence number 0. Sequence numbers are per
// group. Receivers deliver sequenced items strictly in sequence order,
// holding back out-of-order arrivals, and apply a naive item at once.
package group

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// ServiceName is the RPC service name for group communication endpoints.
const ServiceName = "group"

// RPC method names.
const (
	// MethodSequence is invoked on the sequencer member to order and relay
	// a multicast.
	MethodSequence = "Sequence"
	// MethodDeliverBatch is invoked on each member to deliver one frame:
	// a sequenced message, or a naive one.
	MethodDeliverBatch = "DeliverBatch"
)

// Group is a (caller-held) view of a replica group: an identifier plus the
// ordered member list. The first functioning member acts as sequencer.
type Group struct {
	ID      string
	Members []transport.Addr
}

// Delivered is a message as seen by a member's apply callback.
type Delivered struct {
	Group string
	// MsgID is empty for a naive message.
	MsgID   string
	Kind    string
	Payload []byte
	// Seq is the total-order position (0 for naive, unordered delivery).
	Seq uint64
}

// Apply is a member's delivery callback; its reply is returned to the
// multicast caller.
type Apply func(ctx context.Context, msg Delivered) ([]byte, error)

// Reply is one member's response to a multicast.
type Reply struct {
	Member  transport.Addr
	Payload []byte
	Err     string
}

// Result summarises a multicast.
type Result struct {
	// Seq is the assigned sequence number (0 for naive multicast).
	Seq uint64
	// Replies holds one entry per member that received the message.
	Replies []Reply
	// Failed lists members that could not be reached; per the paper's
	// commit protocol these are the nodes to exclude from the view.
	Failed []transport.Addr
}

// SequenceReq is the wire form of a sequencing request.
type SequenceReq struct {
	Group   string
	MsgID   string
	Kind    string
	Payload []byte
	Members []string
}

// BatchItem is one message inside a deliver frame; Seq is 0 and MsgID
// empty for a naive message.
type BatchItem struct {
	MsgID   string
	Kind    string
	Payload []byte
	Seq     uint64
}

// DeliverBatchReq is the wire form of a delivery: its messages, sorted by
// ascending Seq. The sequencer and NaiveMulticast send one per frame.
type DeliverBatchReq struct {
	Group string
	Items []BatchItem
	// Stable is the sequencer's stability watermark: every current member
	// has acknowledged delivery up to this sequence number, so receivers
	// may evict dedup state at or below it.
	Stable uint64
}

// BatchResult is one member's per-message outcome within a batch.
type BatchResult struct {
	Payload []byte
	Err     string
}

// DeliverBatchResp carries the member's reply for every item, in item
// order.
type DeliverBatchResp struct {
	Results []BatchResult
}

// SequenceResp carries the fan-out outcome back to the caller.
type SequenceResp struct {
	Seq     uint64
	Replies []Reply
	Failed  []string
}

// Host manages a node's group memberships: per-group apply callbacks,
// delivery ordering, deduplication, and the sequencer role.
type Host struct {
	client rpc.Client

	// sequenced counts the messages this host has numbered and relayed as
	// a sequencer.
	sequenced atomic.Uint64

	mu     sync.Mutex
	groups map[string]*membership
}

// SequencerStats reports how many relay rounds this host has run as a
// sequencer and how many messages they carried. Each message is a round of
// its own, so the two are equal.
func (h *Host) SequencerStats() (rounds, messages uint64) {
	n := h.sequenced.Load()
	return n, n
}

type membership struct {
	apply Apply

	// mu orders delivery, and is held across each in-order apply.
	mu        sync.Mutex
	delivered uint64 // highest seq applied
	// seen caches each delivered message's reply by message ID, for a
	// retry to be answered from.
	seen    map[string][]byte
	seenAge ageing
	// held maps a held-back sequence number to the channel closed when its
	// predecessor has been applied: the one wake-up its waiters need.
	held map[uint64]chan struct{}

	// seq is the sequencer role's state, under a lock of its own: an apply
	// holds mu for as long as it runs — as long as it waits for an object's
	// lock, say — and numbering the next message must not wait for that.
	seq sequencer
}

// sequencer is a member's state for the sequencer role.
type sequencer struct {
	mu sync.Mutex
	// last is the highest sequence number this member has given or been
	// sent, so a fail-over sequencer continues the stream rather than
	// reusing numbers.
	last uint64
	// numbered maps a message ID to the number it was given, here or by
	// the sequencer that relayed it here, so a retry keeps its number.
	numbered    map[string]uint64
	numberedAge ageing
	// acked tracks, per member, the highest sequence number that member
	// has acknowledged delivering. The minimum over a message's members is
	// the stability watermark shipped with its delivery, so receivers can
	// evict dedup entries.
	acked map[string]uint64
}

// number gives msgID its sequence number — the one it already has, for a
// retry — and returns it with the stability watermark over members.
func (s *sequencer) number(msgID string, members []string) (seq, stable uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stable = s.stableLocked(members)
	seq, ok := s.numbered[msgID]
	if !ok {
		s.last++
		seq = s.last
		s.addLocked(msgID, seq, stable)
	}
	return seq, stable
}

// note records that msgID arrived numbered seq, under the relaying
// sequencer's watermark stable.
func (s *sequencer) note(msgID string, seq, stable uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.numbered[msgID]; !ok {
		s.addLocked(msgID, seq, stable)
	}
	s.last = max(s.last, seq)
}

// addLocked records msgID's number and retires the numbers stable has
// made old. s.mu held.
func (s *sequencer) addLocked(msgID string, seq, stable uint64) {
	s.numbered[msgID] = seq
	s.numberedAge.add(msgID, seq)
	s.numberedAge.retire(stable, func(id string) { delete(s.numbered, id) })
}

// stableLocked returns the stability watermark for the given member list:
// the highest seq every one of them has acknowledged. s.mu held.
func (s *sequencer) stableLocked(members []string) (low uint64) {
	for i, mem := range members {
		a, ok := s.acked[mem]
		if !ok {
			return 0
		}
		if i == 0 || a < low {
			low = a
		}
	}
	return low
}

// dedupRetention is how many sequence numbers of already-stable dedup
// entries each member retains beyond the stability watermark. Stability
// says every member acknowledged delivery — but the *caller's* reply may
// still have been lost, and its retry (typically a few messages later)
// must still find the entry or the message would be re-sequenced and
// applied twice. The margin buys the retry that time while keeping the
// cache bounded at roughly the in-flight window plus the margin.
const dedupRetention = 16

// ageing lists a dedup map's keys in the order they were added, so a
// stability watermark retires the old ones from the front of the list
// instead of by a scan of the map. A key added out of sequence order
// retires with the keys added before it.
type ageing struct {
	keys   []agedKey
	stable uint64 // the watermark already applied
}

type agedKey struct {
	id  string
	seq uint64
}

func (a *ageing) add(id string, seq uint64) { a.keys = append(a.keys, agedKey{id, seq}) }

// retire applies a stability watermark: keys more than dedupRetention
// below it go to drop — every member has acknowledged delivery past them
// and the retry grace window has passed.
//
// This is the bounded-memory trade-off: a retry that arrives after its
// message has aged out of the horizon would be re-sequenced as a new
// message. Callers retry within a few messages, so the horizon closes
// only behind them.
func (a *ageing) retire(stable uint64, drop func(id string)) {
	if stable <= a.stable || stable <= dedupRetention {
		return
	}
	a.stable = stable
	n := 0
	for ; n < len(a.keys) && a.keys[n].seq < stable-dedupRetention; n++ {
		drop(a.keys[n].id)
	}
	a.keys = a.keys[n:]
}

// NewHost creates a Host for a node and registers its RPC handlers on srv.
// client must originate from the node's own address (used for relaying).
func NewHost(srv *rpc.Server, client rpc.Client) *Host {
	h := &Host{
		client: client,
		groups: make(map[string]*membership),
	}
	srv.Handle(ServiceName, MethodDeliverBatch, rpc.Method(h.handleDeliverBatch))
	srv.Handle(ServiceName, MethodSequence, rpc.Method(h.handleSequence))
	return h
}

// Join registers the node as a member of groupID with the given apply
// callback, replacing any previous membership.
func (h *Host) Join(groupID string, apply Apply) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.groups[groupID] = &membership{
		apply: apply,
		seen:  make(map[string][]byte),
		held:  make(map[uint64]chan struct{}),
		seq:   sequencer{numbered: make(map[string]uint64), acked: make(map[string]uint64)},
	}
}

// Leave removes the node from groupID.
func (h *Host) Leave(groupID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.groups, groupID)
}

func (h *Host) lookup(groupID string) (*membership, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.groups[groupID]
	if !ok {
		return nil, rpc.Errorf(rpc.CodeNotFound, "not a member of group %q", groupID)
	}
	return m, nil
}

// handleDeliverBatch applies every message of one frame, in item order:
// a sequenced item respecting total order and dedup, a naive (Seq 0) one at
// once, with neither. Per-message outcomes are reported in item order; the
// whole call fails only when the member itself cannot proceed (not a group
// member, context expired holding back a gap).
func (h *Host) handleDeliverBatch(ctx context.Context, from transport.Addr, req DeliverBatchReq) (DeliverBatchResp, error) {
	m, err := h.lookup(req.Group)
	if err != nil {
		return DeliverBatchResp{}, err
	}
	resp := DeliverBatchResp{Results: make([]BatchResult, len(req.Items))}
	for i, it := range req.Items {
		msg := Delivered{Group: req.Group, MsgID: it.MsgID, Kind: it.Kind, Payload: it.Payload, Seq: it.Seq}
		var out []byte
		var aerr error
		if it.Seq == 0 {
			out, aerr = m.apply(ctx, msg)
		} else {
			if from != h.client.From { // the sequencer numbered it here
				m.seq.note(it.MsgID, it.Seq, req.Stable)
			}
			out, aerr = m.applyOrdered(ctx, msg, req.Stable)
		}
		if aerr != nil {
			if ctx.Err() != nil {
				// The member is stuck (gap hold-back timed out): fail the
				// whole call so the sequencer counts it unreachable.
				return DeliverBatchResp{}, aerr
			}
			resp.Results[i] = BatchResult{Err: aerr.Error()}
			continue
		}
		resp.Results[i] = BatchResult{Payload: out}
	}
	return resp, nil
}

// applyOrdered applies one sequenced message respecting total order and
// dedup, and applies the stability watermark to the dedup state.
func (m *membership) applyOrdered(ctx context.Context, msg Delivered, stable uint64) ([]byte, error) {
	for {
		m.mu.Lock()
		m.seenAge.retire(stable, func(id string) { delete(m.seen, id) })
		if reply, ok := m.seen[msg.MsgID]; ok {
			// Duplicate (sequencer retry): return the cached reply.
			m.mu.Unlock()
			return reply, nil
		}
		if msg.Seq <= m.delivered+1 {
			// The next message — or, at or below delivered, one renumbered
			// by a failed-over sequencer, new since dedup did not match: it
			// is delivered for reliability, in arrival order at this point.
			out, aerr := m.apply(ctx, msg)
			if aerr == nil {
				m.seen[msg.MsgID] = out
				m.seenAge.add(msg.MsgID, msg.Seq)
			}
			if msg.Seq == m.delivered+1 {
				m.delivered = msg.Seq
				if next, ok := m.held[msg.Seq+1]; ok {
					close(next)
					delete(m.held, msg.Seq+1)
				}
			}
			m.mu.Unlock()
			return out, aerr
		}
		// Gap: hold back until the predecessor is applied.
		wait, ok := m.held[msg.Seq]
		if !ok {
			wait = make(chan struct{})
			m.held[msg.Seq] = wait
		}
		m.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-wait:
		}
	}
}

// relayGrace is how long a relay may outlive the caller that asked for it.
// A message that has its number must reach every member, or each member it
// missed holds back every later message of the group; so a caller that
// gives up — cancels, or meets its deadline — does not take the relay down
// with it. The grace bounds how long a member that cannot apply (waiting
// for an object's lock, say) keeps the relay, and the sequencer's handler,
// waiting after that.
const relayGrace = 2 * time.Second

// handleSequence runs on the sequencer member: it numbers the message,
// relays it to every member concurrently as a one-item frame, and answers
// with their replies. A retried request — the caller failed over from a
// dead sequencer, or a concurrent retry under the same MsgID — keeps the
// number the message was first given, here or by the sequencer that
// relayed it here: members that saw it answer from their dedup caches, so
// the retrying caller still gets the full fan-out outcome, and any member
// the first relay missed is repaired.
//
// Total order is carried by the number, not by delivery timing: receivers
// hold back out-of-order arrivals, so parallel delivery preserves the
// identical-order guarantee while the latency is that of the slowest
// member rather than the sum over members. The frame is encoded once and
// shared by all remote deliveries; a member that is this node is delivered
// to directly. Replies and Failed come in member address order, so results
// are deterministic, and successful deliveries advance the per-member ack
// watermark.
func (h *Host) handleSequence(ctx context.Context, from transport.Addr, req SequenceReq) (SequenceResp, error) {
	m, err := h.lookup(req.Group)
	if err != nil {
		return SequenceResp{}, err
	}
	seq, stable := m.seq.number(req.MsgID, req.Members)
	h.sequenced.Add(1)
	if ctx.Done() != nil {
		deadline := time.Now().Add(relayGrace)
		if d, ok := ctx.Deadline(); ok && d.After(deadline) {
			deadline = d
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(context.WithoutCancel(ctx), deadline)
		defer cancel()
	}
	frame := DeliverBatchReq{
		Group:  req.Group,
		Items:  []BatchItem{{MsgID: req.MsgID, Kind: req.Kind, Payload: req.Payload, Seq: seq}},
		Stable: stable,
	}
	payload, err := rpc.Encode(&frame)
	if err != nil {
		return SequenceResp{}, err
	}
	members := req.Members // decoded for this request: ours to sort
	slices.Sort(members)
	type slot struct {
		dr  DeliverBatchResp
		err error
	}
	slots := make([]slot, len(members))
	conc.Do(len(members), func(i int) {
		addr := transport.Addr(members[i])
		if addr == h.client.From {
			slots[i].dr, slots[i].err = h.handleDeliverBatch(ctx, h.client.From, frame)
			return
		}
		body, err := h.client.Call(ctx, addr, ServiceName, MethodDeliverBatch, payload)
		if err != nil {
			slots[i].err = err
			return
		}
		slots[i].err = rpc.Decode(body, &slots[i].dr)
	})

	resp := SequenceResp{Seq: seq, Replies: make([]Reply, 0, len(members))}
	m.seq.mu.Lock()
	defer m.seq.mu.Unlock()
	for i, mem := range members {
		r := Reply{Member: transport.Addr(mem)}
		switch s := &slots[i]; {
		case s.err != nil && isMemberFailure(s.err):
			resp.Failed = append(resp.Failed, mem)
			continue
		case s.err != nil:
			r.Err = s.err.Error()
		case len(s.dr.Results) > 0:
			r.Payload, r.Err = s.dr.Results[0].Payload, s.dr.Results[0].Err
			if r.Err == "" {
				m.seq.acked[mem] = max(m.seq.acked[mem], seq)
			}
		}
		resp.Replies = append(resp.Replies, r)
	}
	return resp, nil
}

// isMemberFailure reports whether err means the member did not (provably)
// receive the message.
func isMemberFailure(err error) bool {
	return errors.Is(err, transport.ErrUnreachable) ||
		errors.Is(err, transport.ErrRequestLost) ||
		errors.Is(err, context.DeadlineExceeded)
}

// msgCounter disambiguates message IDs minted by Multicast within one
// process.
var msgCounter atomic.Uint64

// Multicast reliably delivers (kind, payload) to g in total order, on
// behalf of cli. It tries each member in view order as sequencer until one
// accepts; receivers deduplicate by message ID, so retries are safe. It
// fails only when no member of the group is reachable.
func Multicast(ctx context.Context, cli rpc.Client, g Group, kind string, payload []byte) (*Result, error) {
	msgID := fmt.Sprintf("%s/%d/%s", cli.From, msgCounter.Add(1), kind)
	return multicastWithID(ctx, cli, g, kind, payload, msgID)
}

// multicastWithID is Multicast under a caller-chosen message ID: a retry
// under the same ID is answered from the receivers' dedup records.
func multicastWithID(ctx context.Context, cli rpc.Client, g Group, kind string, payload []byte, msgID string) (*Result, error) {
	members := make([]string, len(g.Members))
	for i, m := range g.Members {
		members[i] = string(m)
	}
	req := SequenceReq{Group: g.ID, MsgID: msgID, Kind: kind, Payload: payload, Members: members}
	var lastErr error
	for _, seqr := range g.Members {
		resp, err := rpc.Invoke[SequenceReq, SequenceResp](ctx, cli, seqr, ServiceName, MethodSequence, req)
		if err != nil {
			if isMemberFailure(err) || errors.Is(err, transport.ErrReplyLost) {
				lastErr = err
				continue // fail over to the next member as sequencer
			}
			return nil, fmt.Errorf("group %s: sequence at %s: %w", g.ID, seqr, err)
		}
		out := &Result{Seq: resp.Seq, Replies: resp.Replies}
		for _, f := range resp.Failed {
			out.Failed = append(out.Failed, transport.Addr(f))
		}
		return out, nil
	}
	return nil, fmt.Errorf("group %s: no reachable sequencer: %w", g.ID, lastErr)
}

// NaiveMulticast fans out directly from the caller with no ordering,
// dedup, or relay — the baseline whose inconsistency Figure 1 illustrates,
// and the send of a lease invalidation: each member gets a one-item frame
// with sequence number 0, which it applies at once. A reply lost from one
// member leaves that member's state applied but reported in Failed-like
// terms to the caller (Err set), and a caller crash midway simply stops the
// loop.
func NaiveMulticast(ctx context.Context, cli rpc.Client, g Group, kind string, payload []byte) *Result {
	// A naive item has no message ID: nothing deduplicates it.
	frame := DeliverBatchReq{Group: g.ID, Items: []BatchItem{{Kind: kind, Payload: payload}}}
	out := &Result{}
	for _, member := range g.Members {
		resp, err := rpc.Invoke[DeliverBatchReq, DeliverBatchResp](ctx, cli, member, ServiceName, MethodDeliverBatch, frame)
		r := Reply{Member: member}
		switch {
		case err != nil && isMemberFailure(err):
			out.Failed = append(out.Failed, member)
			continue
		case err != nil:
			r.Err = err.Error()
		case len(resp.Results) > 0:
			r.Payload, r.Err = resp.Results[0].Payload, resp.Results[0].Err
		}
		out.Replies = append(out.Replies, r)
	}
	return out
}
