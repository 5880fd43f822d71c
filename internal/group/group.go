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
//   - Multicast — reliable, totally ordered: the sender hands the message
//     to a deterministic sequencer member, which assigns the next sequence
//     number and relays to every member. The sender makes a single call, so
//     a sender failure cannot cause partial delivery; a sequencer failure
//     is handled by retrying through the next member with the same message
//     ID, which the sequencer re-relays under its original number and
//     receivers deduplicate.
//   - NaiveMulticast — the sender fans out to the members itself, one
//     after another, so a failure (of the sender, or of reply delivery)
//     midway leaves the group inconsistent: the baseline that reproduces
//     the Figure 1 anomaly, and the right tool where members share no
//     state to diverge — a lease invalidation, one message to each holder
//     node's mailbox (internal/lease), travels this way.
//
// Both travel in one frame, DeliverBatch. The sequencer relays each round —
// the messages it ordered while the previous round was on the wire, often
// just one — as one frame per member; a naive send is a frame of one item
// with sequence number 0. Sequence numbers are per group. Receivers deliver
// sequenced items strictly in sequence order, holding back out-of-order
// arrivals, and apply a naive item at once.
package group

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
	// the messages of one sequencer round, or one naive message.
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
	Group   string
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

// BatchItem is one message inside a deliver frame; Seq is 0 for a naive
// message.
type BatchItem struct {
	MsgID   string
	Kind    string
	Payload []byte
	Seq     uint64
}

// DeliverBatchReq is the wire form of a delivery: all messages the
// sequencer ordered in one round, sorted by ascending Seq.
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

	// rounds counts sequencer fan-out rounds run by this host; orderedMsgs
	// counts the messages those rounds carried. msgs/rounds > 1 means the
	// batcher is amortising legs under pipelined load.
	rounds      atomic.Uint64
	orderedMsgs atomic.Uint64

	mu     sync.Mutex
	groups map[string]*membership
}

// SequencerStats reports how many fan-out rounds this host has run as a
// sequencer and how many messages they carried in total. Under pipelined
// load messages exceed rounds: requests that arrive while a fan-out is in
// flight are ordered and delivered together in the next round.
func (h *Host) SequencerStats() (rounds, messages uint64) {
	return h.rounds.Load(), h.orderedMsgs.Load()
}

// seenEntry caches one delivered message: the reply returned to the
// relaying sequencer and the sequence number the message was assigned, so
// a fail-over sequencer can re-relay under the original number.
type seenEntry struct {
	reply []byte
	seq   uint64
}

// pendingSeq is one sequencing request waiting for a fan-out round. The
// round leader fills resp/err and closes done. A queued waiter may
// instead be elected the next round's leader (lead closed, elected set
// under the membership mutex); a waiter whose context expires marks
// itself abandoned so it is never elected.
type pendingSeq struct {
	req  SequenceReq
	done chan struct{}
	lead chan struct{}
	resp SequenceResp
	err  error

	// elected and abandoned are guarded by the membership mutex.
	elected   bool
	abandoned bool
}

type membership struct {
	apply Apply

	mu        sync.Mutex
	nextSeq   uint64 // sequencer counter: next seq to assign is nextSeq+1
	delivered uint64 // receiver: highest seq applied
	seen      map[string]seenEntry
	applied   chan struct{} // closed & renewed after each in-order apply
	// relaying marks a fan-out round in flight; sequence requests arriving
	// meanwhile queue up and are ordered+delivered together in the next
	// round by the current leader (batched sequencer ordering).
	relaying bool
	queue    []*pendingSeq
	// acked tracks, per member, the highest sequence number that member
	// has acknowledged delivering (sequencer-role state). The minimum over
	// the current membership is the stability watermark shipped with every
	// delivery so receivers can evict dedup entries.
	acked map[string]uint64
	// stable is the receiver-side eviction watermark already applied to
	// the seen map.
	stable uint64
}

// stableLocked returns the stability watermark for the given member
// list: the highest seq every one of them has acknowledged. m.mu held.
func (m *membership) stableLocked(members []string) uint64 {
	low := ^uint64(0)
	for _, mem := range members {
		a, ok := m.acked[mem]
		if !ok {
			return 0
		}
		if a < low {
			low = a
		}
	}
	if low == ^uint64(0) {
		return 0
	}
	return low
}

// dedupRetention is how many sequence numbers of already-stable dedup
// entries each member retains beyond the stability watermark. Stability
// says every member acknowledged delivery — but the *caller's* reply may
// still have been lost, and its retry (typically a few rounds later)
// must still find the entry or the message would be re-sequenced and
// applied twice. The margin buys the retry that time while keeping the
// cache bounded at roughly the in-flight window plus the margin.
const dedupRetention = 16

// evictLocked applies a stability watermark: dedup entries more than
// dedupRetention below it are dropped — every member has acknowledged
// delivery past them and the retry grace window has passed. m.mu held.
//
// This is the bounded-memory trade-off: a retry that arrives after its
// message has aged out of the horizon would be re-sequenced as a new
// message. Callers retry within a few rounds, so the horizon closes
// only behind them.
func (m *membership) evictLocked(stable uint64) {
	if stable <= m.stable {
		return
	}
	m.stable = stable
	if stable <= dedupRetention {
		return
	}
	cutoff := stable - dedupRetention
	for id, se := range m.seen {
		if se.seq < cutoff {
			delete(m.seen, id)
		}
	}
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
		apply:   apply,
		seen:    make(map[string]seenEntry),
		applied: make(chan struct{}),
		acked:   make(map[string]uint64),
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
		m.evictLocked(stable)
		if prev, ok := m.seen[msg.MsgID]; ok {
			// Duplicate (sequencer retry): return the cached reply.
			m.mu.Unlock()
			return prev.reply, nil
		}
		if msg.Seq <= m.delivered {
			// Superseded sequence number from a failed-over sequencer;
			// deliver anyway (dedup above did not match, so it is new) to
			// preserve reliability, but in arrival order at this point.
			out, aerr := m.apply(ctx, msg)
			if aerr == nil {
				m.seen[msg.MsgID] = seenEntry{reply: out, seq: msg.Seq}
			}
			m.mu.Unlock()
			return out, aerr
		}
		if msg.Seq == m.delivered+1 {
			out, aerr := m.apply(ctx, msg)
			if aerr == nil {
				m.seen[msg.MsgID] = seenEntry{reply: out, seq: msg.Seq}
			}
			m.delivered = msg.Seq
			close(m.applied)
			m.applied = make(chan struct{})
			m.mu.Unlock()
			return out, aerr
		}
		// Gap: hold back until the predecessor is applied.
		wait := m.applied
		m.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-wait:
		}
	}
}

// handleSequence runs on the sequencer member. The first request to
// arrive while no fan-out is in flight becomes the round leader; requests
// arriving while the leader's round is on the wire queue up, and the
// leader orders and delivers them together as one batched frame when the
// round completes — so the sequencer orders more than one message per
// round under pipelined load instead of serialising one round trip per
// message. A retried request — the caller failed over from a dead
// sequencer, under the same MsgID — queues like any other, and the round
// that carries it re-relays it under its original number (see drain).
func (h *Host) handleSequence(ctx context.Context, from transport.Addr, req SequenceReq) (SequenceResp, error) {
	m, err := h.lookup(req.Group)
	if err != nil {
		return SequenceResp{}, err
	}
	p := &pendingSeq{req: req, done: make(chan struct{}), lead: make(chan struct{})}
	m.mu.Lock()
	m.queue = append(m.queue, p)
	if m.relaying {
		// A round is in flight: its leader will either deliver this message
		// with the next batch or elect this caller to lead that batch.
		m.mu.Unlock()
		select {
		case <-p.done:
			return p.resp, p.err
		case <-p.lead:
			h.drain(ctx, m)
			<-p.done
			return p.resp, p.err
		case <-ctx.Done():
			m.mu.Lock()
			elected := p.elected
			p.abandoned = true
			m.mu.Unlock()
			if elected {
				// Lost the race with our election. Serving the round under
				// our dead context would assign sequence numbers to live
				// callers' messages and then fail every delivery, leaving a
				// hole in the sequence stream — so hand leadership to a
				// live waiter instead, and only if none exists serve the
				// remaining (all-abandoned) entries under a detached
				// context so their assigned numbers really get delivered.
				if !h.handOff(m) {
					h.drain(context.WithoutCancel(ctx), m)
				}
				<-p.done
				return p.resp, p.err
			}
			return SequenceResp{}, ctx.Err()
		}
	}
	m.relaying = true
	m.mu.Unlock()

	h.drain(ctx, m)
	<-p.done
	return p.resp, p.err
}

// drain runs fan-out rounds; the caller must hold leadership (m.relaying
// set, or its lead channel closed). Each round snapshots the queue,
// assigns a contiguous sequence range to the new messages, and relays them
// as one frame. A message this member has already delivered — a retry
// through a fail-over sequencer — keeps its original number: members that
// saw it answer from their dedup caches, so the retrying caller still gets
// the full fan-out outcome, and any member the first relay missed is
// repaired. After its round — the one carrying its own message — the
// leader hands the remaining queue to an elected successor (a live queued
// waiter) rather than serving the whole burst itself, so no caller is held
// past its own round and every round runs under a live caller's context.
func (h *Host) drain(ctx context.Context, m *membership) {
	for {
		m.mu.Lock()
		if len(m.queue) == 0 {
			m.relaying = false
			m.mu.Unlock()
			return
		}
		batch := m.queue
		m.queue = nil
		// Initialise the counter from what this member has observed, so a
		// fail-over sequencer continues the stream rather than reusing
		// numbers.
		if m.nextSeq < m.delivered {
			m.nextSeq = m.delivered
		}
		entries := make([]roundEntry, 0, len(batch))
		for k, p := range batch {
			if i := slices.IndexFunc(entries, func(e roundEntry) bool { return e.req.MsgID == p.req.MsgID }); i >= 0 {
				entries[i].waiters = append(entries[i].waiters, p)
				continue
			}
			// Capped at one, so a duplicate's append copies instead of
			// writing into batch.
			e := roundEntry{req: p.req, waiters: batch[k : k+1 : k+1]}
			if prev, ok := m.seen[p.req.MsgID]; ok {
				e.seq = prev.seq
			} else {
				m.nextSeq++
				e.seq = m.nextSeq
			}
			entries = append(entries, e)
		}
		// Item i of the frame is entry i.
		slices.SortFunc(entries, func(a, b roundEntry) int { return cmp.Compare(a.seq, b.seq) })
		// The member set of the round is the union of the entries' views, in
		// address order; each entry's result is filtered back to its own.
		var members []string
		for _, e := range entries {
			for _, mem := range e.req.Members {
				if !slices.Contains(members, mem) {
					members = append(members, mem)
				}
			}
		}
		slices.Sort(members)
		stable := m.stableLocked(members)
		m.mu.Unlock()

		h.rounds.Add(1)
		h.orderedMsgs.Add(uint64(len(entries)))
		h.relay(ctx, m, entries, members, stable)
		if h.handOff(m) {
			return
		}
	}
}

// roundEntry is one distinct message of a round and the callers waiting on
// it. Concurrent retries of one logical message coalesce into one entry:
// one delivery, and every waiter gets the outcome. Giving a duplicate a
// fresh number would leave a hole in the sequence no delivery ever fills.
type roundEntry struct {
	req     SequenceReq
	seq     uint64
	waiters []*pendingSeq
}

// relay sends one round's frame to every member concurrently and answers
// the round's waiters. Total order is carried by the assigned seqs, not by
// delivery timing: receivers hold back out-of-order arrivals, so parallel
// delivery preserves the identical-order guarantee while the latency is
// that of the slowest member rather than the sum over members. The frame
// is encoded once and shared by all remote deliveries; a member that is
// this node is delivered to directly. Replies and Failed come in member
// order, so results are deterministic, and successful deliveries advance
// the per-member ack watermark on m.
func (h *Host) relay(ctx context.Context, m *membership, entries []roundEntry, members []string, stable uint64) {
	items := make([]BatchItem, len(entries))
	for i, e := range entries {
		items[i] = BatchItem{MsgID: e.req.MsgID, Kind: e.req.Kind, Payload: e.req.Payload, Seq: e.seq}
	}
	frame := DeliverBatchReq{Group: entries[0].req.Group, Items: items, Stable: stable}
	payload, err := rpc.Encode(&frame)
	if err != nil {
		for _, e := range entries {
			for _, p := range e.waiters {
				p.err = err
				close(p.done)
			}
		}
		return
	}
	type slot struct {
		dr  DeliverBatchResp
		err error
	}
	slots := make([]slot, len(members))
	conc.DoLimited(len(members), fanOutConcurrency, func(i int) {
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

	m.mu.Lock()
	for i, mem := range members {
		s := &slots[i]
		for j, it := range items {
			if s.err == nil && j < len(s.dr.Results) && s.dr.Results[j].Err == "" && it.Seq > m.acked[mem] {
				m.acked[mem] = it.Seq
			}
		}
	}
	m.mu.Unlock()
	for j, e := range entries {
		resp := SequenceResp{Seq: e.seq, Replies: make([]Reply, 0, len(e.req.Members))}
		for i, mem := range members {
			if !slices.Contains(e.req.Members, mem) {
				continue
			}
			r := Reply{Member: transport.Addr(mem)}
			switch s := &slots[i]; {
			case s.err != nil && isMemberFailure(s.err):
				resp.Failed = append(resp.Failed, mem)
				continue
			case s.err != nil:
				r.Err = s.err.Error()
			case j < len(s.dr.Results):
				r.Payload, r.Err = s.dr.Results[j].Payload, s.dr.Results[j].Err
			}
			resp.Replies = append(resp.Replies, r)
		}
		for _, p := range e.waiters {
			p.resp = resp
			close(p.done)
		}
	}
}

// handOff ends the caller's leadership after its round: it elects the
// first live queued waiter to lead the next round (closing its lead
// channel) and returns true. With an empty queue it clears the relaying
// flag and returns true. It returns false only when every queued entry
// has been abandoned by its caller — those messages still deserve
// delivery, so the current leader keeps serving.
func (h *Host) handOff(m *membership) bool {
	m.mu.Lock()
	if len(m.queue) == 0 {
		m.relaying = false
		m.mu.Unlock()
		return true
	}
	var successor *pendingSeq
	for _, q := range m.queue {
		if !q.abandoned {
			successor = q
			break
		}
	}
	if successor == nil {
		m.mu.Unlock()
		return false
	}
	successor.elected = true
	m.mu.Unlock()
	close(successor.lead)
	return true
}

// fanOutConcurrency bounds the parallel deliveries of one round, so very
// large groups cannot stampede the relay node.
const fanOutConcurrency = 16

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
	frame := DeliverBatchReq{Group: g.ID, Items: []BatchItem{{MsgID: string(cli.From) + "/naive/" + kind, Kind: kind, Payload: payload}}}
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
