package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/transport"
)

// endBound is how long an action-end waits in its binder for a message to
// the same database to ride before it is sent alone (see txGroup.end).
const endBound = time.Millisecond

// Ends is the set of binders whose action-ends a wait for quiescence must
// flush first (Flush): the binders of one deployment share one through
// BindConfig.Ends, and a binder joins it with its first action-end.
type Ends struct {
	mu      sync.Mutex
	binders []*Binder
}

func (e *Ends) join(b *Binder) {
	e.mu.Lock()
	e.binders = append(e.binders, b)
	e.mu.Unlock()
}

// Flush sends every member binder's pending action-ends now
// (Binder.FlushEnds) and returns the first error.
func (e *Ends) Flush(ctx context.Context) error {
	e.mu.Lock()
	binders := slices.Clone(e.binders)
	e.mu.Unlock()
	var first error
	for _, b := range binders {
		if err := b.FlushEnds(ctx); first == nil {
			first = err
		}
	}
	return first
}

// pendingEnds is what a binder's action-ends have not yet sent: the client
// actions' EndActions, and their bindings' Decrements. The binder's next
// message to its database carries them at its head (Binder.do); when
// endBound passes with none, they go alone.
type pendingEnds struct {
	mu sync.Mutex
	// acts are EndActions and decs Decrements, not yet sent.
	acts, decs []Op
	// timer sends the ends alone once endBound has passed since armed was
	// set; it is made on first use, when the binder also joins its Ends.
	timer *time.Timer
	armed bool
	// Each message carrying ends taken from the lists has a ticket, numbered
	// in order (last is the latest); out holds those of the messages that
	// have not come back, and back wakes wait whenever one does.
	last uint64
	out  []uint64
	back sync.Cond
}

// add queues the end of the action named act (none when act is empty),
// with its outcome and the Decrements of its bindings, and arms the bound
// when anything waits.
func (p *pendingEnds) add(b *Binder, act string, commit bool, members []*Binding) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if act != "" {
		p.acts = append(p.acts, EndActionOp(act, commit))
	}
	for _, bd := range members {
		p.decs = bd.appendDecrement(p.decs)
	}
	if p.pendingLocked() {
		p.armLocked(b)
	}
}

func (p *pendingEnds) pendingLocked() bool { return len(p.acts)+len(p.decs) > 0 }

func (p *pendingEnds) armLocked(b *Binder) {
	if p.armed {
		return
	}
	p.armed = true
	if p.timer == nil {
		p.timer = time.AfterFunc(endBound, func() { _ = b.FlushEnds(context.Background()) })
		if b.Ends != nil {
			b.Ends.join(b)
		}
	} else {
		p.timer.Reset(endBound)
	}
}

// take appends every pending op to dst, the EndActions first, and empties
// the lists; carrier says a message's own ops will follow, and so need an
// own EndAction between theirs and the Decrements'. It returns the
// message's ticket, zero when it took nothing. A caller that took any op
// calls done with the ticket once its message has come back.
func (p *pendingEnds) take(dst []Op, carrier bool) ([]Op, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.pendingLocked() {
		return dst, 0
	}
	if p.armed {
		p.timer.Stop()
		p.armed = false
	}
	p.last++
	p.out = append(p.out, p.last)
	dst = append(append(dst, p.acts...), p.decs...)
	if carrier && len(p.decs) > 0 {
		dst = append(dst, EndActionOp("", true))
	}
	clear(p.acts)
	clear(p.decs)
	p.acts, p.decs = p.acts[:0], p.decs[:0]
	return dst, p.last
}

// done counts the message with the ticket as come back.
func (p *pendingEnds) done(ticket uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out = slices.DeleteFunc(p.out, func(t uint64) bool { return t == ticket })
	p.back.Broadcast()
}

// wait returns once every message carrying ends with a ticket up to upTo
// has come back; those taken later it does not wait for.
func (p *pendingEnds) wait(upTo uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.back.L = &p.mu
	for slices.ContainsFunc(p.out, func(t uint64) bool { return t <= upTo }) {
		p.back.Wait()
	}
}

// tickets returns the latest ticket.
func (p *pendingEnds) tickets() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// lost puts back what a message lost in transport carried: ops. Its
// EndActions go back every time: EndAction is idempotent. Its Decrements go
// back only when the message never left (unsent) and so ran nothing: one
// that may have arrived may have run them, and a Decrement must not run
// twice. The bound is armed unless the message never left and was the
// bound's own (alone): the next carrier takes them then, so a database that
// cannot be reached is not tried once a bound.
func (p *pendingEnds) lost(b *Binder, ops []Op, unsent, alone bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, op := range ops {
		switch {
		case op.Kind == OpEndAction && op.Action != "":
			p.acts = append(p.acts, op)
		case op.Kind == OpDecrement && unsent:
			p.decs = append(p.decs, op)
		}
	}
	if p.pendingLocked() && (!unsent || !alone) {
		p.armLocked(b)
	}
}

// unsent reports whether a message's failure shows that it never left:
// the database could not be reached, the request was dropped before
// delivery, or the connection refused it.
func unsent(err error) bool {
	return errors.Is(err, transport.ErrUnreachable) || errors.Is(err, transport.ErrRequestLost) ||
		errors.Is(err, transport.ErrOverloaded)
}

// live reports whether a message sent under ctx can still leave: under a
// context that is done, or past its deadline, none is sent.
func live(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	dl, ok := ctx.Deadline()
	return !ok || time.Until(dl) > 0
}

// do sends ops to the binder's database as one message, the pending
// action-ends at its head — [EndAction…, Decrement(own)…, EndAction(own)],
// then ops — and returns ops' results. The own EndAction commits the
// Decrements as the own action it ends, so they share no lock or fate with
// ops' own action (DB.batch). The EndActions lead because they cannot be
// refused: a refused Decrement stops the message after all of them ran.
//
// The ends ride only a message that can leave: under a context already
// done, do takes none, and they wait for the next message or the bound. An
// answer from the database, error or not, means the carried ops ran, since
// they come before anything that failed, and their commits are durable,
// since the database writes before it replies — except CodeStopped, the
// answer of a database whose stable write failed, which says that nothing
// of the message is durable: the node restarts without it. That answer, and
// a message lost in transport, hand them back (pendingEnds.lost), all of
// them as for a message that never left when the answer is CodeStopped.
// With no ops, do sends the pending ends alone, or nothing when there are
// none.
func (b *Binder) do(ctx context.Context, ops ...Op) ([]OpResult, error) {
	scratch := opScratch.Get().(*[]Op)
	sent, ticket := (*scratch)[:0], uint64(0)
	if live(ctx) {
		sent, ticket = b.ends.take(sent, len(ops) > 0)
	}
	n := len(sent)
	sent = append(sent, ops...)
	var res []OpResult
	var err error
	if len(sent) > 0 {
		res, err = b.DB.send(ctx, sent)
	}
	if ticket != 0 {
		if code := rpc.CodeOf(err); err != nil && (code == "" || code == CodeStopped) {
			b.ends.lost(b, sent[:n], code == CodeStopped || unsent(err), len(ops) == 0)
		}
		b.ends.done(ticket)
	}
	putOps(scratch, sent)
	if err != nil {
		return nil, err
	}
	return res[n:], nil
}

// FlushEnds sends the binder's pending action-ends now, alone, and waits
// for every message that took ends before it to come back. A wait for
// quiescence calls it first (Ends.Flush): the use counts of an ended
// action's bindings, and its locks, are gone from the database once it
// returns nil.
func (b *Binder) FlushEnds(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	upTo := b.ends.tickets()
	_, err := b.do(ctx)
	b.ends.wait(upTo)
	if err == nil {
		// What a message lost meanwhile put back goes once more.
		_, err = b.do(ctx)
	}
	return err
}
