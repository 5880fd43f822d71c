package object

import "sync"

// This file implements commutative-operation batching ("flat combining")
// at the object server. A solo commutative invocation — one whose action
// will perform no other work, declared via InvokeReq.Solo on a method the
// class marks Commutative — that loses the race for the object's write
// lock does not join the lock queue. It enqueues its operation with the
// instance's combiner instead. The current write-lock holder drains the
// combiner when its own commit processing reaches the prepare step: each
// queued operation is folded into the holder's state write-back and rides
// the holder's single 2PC round. When that round commits, every folded
// operation's pending Invoke RPC is answered with its own result and
// Batched=true; the follower's action then commits locally with nothing
// left to do. N lock waits + N commits become 1.
//
// A solo holder reaches the prepare step in the request that made it the
// holder: its invoke carries the action's phase one (InvokeReq.Carry), so
// the drain comes right after its own method — whether it took the lock at
// once or was promoted from the queue — and the window in which followers
// can queue behind it is the method plus the lock hand-off, no longer a
// client round trip. What queues during its store write waits for the
// release, and the head is promoted then. A holder that is an ordinary
// action (Atomic + Invoke) drains at its Prepare message, one-phase or not.
//
// A folded operation's fate is its leader's. If no verdict comes — the
// leader's client gave the action up and no Abort reached this server — the
// follower's caller is released by its own deadline with
// CodeCommitUncertain, never with a refusal: the leader's intentions may
// still be committed.
//
// Atomicity: folded operations are applied AFTER the leader's pre-write
// snapshot was taken, so the leader's abort path (snapshot restore)
// undoes the whole batch; the store write-back carries the folded state,
// so the batch commits exactly when the leader commits. All-or-nothing.
//
// Fairness: when the lock frees, the release path kicks the combiner,
// which promotes the queue head to leader only via TryAcquire — and
// TryAcquire refuses to overtake the lock manager's own FIFO waiters, so
// batched traffic cannot starve ordinary actions.

// opOutcome is the resolution of one queued operation.
type opOutcome struct {
	result []byte
	// seq is the committed version the operation ran on.
	seq uint64
	// batchSize is the total number of operations the carrying commit
	// folded (leader's own included).
	batchSize int
	// leader reports that the operation was not folded: the combiner
	// promoted it to lock holder and its own action must drive the commit.
	leader bool
	err    error
}

// pendingOp is one operation parked in a combiner queue. done is buffered
// so the resolver never blocks on an abandoned waiter. result and seq are
// filled at fold time (under the instance mutex) and delivered on commit.
type pendingOp struct {
	action string
	method string
	args   []byte
	result []byte
	seq    uint64
	done   chan opOutcome
}

func newPendingOp(action, method string, args []byte) *pendingOp {
	return &pendingOp{action: action, method: method, args: args, done: make(chan opOutcome, 1)}
}

// combiner is the per-instance queue of foldable operations.
//
// Lock order: in.mu may be held when taking comb.mu (the prepare-time
// drain); never the reverse. The kick path takes comb.mu alone, and
// releases it before touching in.mu.
type combiner struct {
	mu    sync.Mutex
	queue []*pendingOp
}

// depth returns the current queue length.
func (c *combiner) depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// push appends op and returns the resulting depth.
func (c *combiner) push(op *pendingOp) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queue = append(c.queue, op)
	return len(c.queue)
}

// remove deletes op from the queue if still present. A false return means
// a leader already claimed it: its fate will arrive on op.done.
func (c *combiner) remove(op *pendingOp) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, q := range c.queue {
		if q == op {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return true
		}
	}
	return false
}

// takeAll claims the whole queue (the prepare-time drain).
func (c *combiner) takeAll() []*pendingOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.queue
	c.queue = nil
	return q
}
