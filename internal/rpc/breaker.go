// Circuit breakers: per-peer failure tracking at the one choke point every
// RPC in the repository passes through (Client.Call), so a sick node is
// detected once and then skipped by every caller instead of each caller
// rediscovering it with a stacked timeout.
//
// The breaker is the standard three-state machine. Closed passes calls
// through and records their transport-level outcomes in a sliding window;
// when the window holds Threshold failures the breaker trips open. Open
// fast-fails every call with ErrPeerUnavailable — an error that also
// matches transport.ErrUnreachable, so the binding/commit layers' existing
// exclusion and §4.2 recovery paths fire on the fast-fail exactly as they
// would on a real unreachable peer, just without burning the timeout.
// After Cooldown the breaker admits exactly one probe request (half-open);
// the probe's success closes the breaker, its failure re-opens it for
// another cooldown.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// ErrPeerUnavailable reports a call refused locally because the peer's
// circuit breaker is open: the operation was NOT sent — it certainly did
// not happen, the same guarantee transport.ErrUnreachable carries (and the
// returned error matches both sentinels under errors.Is).
var ErrPeerUnavailable = errors.New("rpc: peer unavailable (circuit breaker open)")

// peerDownError is the open-state fast-fail. It matches ErrPeerUnavailable
// (so callers can tell a breaker skip from a genuine network failure) AND
// transport.ErrUnreachable (so every existing "member failed — exclude and
// repair" path fires on it unchanged).
type peerDownError struct{ peer transport.Addr }

func (e *peerDownError) Error() string {
	return fmt.Sprintf("rpc: peer %s unavailable (circuit breaker open)", e.peer)
}

func (e *peerDownError) Unwrap() []error {
	return []error{ErrPeerUnavailable, transport.ErrUnreachable}
}

// BreakerConfig tunes a set of per-peer circuit breakers. The zero value
// of each field selects its default.
type BreakerConfig struct {
	// Window is how many recent call outcomes each peer's breaker tracks
	// (default 10).
	Window int
	// Threshold is the number of failures within the window that trips the
	// breaker open (default 5).
	Threshold int
	// Cooldown is how long a tripped breaker fast-fails before admitting a
	// half-open probe (default 250ms).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 10
	}
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Threshold > c.Window {
		c.Threshold = c.Window
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 250 * time.Millisecond
	}
	return c
}

// BreakerState is one breaker's position in the closed/open/half-open
// machine.
type BreakerState int

// Breaker states.
const (
	StateClosed BreakerState = iota
	StateOpen
	StateHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// breaker is one peer's state machine. Its fields are guarded by mu, and
// the methods are short critical sections on the per-call path, except on a
// healthy peer: while the breaker is closed with no failure in its window, a
// call is admitted and its success recorded without mu.
type breaker struct {
	cfg BreakerConfig

	// watch is state != StateClosed || fails > 0, stored under mu whenever
	// either changes. Clear, acquire admits at once, and record drops a
	// success: the window then holds successes alone, so the outcome a
	// success would push out is a success too, and no later decision can
	// tell it was not kept.
	watch atomic.Bool

	mu       sync.Mutex
	state    BreakerState
	ring     []bool // sliding outcome window, true = failure
	size     int    // outcomes currently in the ring
	next     int    // ring write index
	fails    int    // failures currently in the ring
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// acquire decides whether a call may proceed. probe marks the call as the
// half-open probe; its outcome alone decides the next state.
func (b *breaker) acquire(now time.Time) (proceed, probe bool) {
	if !b.watch.Load() {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true, false
	case StateOpen:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			return false, false
		}
		b.state = StateHalfOpen
		b.probing = false
		fallthrough
	case StateHalfOpen:
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
	return true, false
}

// record feeds a finished call's outcome back. countable=false outcomes
// (caller-side cancellation, application-level errors already excluded by
// the caller) release a probe without judging the peer. Returns whether
// this outcome tripped the breaker open.
func (b *breaker) record(failure, countable, probe bool, now time.Time) (tripped bool) {
	if !failure && !probe && !b.watch.Load() {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if !countable {
			return false // the probe told us nothing; half-open admits another
		}
		if failure {
			b.trip(now)
			return true
		}
		b.toClosed()
		return false
	}
	if !countable || b.state != StateClosed {
		// Outcomes of calls that started before a trip (or during half-open)
		// are stale: only the probe may close or re-open the breaker.
		return false
	}
	if b.ring == nil {
		b.ring = make([]bool, b.cfg.Window)
	}
	if b.size == len(b.ring) {
		if b.ring[b.next] {
			b.fails--
		}
	} else {
		b.size++
	}
	b.ring[b.next] = failure
	if failure {
		b.fails++
	}
	b.next = (b.next + 1) % len(b.ring)
	if b.fails >= b.cfg.Threshold {
		b.trip(now)
		return true
	}
	b.watch.Store(b.fails > 0)
	return false
}

// trip opens the breaker at now. mu must be held.
func (b *breaker) trip(now time.Time) {
	b.state = StateOpen
	b.openedAt = now
	b.watch.Store(true)
}

// toClosed resets to a fresh closed state. mu must be held.
func (b *breaker) toClosed() {
	b.state = StateClosed
	b.size, b.next, b.fails = 0, 0, 0
	b.probing = false
	if b.ring != nil {
		for i := range b.ring {
			b.ring[i] = false
		}
	}
	b.watch.Store(false)
}

// Breakers is one origin node's set of per-peer circuit breakers, shared
// by every Client that node hands out. Safe for concurrent use.
type Breakers struct {
	cfg BreakerConfig
	// peers maps each peer to its breaker. It is read on every call and
	// written once per peer, so a write copies the map under mu and a read
	// is one atomic load and one lookup in a plain map.
	peers atomic.Pointer[map[transport.Addr]*breaker]
	mu    sync.Mutex

	trips     atomic.Int64
	fastFails atomic.Int64
	probes    atomic.Int64
}

// NewBreakers returns an empty breaker set with the given configuration
// (zero fields take their defaults).
func NewBreakers(cfg BreakerConfig) *Breakers {
	return &Breakers{cfg: cfg.withDefaults()}
}

// all returns the peer-to-breaker map. Callers must not write to it.
func (s *Breakers) all() map[transport.Addr]*breaker {
	if m := s.peers.Load(); m != nil {
		return *m
	}
	return nil
}

func (s *Breakers) get(peer transport.Addr) *breaker {
	if b, ok := s.all()[peer]; ok {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.all()
	if b, ok := old[peer]; ok {
		return b
	}
	m := make(map[transport.Addr]*breaker, len(old)+1)
	for p, b := range old {
		m[p] = b
	}
	b := &breaker{cfg: s.cfg}
	m[peer] = b
	s.peers.Store(&m)
	return b
}

// Acquire asks whether a call to peer may proceed. probe marks the call
// as the peer's half-open probe — the caller MUST follow up with Record
// regardless of outcome, or the breaker stays probe-locked until reset.
// A false proceed is counted as a fast-fail.
func (s *Breakers) Acquire(peer transport.Addr) (proceed, probe bool) {
	return s.admit(s.get(peer), time.Now())
}

// admit is Acquire on a breaker already looked up, at an instant already
// read.
func (s *Breakers) admit(b *breaker, now time.Time) (proceed, probe bool) {
	proceed, probe = b.acquire(now)
	if !proceed {
		s.fastFails.Add(1)
	} else if probe {
		s.probes.Add(1)
	}
	return proceed, probe
}

// Record feeds a finished call's transport-level error back into peer's
// breaker and reports whether this outcome tripped it open. Only
// "certainly-sick" outcomes count as failures: the transport sentinels
// and a deadline expiry (stacked timeouts are exactly what the breaker
// exists to prevent). An application-level reply — however unhappy —
// proves the peer alive and counts as success; caller-side cancellation
// proves nothing and is not counted at all.
func (s *Breakers) Record(peer transport.Addr, probe bool, err error) (tripped bool) {
	return s.settle(s.get(peer), probe, err, time.Now())
}

// settle is Record on a breaker already looked up, at an instant already
// read.
func (s *Breakers) settle(b *breaker, probe bool, err error, now time.Time) (tripped bool) {
	failure, countable := breakerOutcome(err)
	tripped = b.record(failure, countable, probe, now)
	if tripped {
		s.trips.Add(1)
	}
	return tripped
}

// breakerOutcome classifies a Call error for breaker accounting.
func breakerOutcome(err error) (failure, countable bool) {
	if err == nil {
		return false, true
	}
	var ae *AppError
	if errors.As(err, &ae) {
		return false, true // the peer answered; it is alive
	}
	if errors.Is(err, context.Canceled) {
		return false, false // the CALLER gave up; says nothing about the peer
	}
	if errors.Is(err, transport.ErrUnreachable) ||
		errors.Is(err, transport.ErrRequestLost) ||
		errors.Is(err, transport.ErrReplyLost) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, os.ErrDeadlineExceeded) {
		return true, true
	}
	return false, false
}

// State returns peer's current breaker state (closed for an unknown peer).
func (s *Breakers) State(peer transport.Addr) BreakerState {
	b, ok := s.all()[peer]
	if !ok {
		return StateClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Surface cooldown expiry without mutating: an open breaker past its
	// cooldown will go half-open on the next Acquire.
	if b.state == StateOpen && time.Since(b.openedAt) >= b.cfg.Cooldown {
		return StateHalfOpen
	}
	return b.state
}

// Reset returns peer's breaker to a fresh closed state — called when the
// peer is known recovered (node restart, partition healed).
func (s *Breakers) Reset(peer transport.Addr) {
	if b, ok := s.all()[peer]; ok {
		b.mu.Lock()
		b.toClosed()
		b.mu.Unlock()
	}
}

// ResetAll closes every breaker in the set.
func (s *Breakers) ResetAll() {
	for _, b := range s.all() {
		b.mu.Lock()
		b.toClosed()
		b.mu.Unlock()
	}
}

// Counters returns the set's cumulative trip, fast-fail and probe counts.
func (s *Breakers) Counters() (trips, fastFails, probes int64) {
	return s.trips.Load(), s.fastFails.Load(), s.probes.Load()
}

// BreakerStatus is one peer's breaker state, as reported by Snapshot.
type BreakerStatus struct {
	Peer     transport.Addr
	State    BreakerState
	Failures int // failures currently in the sliding window
	// Window counts the outcomes currently in the sliding window. A success
	// recorded while the window holds no failure is not kept, so a peer
	// that has never failed reads 0.
	Window int
}

// Snapshot returns every tracked peer's status, sorted by peer address.
func (s *Breakers) Snapshot() []BreakerStatus {
	var out []BreakerStatus
	for peer, b := range s.all() {
		b.mu.Lock()
		st := BreakerStatus{Peer: peer, State: b.state, Failures: b.fails, Window: b.size}
		if b.state == StateOpen && time.Since(b.openedAt) >= b.cfg.Cooldown {
			st.State = StateHalfOpen
		}
		b.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
