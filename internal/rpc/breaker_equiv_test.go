package rpc

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// refBreaker is the ring breaker as it was before the healthy path went
// lock-free: every admit and every outcome under the mutex, every countable
// outcome kept in the ring. TestBreakerMatchesRingReference holds the
// breaker to its decisions.
type refBreaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	ring     []bool
	size     int
	next     int
	fails    int
	openedAt time.Time
	probing  bool
}

func (b *refBreaker) acquire(now time.Time) (proceed, probe bool) {
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

func (b *refBreaker) record(failure, countable, probe bool, now time.Time) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if !countable {
			return false
		}
		if failure {
			b.state = StateOpen
			b.openedAt = now
			return true
		}
		b.toClosed()
		return false
	}
	if !countable || b.state != StateClosed {
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
		b.state = StateOpen
		b.openedAt = now
		return true
	}
	return false
}

func (b *refBreaker) toClosed() {
	b.state = StateClosed
	b.size, b.next, b.fails = 0, 0, 0
	b.probing = false
	if b.ring != nil {
		for i := range b.ring {
			b.ring[i] = false
		}
	}
}

// TestBreakerMatchesRingReference drives random sequences of admits,
// successes, failures, uncounted outcomes, probes, cooldowns and resets
// through the breaker and through refBreaker side by side, on one fake
// clock. Calls finish in any order, as concurrent callers' do. Every admit
// and trip decision, and every state and failure count, must be equal.
func TestBreakerMatchesRingReference(t *testing.T) {
	outcomes := []struct {
		failure, countable bool
	}{{false, true}, {true, true}, {false, false}}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(6)
		cfg := BreakerConfig{Window: w, Threshold: 1 + rng.Intn(w), Cooldown: 10 * time.Millisecond}.withDefaults()
		b, ref := &breaker{cfg: cfg}, &refBreaker{cfg: cfg}
		now := time.Unix(0, 0)
		var inFlight []bool // probe flag of each admitted call not yet recorded
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(20); {
			case op < 8:
				proceed, probe := b.acquire(now)
				rp, rprobe := ref.acquire(now)
				if proceed != rp || probe != rprobe {
					t.Fatalf("seed %d step %d (%+v): acquire = %v/%v, reference %v/%v", seed, step, cfg, proceed, probe, rp, rprobe)
				}
				if proceed {
					inFlight = append(inFlight, probe)
				}
			case op < 17 && len(inFlight) > 0:
				i := rng.Intn(len(inFlight))
				probe := inFlight[i]
				inFlight = append(inFlight[:i], inFlight[i+1:]...)
				// Failures weigh more while closed, so trips happen.
				o := outcomes[rng.Intn(len(outcomes))]
				if rng.Intn(3) == 0 {
					o = outcomes[1]
				}
				tripped := b.record(o.failure, o.countable, probe, now)
				if rt := ref.record(o.failure, o.countable, probe, now); tripped != rt {
					t.Fatalf("seed %d step %d (%+v): record(failure=%v countable=%v probe=%v) tripped = %v, reference %v",
						seed, step, cfg, o.failure, o.countable, probe, tripped, rt)
				}
			case op < 19:
				now = now.Add(time.Duration(rng.Intn(8)) * time.Millisecond)
			default:
				b.mu.Lock()
				b.toClosed()
				b.mu.Unlock()
				ref.toClosed()
			}
			b.mu.Lock()
			state, fails := b.state, b.fails
			b.mu.Unlock()
			if state != ref.state || fails != ref.fails {
				t.Fatalf("seed %d step %d (%+v): state %v with %d failures, reference %v with %d", seed, step, cfg, state, fails, ref.state, ref.fails)
			}
		}
	}
}

// TestBreakerHealthyPathRace: callers whose successes take the lock-free
// path run beside one that trips the peer's breaker. Every admit that
// starts after the trip was seen must be refused — the breaker's cooldown
// is an hour — and -race checks the healthy path's reads against the
// mutex-guarded writes.
func TestBreakerHealthyPathRace(t *testing.T) {
	for _, threshold := range []int{1, 3} {
		bs := NewBreakers(BreakerConfig{Window: 4, Threshold: threshold, Cooldown: time.Hour})
		peer := transport.Addr("st1")
		var tripped atomic.Bool
		var admittedAfter atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					seen := tripped.Load()
					proceed, probe := bs.Acquire(peer)
					if !proceed {
						continue
					}
					if seen {
						admittedAfter.Add(1)
					}
					bs.Record(peer, probe, nil)
				}
			}()
		}
		for !tripped.Load() {
			proceed, probe := bs.Acquire(peer)
			if !proceed {
				t.Fatalf("threshold %d: refused before the trip was seen", threshold)
			}
			if bs.Record(peer, probe, transport.ErrUnreachable) {
				tripped.Store(true)
			}
		}
		wg.Wait()
		if n := admittedAfter.Load(); n != 0 {
			t.Fatalf("threshold %d: %d calls admitted after the breaker was seen open", threshold, n)
		}
		if st := bs.State(peer); st != StateOpen {
			t.Fatalf("threshold %d: state %v, want open", threshold, st)
		}
	}
}
