package lockmgr

import (
	"context"
	"errors"
	"flag"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

var modelSeed = flag.Int64("model-seed", 0, "seed of TestLockTableAgainstModel's operation sequence (0 = from the clock)")

// lockModel is the lock table as its rules state it, with nothing of the
// Manager's layout: per key, per owner, a count per mode, and per key the
// FIFO of queued requests. The test issues a blocking Acquire only where the
// model grants at once; what queues is a Request's.
type lockModel struct {
	held   map[string]map[Owner]*[Write + 1]int
	queues map[string][]*modelWait
}

// modelWait is one queued Request: the Manager's Wait beside what the model
// says became of it.
type modelWait struct {
	w     *Wait
	owner Owner
	key   string
	mode  Mode
	state waitState
}

type waitState int

const (
	queued waitState = iota
	granted
	failed
)

func modelAncestor(a, d Owner) bool { return strings.HasPrefix(string(d), string(a)+"/") }

func strongestOf(c *[Write + 1]int) Mode {
	for m := Write; m >= Read; m-- {
		if c[m] > 0 {
			return m
		}
	}
	return 0
}

func (lm lockModel) counts(key string, owner Owner) *[Write + 1]int {
	if lm.held[key] == nil {
		lm.held[key] = map[Owner]*[Write + 1]int{}
	}
	if lm.held[key][owner] == nil {
		lm.held[key][owner] = &[Write + 1]int{}
	}
	return lm.held[key][owner]
}

// grantable is Moss's rule: every holder the mode conflicts with is the
// requester or one of its ancestors.
func (lm lockModel) grantable(key string, owner Owner, mode Mode) bool {
	for other, c := range lm.held[key] {
		if om := strongestOf(c); other != owner && om != 0 && !Compatible(mode, om) && !modelAncestor(other, owner) {
			return false
		}
	}
	return true
}

// mayOvertake is the FIFO rule: a request passes queued ones only when its
// owner, or an ancestor of it, holds the entry.
func (lm lockModel) mayOvertake(key string, owner Owner) bool {
	if len(lm.queues[key]) == 0 {
		return true
	}
	for other, c := range lm.held[key] {
		if strongestOf(c) != 0 && (other == owner || modelAncestor(other, owner)) {
			return true
		}
	}
	return false
}

// grantQueued grants key's queue from its head while the head is grantable.
func (lm lockModel) grantQueued(key string) {
	for q := lm.queues[key]; len(q) > 0 && lm.grantable(key, q[0].owner, q[0].mode); q = lm.queues[key] {
		lm.counts(key, q[0].owner)[q[0].mode]++
		q[0].state = granted
		lm.queues[key] = q[1:]
	}
}

// release drops one unit of mode from owner on key, and reports whether
// there was one; the queue moves on if there was.
func (lm lockModel) release(key string, owner Owner, mode Mode) bool {
	c := lm.counts(key, owner)
	if c[mode] == 0 {
		return false
	}
	c[mode]--
	lm.grantQueued(key)
	return true
}

func (lm lockModel) holders(key string) []struct {
	Owner Owner
	Mode  Mode
} {
	var out []struct {
		Owner Owner
		Mode  Mode
	}
	for o, c := range lm.held[key] {
		if m := strongestOf(c); m != 0 {
			out = append(out, struct {
				Owner Owner
				Mode  Mode
			}{o, m})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// TestLockTableAgainstModel drives the Manager and the model with one
// seeded random sequence of every operation but a blocking wait, and
// compares them step by step: what was granted, refused and queued, who
// holds what, how long each queue is, and what became of each queued
// request.
func TestLockTableAgainstModel(t *testing.T) {
	seed := *modelSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("replay with: go test ./internal/lockmgr -run TestLockTableAgainstModel -model-seed=%d", seed)
	rng := rand.New(rand.NewSource(seed))
	m := New(AncestryFunc(modelAncestor))
	model := lockModel{held: map[string]map[Owner]*[Write + 1]int{}, queues: map[string][]*modelWait{}}
	var waits []*modelWait // queued requests not yet abandoned
	owners := []Owner{"a", "b", "c", "a/1"}
	keys := []string{"k1", "k2"}
	modes := []Mode{Read, Adjust, ExcludeWrite, Write}
	ctx := context.Background()
	gone := errors.New("gone")

	const steps = 20000
	for step := 0; step < steps; step++ {
		owner, key := owners[rng.Intn(len(owners))], keys[rng.Intn(len(keys))]
		mode, to := modes[rng.Intn(len(modes))], modes[rng.Intn(len(modes))]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d (%s %s %s): "+format, append([]any{seed, step, owner, key, mode}, args...)...)
		}
		switch op := rng.Intn(10); op {
		case 0, 1: // acquire: blocking where it cannot block, else Try
			want := model.grantable(key, owner, mode) && model.mayOvertake(key, owner)
			var err error
			if want && op == 0 {
				err = m.Acquire(ctx, owner, key, mode)
			} else {
				err = m.TryAcquire(owner, key, mode)
			}
			if want != (err == nil) || (err != nil && !errors.Is(err, ErrRefused)) {
				fail("acquire: model grants=%v, manager err=%v", want, err)
			}
			if want {
				model.counts(key, owner)[mode]++
			}
		case 2:
			c := model.counts(key, owner)
			want := c[mode] > 0 && model.grantable(key, owner, to)
			err := m.TryPromote(owner, key, mode, to)
			if want != (err == nil) || (err != nil && !errors.Is(err, ErrRefused)) {
				fail("promote to %s: model grants=%v, manager err=%v", to, want, err)
			}
			if want {
				c[mode]--
				c[to]++
				model.grantQueued(key)
			}
		case 3:
			want := model.counts(key, owner)[mode] > 0
			if err := m.Release(owner, key, mode); want != (err == nil) {
				fail("release: model held=%v, manager err=%v", want, err)
			}
			if want {
				model.release(key, owner, mode)
			}
		case 4:
			for _, k := range keys {
				delete(model.held[k], owner)
				model.queues[k] = slices.DeleteFunc(model.queues[k], func(w *modelWait) bool {
					if w.owner == owner {
						w.state = failed
						return true
					}
					return false
				})
				model.grantQueued(k)
			}
			m.ReleaseAll(owner)
		case 5:
			c := model.counts(key, owner)
			want := strongestOf(c) >= mode
			if mode == ExcludeWrite {
				want = c[ExcludeWrite] > 0 || c[Write] > 0
			}
			if got := m.Holds(owner, key, mode); got != want {
				fail("holds: model %v, manager %v", want, got)
			}
		case 6: // request: grant at once or queue
			w := m.Request(owner, key, mode)
			if want := model.grantable(key, owner, mode) && model.mayOvertake(key, owner); want != (w == nil) {
				fail("request: model grants at once=%v, manager queued=%v", want, w != nil)
			} else if want {
				model.counts(key, owner)[mode]++
			} else {
				mw := &modelWait{w: w, owner: owner, key: key, mode: mode}
				model.queues[key] = append(model.queues[key], mw)
				waits = append(waits, mw)
			}
		case 7: // abandon a queued request, whatever became of it
			if len(waits) == 0 {
				continue
			}
			i := rng.Intn(len(waits))
			mw := waits[i]
			waits = slices.Delete(waits, i, i+1)
			if err := m.Abandon(mw.w, gone); !errors.Is(err, gone) {
				fail("abandon: %v, want the cause wrapped", err)
			}
			switch mw.state {
			case queued:
				model.queues[mw.key] = slices.DeleteFunc(model.queues[mw.key], func(w *modelWait) bool { return w == mw })
				model.grantQueued(mw.key)
			case granted:
				model.release(mw.key, mw.owner, mw.mode)
			}
		case 8, 9: // check, and sometimes record what the check allows
			overtake := rng.Intn(2) == 0
			want := model.grantable(key, owner, mode) && (overtake || model.mayOvertake(key, owner))
			if got := m.Grantable(owner, key, mode, overtake); got != want {
				fail("grantable (overtake %v): model %v, manager %v", overtake, want, got)
			}
			if want && op == 9 {
				m.Grant(owner, key, mode)
				model.counts(key, owner)[mode]++
			}
		}
		for _, k := range keys {
			got, want := m.HolderModes(k), model.holders(k)
			if len(got) != len(want) {
				fail("holders of %s: manager %v, model %v", k, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					fail("holders of %s: manager %v, model %v", k, got, want)
				}
			}
			if got, want := m.QueueDepth(k), len(model.queues[k]); got != want {
				fail("queue depth of %s = %d, model %d", k, got, want)
			}
		}
		for _, mw := range waits {
			var over bool
			select {
			case <-mw.w.Ready():
				over = true
			default:
			}
			if over != (mw.state != queued) || (over && (mw.w.Err() == nil) != (mw.state == granted)) {
				fail("wait of %s for %s on %s: manager over=%v err=%v, model state %d", mw.owner, mw.mode, mw.key, over, mw.w.Err(), mw.state)
			}
		}
	}
}
