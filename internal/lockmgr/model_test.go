package lockmgr

import (
	"context"
	"errors"
	"flag"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

var modelSeed = flag.Int64("model-seed", 0, "seed of TestLockTableAgainstModel's operation sequence (0 = from the clock)")

// lockModel is the lock table as its rules state it, with nothing of the
// Manager's layout: per key, per owner, a count per mode. It never queues:
// the test issues a blocking Acquire only where the model grants at once.
type lockModel map[string]map[Owner]*[Write + 1]int

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
	if lm[key] == nil {
		lm[key] = map[Owner]*[Write + 1]int{}
	}
	if lm[key][owner] == nil {
		lm[key][owner] = &[Write + 1]int{}
	}
	return lm[key][owner]
}

// grantable is Moss's rule: every holder the mode conflicts with is the
// requester or one of its ancestors.
func (lm lockModel) grantable(key string, owner Owner, mode Mode) bool {
	for other, c := range lm[key] {
		if om := strongestOf(c); other != owner && om != 0 && !Compatible(mode, om) && !modelAncestor(other, owner) {
			return false
		}
	}
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
	for o, c := range lm[key] {
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
// seeded random sequence of every non-blocking operation and compares them
// step by step: what was granted and refused, who holds what, and that
// nothing ever queued.
func TestLockTableAgainstModel(t *testing.T) {
	seed := *modelSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("replay with: go test ./internal/lockmgr -run TestLockTableAgainstModel -model-seed=%d", seed)
	rng := rand.New(rand.NewSource(seed))
	m := New(AncestryFunc(modelAncestor))
	model := lockModel{}
	owners := []Owner{"a", "b", "c", "a/1"}
	keys := []string{"k1", "k2"}
	modes := []Mode{Read, Adjust, ExcludeWrite, Write}
	ctx := context.Background()

	const steps = 20000
	for step := 0; step < steps; step++ {
		owner, key := owners[rng.Intn(len(owners))], keys[rng.Intn(len(keys))]
		mode, to := modes[rng.Intn(len(modes))], modes[rng.Intn(len(modes))]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d (%s %s %s): "+format, append([]any{seed, step, owner, key, mode}, args...)...)
		}
		switch op := rng.Intn(7); op {
		case 0, 1: // acquire: blocking where it cannot block, else Try
			want := model.grantable(key, owner, mode)
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
			}
		case 3, 4:
			c := model.counts(key, owner)
			want := c[mode] > 0
			if err := m.Release(owner, key, mode); want != (err == nil) {
				fail("release: model held=%v, manager err=%v", want, err)
			}
			if want {
				c[mode]--
			}
		case 5:
			for _, k := range keys {
				delete(model[k], owner)
			}
			m.ReleaseAll(owner)
		case 6:
			c := model.counts(key, owner)
			want := strongestOf(c) >= mode
			if mode == ExcludeWrite {
				want = c[ExcludeWrite] > 0 || c[Write] > 0
			}
			if got := m.Holds(owner, key, mode); got != want {
				fail("holds: model %v, manager %v", want, got)
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
			if d := m.QueueDepth(k); d != 0 {
				fail("queue depth of %s = %d, but nothing may have queued", k, d)
			}
		}
	}
}
