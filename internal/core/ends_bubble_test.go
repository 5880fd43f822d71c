//go:build goexperiment.synctest

package core

import (
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/bubble"
)

// TestActionEndIdleGoesAloneInBubble is TestActionEndIdleGoesAlone on the
// bubble's clock, where the bound is exact: the end must still wait right
// after the commit, and be gone by the bound plus a half, with nothing sent
// meanwhile but the end itself.
//
//	GOEXPERIMENT=synctest go test -run TestActionEndIdleGoesAloneInBubble ./internal/core
func TestActionEndIdleGoesAloneInBubble(t *testing.T) {
	bubble.Run(func() {
		deadline := time.Now().Add(endBound + endBound/2)
		idleEnd(t, func(d time.Duration) bool {
			time.Sleep(d)
			synctest.Wait()
			return !time.Now().Before(deadline)
		}, nil)
	})
}
