//go:build !race

package lockmgr

import (
	"context"
	"testing"
)

// The race runtime allocates on its own account, so the pin is built
// without it.
func TestUncontendedAcquireReleaseAllocsNothing(t *testing.T) {
	m := New(NoNesting)
	ctx := context.Background()
	cycle := func() {
		for _, key := range []string{"sv/obj", "st/obj"} {
			if err := m.Acquire(ctx, "c1:7", key, Read); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Acquire(ctx, "c1:7", "sv/obj", Adjust); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll("c1:7")
	}
	cycle() // the first cycle sizes the maps and fills the free lists
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Fatalf("uncontended Acquire×3 + ReleaseAll allocated %.0f objects, want 0", got)
	}
	pair := func() {
		if err := m.Acquire(ctx, "solo", "key", Write); err != nil {
			t.Fatal(err)
		}
		if err := m.Release("solo", "key", Write); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	if got := testing.AllocsPerRun(200, pair); got != 0 {
		t.Fatalf("uncontended Acquire + Release allocated %.0f objects, want 0", got)
	}
}

// tableSink makes the table built under AllocsPerRun escape, as every real
// one does.
var tableSink *Manager

// Every object activation and every database restart builds a table.
func TestNewAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { tableSink = New(NoNesting) }); got > 3 {
		t.Fatalf("New allocated %.0f objects, want at most 3", got)
	}
}
