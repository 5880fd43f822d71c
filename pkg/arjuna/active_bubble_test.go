//go:build goexperiment.synctest

package arjuna_test

import (
	"testing"

	"repro/internal/bubble"
)

// The Active tests again, each inside a synctest bubble: the System is
// opened and closed in the bubble, so every timeout of the run is on the
// bubble's clock. An operation that wedges waits out its 2 s context at
// once in virtual time and fails activeSlowest, instead of costing the run
// two seconds of wall clock. One wedged where the bubble's clock cannot
// move is ended by bubble.Run's watchdog.
//
//	GOEXPERIMENT=synctest go test -run InBubble ./pkg/arjuna

func TestActiveTwoWritersNeverWedgeInBubble(t *testing.T) {
	var err error
	bubble.Run(func() { err = activeTwoWriters() })
	if err != nil {
		t.Fatal(err)
	}
}

func TestActiveReadOnlyReaderBesideWriterInBubble(t *testing.T) {
	for _, reader := range []string{"c2", "c3"} {
		t.Run(reader, func(t *testing.T) {
			var err error
			bubble.Run(func() { err = activeReaderBesideWriter(reader) })
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
