package action

import (
	"errors"
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
	"repro/internal/store"
)

// wireCases holds representative populated values of every binary codec in
// this package.
func wireCases() []wiretest.Record {
	return []wiretest.Record{
		wiretest.Of(LookupReq{Tx: "c1:1:42"}),
		wiretest.Of(LookupResp{Outcome: store.OutcomeCommitted}),
		wiretest.Of(LookupResp{Outcome: store.OutcomeUnavailable}),
	}
}

// TestWireRoundTrip round-trips every binary codec in this package through
// rpc.Encode/Decode.
func TestWireRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wireCases()...) }

// TestWireTruncatedInput: every proper prefix of a record's encoding is
// refused — a torn record never decodes into a half-filled value.
func TestWireTruncatedInput(t *testing.T) { wiretest.Truncated(t, wireCases()...) }

// TestWireUnknownOutcomeRefused: an outcome no version defines never
// reaches a recovering store as a decision.
func TestWireUnknownOutcomeRefused(t *testing.T) {
	data := []byte{rpc.WireMagic, wireTagLookupResp, 1, byte(store.OutcomeUnavailable) + 1}
	if err := rpc.Decode(data, &LookupResp{}); !errors.Is(err, rpc.ErrWire) {
		t.Fatalf("outcome %d decoded to %v, want ErrWire", data[3], err)
	}
}
