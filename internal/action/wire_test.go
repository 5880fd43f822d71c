package action

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/rpc"
	"repro/internal/store"
)

// wireCases holds representative populated values of every binary codec in
// this package, each beside an empty value to decode into.
func wireCases() []struct{ in, out rpc.Wire } {
	return []struct{ in, out rpc.Wire }{
		{&LookupReq{Tx: "c1:1:42"}, &LookupReq{}},
		{&LookupResp{Outcome: store.OutcomeCommitted}, &LookupResp{}},
		{&LookupResp{Outcome: store.OutcomeUnavailable}, &LookupResp{}},
	}
}

// TestWireRoundTrip round-trips every binary codec in this package through
// rpc.Encode/Decode.
func TestWireRoundTrip(t *testing.T) {
	for _, c := range wireCases() {
		data, err := rpc.Encode(c.in)
		if err != nil {
			t.Fatalf("%T: encode: %v", c.in, err)
		}
		if err := rpc.Decode(data, c.out); err != nil {
			t.Fatalf("%T: decode: %v", c.in, err)
		}
		if !reflect.DeepEqual(c.in, c.out) {
			t.Errorf("%T mismatch:\n in: %+v\nout: %+v", c.in, c.in, c.out)
		}
	}
}

// TestWireTruncatedInput: every proper prefix of a record's encoding is
// refused — a torn record never decodes into a half-filled value.
func TestWireTruncatedInput(t *testing.T) {
	for _, c := range wireCases() {
		data, err := rpc.Encode(c.in)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			out := reflect.New(reflect.TypeOf(c.in).Elem()).Interface().(rpc.Wire)
			if err := rpc.Decode(data[:cut], out); err == nil {
				t.Errorf("%T: %d of %d bytes decoded without error", c.in, cut, len(data))
			}
		}
	}
}

// TestWireUnknownOutcomeRefused: an outcome no version defines never
// reaches a recovering store as a decision.
func TestWireUnknownOutcomeRefused(t *testing.T) {
	data := []byte{rpc.WireMagic, wireTagLookupResp, 1, byte(store.OutcomeUnavailable) + 1}
	if err := rpc.Decode(data, &LookupResp{}); !errors.Is(err, rpc.ErrWire) {
		t.Fatalf("outcome %d decoded to %v, want ErrWire", data[3], err)
	}
}
