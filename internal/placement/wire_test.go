package placement

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// wireCases holds representative populated values of every binary codec in
// this package, each beside an empty value to decode into.
func wireCases() []struct{ in, out rpc.Wire } {
	recs := []SyncRec{{UID: "t:1:5", Shard: 2, Epoch: 3}, {UID: "t:1:6", Shard: 1, Epoch: 1}}
	return []struct{ in, out rpc.Wire }{
		{&LookupReq{UID: "t:1:5"}, &LookupReq{}},
		{&LookupResp{Shard: 2, Epoch: 7}, &LookupResp{}},
		{&AssignBatchReq{UIDs: []string{"t:1:5", "t:1:6"}, Shard: 3}, &AssignBatchReq{}},
		{&AssignBatchResp{Epochs: []uint64{1, 1 << 40}}, &AssignBatchResp{}},
		{&SyncReq{Records: recs}, &SyncReq{}},
		{&StateResp{Records: recs}, &StateResp{}},
		{&StateResp{}, &StateResp{}},
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

// TestWireListCountBounded: a list count the remaining bytes cannot hold is
// refused before anything is allocated for it.
func TestWireListCountBounded(t *testing.T) {
	huge := rpc.AppendUvarint(nil, 1<<60)
	for _, out := range []rpc.Wire{&AssignBatchReq{}, &AssignBatchResp{}, &SyncReq{}, &StateResp{}} {
		tag, ver := out.WireTag()
		if err := rpc.Decode(append([]byte{rpc.WireMagic, tag, ver}, huge...), out); !errors.Is(err, rpc.ErrWire) {
			t.Errorf("%T: a count of 2^60 decoded to %v, want ErrWire", out, err)
		}
	}
}

// TestWireTagsUnique catches accidental tag reuse inside this package's block.
func TestWireTagsUnique(t *testing.T) {
	seen := map[byte]string{}
	for _, c := range wireCases() {
		tag, ver := c.in.WireTag()
		if ver == 0 {
			t.Errorf("%T: version 0 is reserved", c.in)
		}
		name := reflect.TypeOf(c.in).String()
		if prev, dup := seen[tag]; dup && prev != name {
			t.Errorf("tag %#x reused by %s and %s", tag, name, prev)
		}
		seen[tag] = name
	}
}
