package group

import (
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// TestWireRoundTrip round-trips every binary codec in this package through
// rpc.Encode/Decode with representative populated values.
func TestWireRoundTrip(t *testing.T) {
	cases := []struct{ in, out rpc.Wire }{
		{&sequenceReq{
			Group: "g1", MsgID: "m1", Kind: "invoke",
			Payload: []byte{1, 2}, Members: []string{"n1", "n2"},
		}, &sequenceReq{}},
		{&sequenceResp{
			Seq: 4,
			Replies: []Reply{
				{Member: "n1", Payload: []byte{7}},
				{Member: "n2", Err: "boom"},
			},
			Failed: []string{"n3"},
		}, &sequenceResp{}},
		{&deliverBatchReq{
			Group: "g1",
			Items: []batchItem{
				{MsgID: "m3", Kind: "invoke", Payload: []byte{1}, Seq: 6},
				{MsgID: "m4", Kind: "install", Seq: 7},
			},
			Stable: 5,
		}, &deliverBatchReq{}},
		{&deliverBatchResp{
			Results: []batchResult{{Payload: []byte{2}}, {Err: "nope"}},
		}, &deliverBatchResp{}},
	}
	for _, c := range cases {
		data, err := rpc.Encode(c.in)
		if err != nil {
			t.Fatalf("%T: encode: %v", c.in, err)
		}
		if data[0] != rpc.WireMagic {
			t.Fatalf("%T: not binary-coded (first byte %#x)", c.in, data[0])
		}
		if err := rpc.Decode(data, c.out); err != nil {
			t.Fatalf("%T: decode: %v", c.in, err)
		}
		if !reflect.DeepEqual(c.in, c.out) {
			t.Errorf("%T mismatch:\n in: %+v\nout: %+v", c.in, c.in, c.out)
		}
	}
}

// TestWireTagsUnique catches accidental tag reuse inside this package's block.
func TestWireTagsUnique(t *testing.T) {
	types := []rpc.Wire{
		&sequenceReq{}, &sequenceResp{}, &deliverBatchReq{}, &deliverBatchResp{},
	}
	seen := map[byte]string{}
	for _, w := range types {
		tag, ver := w.WireTag()
		if ver == 0 {
			t.Errorf("%T: version 0 is reserved", w)
		}
		if prev, dup := seen[tag]; dup {
			t.Errorf("tag %#x reused by %T and %s", tag, w, prev)
		}
		seen[tag] = reflect.TypeOf(w).String()
	}
}
