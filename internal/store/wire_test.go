package store

import (
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// TestWireRoundTrip round-trips every binary codec in this package through
// rpc.Encode/Decode with representative populated values.
func TestWireRoundTrip(t *testing.T) {
	cases := []struct{ in, out any }{
		{&Ack{}, &Ack{}},
		{&ReadReq{UID: "obj"}, &ReadReq{}},
		{&ReadResp{Data: []byte{1, 2}, Seq: 9, TxID: "tx-1", Pinned: true}, &ReadResp{}},
		{&PutReq{UID: "obj", Data: []byte{3}, Seq: 10}, &PutReq{}},
		{&SeqOfReq{UID: "obj"}, &SeqOfReq{}},
		{&SeqOfResp{Seq: 11, OK: true}, &SeqOfResp{}},
		{&PrepareReq{
			Tx:     "tx-2",
			Writes: []WriteRec{{UID: "o1", Data: []byte{4, 5}, Seq: 12}, {UID: "o2", Seq: 13}},
		}, &PrepareReq{}},
		{&TxReq{Tx: "tx-3"}, &TxReq{}},
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
		&Ack{}, &ReadReq{}, &ReadResp{}, &PutReq{}, &SeqOfReq{}, &SeqOfResp{},
		&PrepareReq{}, &TxReq{},
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
