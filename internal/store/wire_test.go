package store

import (
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// wireCases holds one representative populated value of every binary codec
// in this package, beside an empty value to decode into.
func wireCases() []struct{ in, out rpc.Wire } {
	return []struct{ in, out rpc.Wire }{
		{&ReadReq{UID: "obj"}, &ReadReq{}},
		{&ReadResp{Data: []byte{1, 2}, Seq: 9, TxID: "tx-1", Pinned: true}, &ReadResp{}},
		{&PutReq{UID: "obj", Data: []byte{3}, Seq: 10}, &PutReq{}},
		{&PrepareReq{
			Tx:       "tx-2",
			Writes:   []WriteRec{{UID: "o1", Data: []byte{4, 5}, Seq: 12}, {UID: "o2", Seq: 13}},
			OnePhase: true,
		}, &PrepareReq{}},
		{&TxReq{Tx: "tx-3"}, &TxReq{}},
		{&ResolveResp{Applied: []string{"tx-4"}, Aborted: []string{"tx-5", "tx-6"}}, &ResolveResp{}},
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

// TestWireTagsUnique catches accidental tag reuse inside this package's
// block, and the reuse of a retired tag.
func TestWireTagsUnique(t *testing.T) {
	retired := map[byte]bool{0x40: true, 0x44: true, 0x45: true}
	seen := map[byte]string{}
	for _, c := range wireCases() {
		w := c.in
		tag, ver := w.WireTag()
		if ver == 0 {
			t.Errorf("%T: version 0 is reserved", w)
		}
		if prev, dup := seen[tag]; dup {
			t.Errorf("tag %#x reused by %T and %s", tag, w, prev)
		}
		if retired[tag] {
			t.Errorf("%T uses retired tag %#x", w, tag)
		}
		seen[tag] = reflect.TypeOf(w).String()
	}
	// Retired tags keep their slots: the records after them do not move.
	if tag, _ := (&PrepareReq{}).WireTag(); tag != 0x46 {
		t.Errorf("PrepareReq moved from tag 0x46 to %#x", tag)
	}
}
