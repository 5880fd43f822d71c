package store

import (
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// FuzzStoreWireDecode hardens the store records decoded from the network —
// the prepare request every write-back sends, one-phase or not, and the
// read reply activation loads from: decoding arbitrary bytes as either must
// never panic, over-read or over-allocate, and whatever decodes cleanly
// must survive a decode -> re-encode -> decode round trip unchanged. Torn,
// older-version and mutated frames are also checked in under
// testdata/fuzz/FuzzStoreWireDecode.
func FuzzStoreWireDecode(f *testing.F) {
	for _, w := range []rpc.Wire{
		&PrepareReq{Tx: "tx-1", Writes: []WriteRec{{UID: "o1", Data: []byte{1, 2}, Seq: 2}}, OnePhase: true},
		&PrepareReq{Tx: "tx-2", Writes: []WriteRec{{UID: "o1", Seq: 3}, {UID: "o2", Data: []byte{3}, Seq: 4}}},
		&ReadResp{Data: []byte{4}, Seq: 5, TxID: "tx-3", Pinned: true},
	} {
		raw, err := rpc.Encode(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{rpc.WireMagic, wireTagPrepareReq, 2, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, mk := range []func() rpc.Wire{
			func() rpc.Wire { return &PrepareReq{} },
			func() rpc.Wire { return &ReadResp{} },
		} {
			v := mk()
			if rpc.Decode(raw, v) != nil {
				continue
			}
			re, err := rpc.Encode(v)
			if err != nil {
				t.Fatalf("%T: re-encode of an accepted frame: %v", v, err)
			}
			v2 := mk()
			if err := rpc.Decode(re, v2); err != nil {
				t.Fatalf("%T: re-encoded frame undecodable: %v", v, err)
			}
			if !reflect.DeepEqual(v, v2) {
				t.Fatalf("%T: round trip changed content:\n 1: %+v\n 2: %+v", v, v, v2)
			}
		}
	})
}
