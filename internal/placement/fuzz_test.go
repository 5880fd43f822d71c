package placement

import (
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// FuzzPlacementWireDecode hardens the placement records that carry lists —
// a batch assignment's objects, its reply's epochs, the override records a
// sync pushes and a catch-up pulls: decoding arbitrary bytes as any of
// them must never panic, over-read or over-allocate, and whatever decodes
// cleanly must survive a decode -> re-encode -> decode round trip
// unchanged. Torn and mutated frames are also checked in under
// testdata/fuzz/FuzzPlacementWireDecode.
func FuzzPlacementWireDecode(f *testing.F) {
	recs := []SyncRec{{UID: "t:1:5", Shard: 2, Epoch: 3}}
	for _, w := range []rpc.Wire{
		&AssignBatchReq{UIDs: []string{"t:1:5", "t:1:6"}, Shard: 2},
		&AssignBatchResp{Epochs: []uint64{1, 2}},
		&SyncReq{Records: recs},
		&StateResp{Records: recs},
	} {
		raw, err := rpc.Encode(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{rpc.WireMagic, wireTagSyncReq, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, mk := range []func() rpc.Wire{
			func() rpc.Wire { return &AssignBatchReq{} },
			func() rpc.Wire { return &AssignBatchResp{} },
			func() rpc.Wire { return &SyncReq{} },
			func() rpc.Wire { return &StateResp{} },
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
