package store

import (
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
)

// FuzzStoreWireDecode hardens the store records decoded from the network —
// the prepare request every write-back sends, one-phase or not, and the
// read reply activation loads from: decoding arbitrary bytes as either must
// never panic, over-read or over-allocate, and whatever decodes cleanly
// must survive a decode -> re-encode -> decode round trip unchanged. Torn,
// older-version and mutated frames are also checked in under
// testdata/fuzz/FuzzStoreWireDecode.
func FuzzStoreWireDecode(f *testing.F) {
	for _, rec := range []wiretest.Record{
		wiretest.Of(PrepareReq{Tx: "tx-1", Writes: []WriteRec{{UID: "o1", Data: []byte{1, 2}, Seq: 2}}, OnePhase: true}),
		wiretest.Of(PrepareReq{Tx: "tx-2", Writes: []WriteRec{{UID: "o1", Seq: 3}, {UID: "o2", Data: []byte{3}, Seq: 4}}}),
		wiretest.Of(ReadResp{Data: []byte{4}, Seq: 5, TxID: "tx-3", Pinned: true}),
	} {
		raw := rec.Encode()
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{rpc.WireMagic, wireTagPrepareReq, 2, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		wiretest.Reencode(t, raw, wiretest.Of(PrepareReq{}), wiretest.Of(ReadResp{}))
	})
}
