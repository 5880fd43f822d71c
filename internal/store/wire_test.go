package store

import (
	"testing"

	"repro/internal/rpc/wiretest"
)

// wireCases holds one representative populated value of every binary codec
// in this package.
func wireCases() []wiretest.Record {
	return []wiretest.Record{
		wiretest.Of(ReadReq{UID: "obj"}),
		wiretest.Of(ReadResp{Data: []byte{1, 2}, Seq: 9, TxID: "tx-1", Pinned: true}),
		wiretest.Of(PutReq{UID: "obj", Data: []byte{3}, Seq: 10}),
		wiretest.Of(PrepareReq{
			Tx:       "tx-2",
			Writes:   []WriteRec{{UID: "o1", Data: []byte{4, 5}, Seq: 12}, {UID: "o2", Seq: 13}},
			OnePhase: true,
		}),
		wiretest.Of(TxReq{Tx: "tx-3"}),
		wiretest.Of(ResolveResp{Applied: []string{"tx-4"}, Aborted: []string{"tx-5", "tx-6"}}),
	}
}

// TestWireRoundTrip round-trips every binary codec in this package through
// rpc.Encode/Decode.
func TestWireRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wireCases()...) }

// TestWireTruncatedInput: every proper prefix of a record's encoding is
// refused — a torn record never decodes into a half-filled value.
func TestWireTruncatedInput(t *testing.T) { wiretest.Truncated(t, wireCases()...) }

// TestWireTagsUnique catches accidental tag reuse inside this package's
// block, and the reuse of a retired tag.
func TestWireTagsUnique(t *testing.T) {
	wiretest.TagsUnique(t, wireCases()...)
	retired := map[byte]bool{0x40: true, 0x44: true, 0x45: true}
	for _, rec := range wireCases() {
		if retired[rec.Tag] {
			t.Errorf("%s uses retired tag %#x", rec.Name(), rec.Tag)
		}
	}
	// Retired tags keep their slots: the records after them do not move.
	if tag, _ := (PrepareReq{}).WireTag(); tag != 0x46 {
		t.Errorf("PrepareReq moved from tag 0x46 to %#x", tag)
	}
}
