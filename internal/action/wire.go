package action

import (
	"repro/internal/rpc"
	"repro/internal/store"
)

// Binary codecs (rpc.Wire) for the outcome-log lookup a recovering store
// sends its transactions' coordinators. Tags live in the 0x90–0x9f block
// of the registry in internal/rpc/doc.go; both records are at version 1.
const (
	wireTagLookupReq  byte = 0x90
	wireTagLookupResp byte = 0x91
)

// WireTag implements rpc.Wire.
func (LookupReq) WireTag() (byte, byte) { return wireTagLookupReq, 1 }

// WireSizeHint implements rpc.Wire.
func (q LookupReq) WireSizeHint() int { return len(q.Tx) + 2 }

// AppendWire implements rpc.Wire.
func (q LookupReq) AppendWire(dst []byte) []byte { return rpc.AppendString(dst, q.Tx) }

// ParseWire implements rpc.Wire.
func (LookupReq) ParseWire(_ byte, r *rpc.WireReader) (LookupReq, error) {
	return LookupReq{Tx: r.String()}, nil
}

// WireTag implements rpc.Wire.
func (LookupResp) WireTag() (byte, byte) { return wireTagLookupResp, 1 }

// WireSizeHint implements rpc.Wire.
func (LookupResp) WireSizeHint() int { return 1 }

// AppendWire implements rpc.Wire.
func (p LookupResp) AppendWire(dst []byte) []byte {
	return rpc.AppendUvarint(dst, uint64(p.Outcome))
}

// ParseWire implements rpc.Wire. An outcome no version defines is refused:
// a recovering store must not settle an intention on a value it cannot
// read.
func (LookupResp) ParseWire(_ byte, r *rpc.WireReader) (LookupResp, error) {
	v := r.Uvarint()
	if v > uint64(store.OutcomeUnavailable) {
		return LookupResp{}, rpc.ErrWire
	}
	return LookupResp{Outcome: store.Outcome(v)}, nil
}
