package lease

import "repro/internal/rpc"

// KindInval is the message kind carrying a lease invalidation record to a
// holder's Mailbox.
const KindInval = "lease-inval"

// wireTagInval lives in the 0x60–0x6f lease block of the tag registry
// in internal/rpc/doc.go.
const wireTagInval byte = 0x60

// Inval is the invalidation record a committing server sends to the
// Mailbox of each node it granted a lease at version Seq of the object:
// every lease at version Seq (or older) of the object is dead.
type Inval struct {
	UID string
	Seq uint64
}

// WireTag implements rpc.Wire.
func (Inval) WireTag() (byte, byte) { return wireTagInval, 1 }

// WireSizeHint implements rpc.Wire.
func (v Inval) WireSizeHint() int { return len(v.UID) + 12 }

// AppendWire implements rpc.Wire.
func (v Inval) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, v.UID)
	return rpc.AppendUvarint(dst, v.Seq)
}

// ParseWire implements rpc.Wire.
func (Inval) ParseWire(_ byte, r *rpc.WireReader) (Inval, error) {
	return Inval{UID: r.String(), Seq: r.Uvarint()}, nil
}

// EncodeInval renders the record for a Mailbox payload.
func EncodeInval(v *Inval) ([]byte, error) { return rpc.Encode(v) }

func decodeInval(payload []byte, v *Inval) error { return rpc.Decode(payload, v) }
