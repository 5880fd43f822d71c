package lease

import "repro/internal/rpc"

// KindInval is the message kind carrying a lease invalidation record to a
// holder's Mailbox.
const KindInval = "lease-inval"

// wireTagInval lives in the 0x60–0x6f lease block of the tag registry
// in internal/rpc/doc.go.
const wireTagInval byte = 0x60

// Inval is the record a committing server sends to the Mailbox of each
// node it granted a lease at version Seq of the object: no lease at version
// Seq (or older) of the object may serve on. NewSeq 0 makes it kill-only.
// Otherwise NewSeq is the version the commit made and State the object's
// state at it, and a live lease at Seq or older moves forward to them
// under its old expiry instead of dying.
type Inval struct {
	UID    string
	Seq    uint64
	NewSeq uint64
	State  []byte
}

// WireTag implements rpc.Wire. Version 2 added NewSeq and State.
func (Inval) WireTag() (byte, byte) { return wireTagInval, 2 }

// WireSizeHint implements rpc.Wire.
func (v Inval) WireSizeHint() int { return len(v.UID) + len(v.State) + 24 }

// AppendWire implements rpc.Wire.
func (v Inval) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, v.UID)
	dst = rpc.AppendUvarint(dst, v.Seq)
	dst = rpc.AppendUvarint(dst, v.NewSeq)
	return rpc.AppendBytes(dst, v.State)
}

// ParseWire implements rpc.Wire.
func (Inval) ParseWire(_ byte, r *rpc.WireReader) (Inval, error) {
	return Inval{UID: r.String(), Seq: r.Uvarint(), NewSeq: r.Uvarint(), State: r.Bytes()}, nil
}

// EncodeInval renders the record for a Mailbox payload.
func EncodeInval(v *Inval) ([]byte, error) { return rpc.Encode(v) }

func decodeInval(payload []byte, v *Inval) error { return rpc.Decode(payload, v) }

// kept is the Mailbox's answer to an updating Inval that moved a live lease
// forward; every other answer is empty.
var kept = []byte{1}

// Kept reports whether a Mailbox answer says the holder kept its lease,
// now at the Inval's NewSeq.
func Kept(answer []byte) bool { return len(answer) == 1 && answer[0] == 1 }
