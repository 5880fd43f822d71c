package store

import "repro/internal/rpc"

// Binary codecs (rpc.Wire) for the object-store wire records: the 2PC
// prepare/commit/abort legs every dirty commit fans out, plus the read
// path activation rides and the recovery-time ResolveDecided report. Tags
// live in the 0x40–0x4f block of the registry in internal/rpc/doc.go. The
// read reply is at version 2 (Pinned) and the prepare request at version 2
// (OnePhase: commit in the same round); everything else is at version 1.
// Only a record's current version decodes. (0x40 was the store's own empty
// Ack, which rpc.Empty replaced; 0x44 and 0x45 were the remote SeqOf request
// and reply, which nothing called. They stay retired.)
const (
	wireTagReadReq byte = 0x41 + iota
	wireTagReadResp
	wireTagPutReq
	_ // 0x44 and 0x45: the SeqOf request and reply, retired
	_
	wireTagPrepareReq
	wireTagTxReq
	wireTagResolveResp
)

// ReadReq

// WireTag implements rpc.Wire.
func (ReadReq) WireTag() (byte, byte) { return wireTagReadReq, 1 }

// WireSizeHint implements rpc.Wire.
func (q ReadReq) WireSizeHint() int { return len(q.UID) + 2 }

// AppendWire implements rpc.Wire.
func (q ReadReq) AppendWire(dst []byte) []byte { return rpc.AppendString(dst, q.UID) }

// ParseWire implements rpc.Wire.
func (ReadReq) ParseWire(_ byte, r *rpc.WireReader) (ReadReq, error) {
	return ReadReq{UID: r.String()}, nil
}

// ReadResp

// WireTag implements rpc.Wire.
func (ReadResp) WireTag() (byte, byte) { return wireTagReadResp, 2 }

// WireSizeHint implements rpc.Wire.
func (p ReadResp) WireSizeHint() int { return len(p.Data) + len(p.TxID) + 24 }

// AppendWire implements rpc.Wire.
func (p ReadResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendBytes(dst, p.Data)
	dst = rpc.AppendUvarint(dst, p.Seq)
	dst = rpc.AppendString(dst, p.TxID)
	return rpc.AppendBool(dst, p.Pinned)
}

// ParseWire implements rpc.Wire.
func (ReadResp) ParseWire(_ byte, r *rpc.WireReader) (ReadResp, error) {
	return ReadResp{Data: r.Bytes(), Seq: r.Uvarint(), TxID: r.String(), Pinned: r.Bool()}, nil
}

// PutReq

// WireTag implements rpc.Wire.
func (PutReq) WireTag() (byte, byte) { return wireTagPutReq, 1 }

// WireSizeHint implements rpc.Wire.
func (q PutReq) WireSizeHint() int { return len(q.UID) + len(q.Data) + 24 }

// AppendWire implements rpc.Wire.
func (q PutReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.UID)
	dst = rpc.AppendBytes(dst, q.Data)
	return rpc.AppendUvarint(dst, q.Seq)
}

// ParseWire implements rpc.Wire.
func (PutReq) ParseWire(_ byte, r *rpc.WireReader) (PutReq, error) {
	return PutReq{UID: r.String(), Data: r.Bytes(), Seq: r.Uvarint()}, nil
}

// PrepareReq

// WireTag implements rpc.Wire.
func (PrepareReq) WireTag() (byte, byte) { return wireTagPrepareReq, 2 }

// WireSizeHint implements rpc.Wire.
func (q PrepareReq) WireSizeHint() int {
	n := len(q.Tx) + 16
	for _, w := range q.Writes {
		n += len(w.UID) + len(w.Data) + 24
	}
	return n
}

// AppendWire implements rpc.Wire.
func (q PrepareReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.Tx)
	dst = rpc.AppendBool(dst, q.OnePhase)
	dst = rpc.AppendUvarint(dst, uint64(len(q.Writes)))
	for _, w := range q.Writes {
		dst = rpc.AppendString(dst, w.UID)
		dst = rpc.AppendBytes(dst, w.Data)
		dst = rpc.AppendUvarint(dst, w.Seq)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (PrepareReq) ParseWire(_ byte, r *rpc.WireReader) (PrepareReq, error) {
	q := PrepareReq{Tx: r.String(), OnePhase: r.Bool()}
	if n := r.Count(3); n > 0 { // a write is a UID, its data and a seq
		q.Writes = make([]WriteRec, n)
		for i := range q.Writes {
			q.Writes[i] = WriteRec{UID: r.String(), Data: r.Bytes(), Seq: r.Uvarint()}
		}
	}
	return q, nil
}

// TxReq

// WireTag implements rpc.Wire.
func (TxReq) WireTag() (byte, byte) { return wireTagTxReq, 1 }

// WireSizeHint implements rpc.Wire.
func (q TxReq) WireSizeHint() int { return len(q.Tx) + 2 }

// AppendWire implements rpc.Wire.
func (q TxReq) AppendWire(dst []byte) []byte { return rpc.AppendString(dst, q.Tx) }

// ParseWire implements rpc.Wire.
func (TxReq) ParseWire(_ byte, r *rpc.WireReader) (TxReq, error) {
	return TxReq{Tx: r.String()}, nil
}

// ResolveResp

// WireTag implements rpc.Wire.
func (ResolveResp) WireTag() (byte, byte) { return wireTagResolveResp, 1 }

// WireSizeHint implements rpc.Wire.
func (p ResolveResp) WireSizeHint() int {
	n := 4
	for _, tx := range p.Applied {
		n += len(tx) + 2
	}
	for _, tx := range p.Aborted {
		n += len(tx) + 2
	}
	return n
}

// AppendWire implements rpc.Wire.
func (p ResolveResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendStrings(dst, p.Applied)
	return rpc.AppendStrings(dst, p.Aborted)
}

// ParseWire implements rpc.Wire.
func (ResolveResp) ParseWire(_ byte, r *rpc.WireReader) (ResolveResp, error) {
	return ResolveResp{Applied: r.Strings(), Aborted: r.Strings()}, nil
}
