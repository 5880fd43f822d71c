package placement

import (
	"math"

	"repro/internal/rpc"
)

// Binary codecs (rpc.Wire) for the placement service's records: the
// lookup a client's Refresh sends, the batch assignment a move ends with,
// and the override records the primary pushes to its replicas and a
// replica pulls to catch up. Tags live in the 0x80–0x8f block of the
// registry in internal/rpc/doc.go; every record is at version 1.
const (
	wireTagLookupReq       byte = 0x80
	wireTagLookupResp      byte = 0x81
	wireTagAssignBatchReq  byte = 0x82
	wireTagAssignBatchResp byte = 0x83
	wireTagSyncReq         byte = 0x84
	wireTagStateResp       byte = 0x85
)

// readCount consumes a list's element count, bounded by the bytes left
// (every element costs at least one), so a corrupt prefix cannot demand a
// huge allocation.
func readCount(r *rpc.WireReader) (int, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining()) {
		return 0, rpc.ErrWire
	}
	return int(n), nil
}

// readShard consumes a shard ID, refusing one no table could hold.
func readShard(r *rpc.WireReader) (int, error) {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		return 0, rpc.ErrWire
	}
	return int(v), nil
}

func appendSyncRecs(dst []byte, recs []SyncRec) []byte {
	dst = rpc.AppendUvarint(dst, uint64(len(recs)))
	for _, rec := range recs {
		dst = rpc.AppendString(dst, rec.UID)
		dst = rpc.AppendUvarint(dst, uint64(rec.Shard))
		dst = rpc.AppendUvarint(dst, rec.Epoch)
	}
	return dst
}

func readSyncRecs(r *rpc.WireReader) ([]SyncRec, error) {
	n, err := readCount(r)
	if err != nil || n == 0 {
		return nil, err
	}
	recs := make([]SyncRec, n)
	for i := range recs {
		recs[i].UID = r.String()
		if recs[i].Shard, err = readShard(r); err != nil {
			return nil, err
		}
		recs[i].Epoch = r.Uvarint()
	}
	return recs, nil
}

// LookupReq

// WireTag implements rpc.Wire.
func (*LookupReq) WireTag() (byte, byte) { return wireTagLookupReq, 1 }

// AppendWire implements rpc.Wire.
func (q *LookupReq) AppendWire(dst []byte) []byte { return rpc.AppendString(dst, q.UID) }

// ParseWire implements rpc.Wire.
func (q *LookupReq) ParseWire(_ byte, r *rpc.WireReader) error {
	q.UID = r.String()
	return nil
}

// LookupResp

// WireTag implements rpc.Wire.
func (*LookupResp) WireTag() (byte, byte) { return wireTagLookupResp, 1 }

// AppendWire implements rpc.Wire.
func (p *LookupResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendUvarint(dst, uint64(p.Shard))
	return rpc.AppendUvarint(dst, p.Epoch)
}

// ParseWire implements rpc.Wire.
func (p *LookupResp) ParseWire(_ byte, r *rpc.WireReader) (err error) {
	if p.Shard, err = readShard(r); err != nil {
		return err
	}
	p.Epoch = r.Uvarint()
	return nil
}

// AssignBatchReq

// WireTag implements rpc.Wire.
func (*AssignBatchReq) WireTag() (byte, byte) { return wireTagAssignBatchReq, 1 }

// AppendWire implements rpc.Wire.
func (q *AssignBatchReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendStrings(dst, q.UIDs)
	return rpc.AppendUvarint(dst, uint64(q.Shard))
}

// ParseWire implements rpc.Wire.
func (q *AssignBatchReq) ParseWire(_ byte, r *rpc.WireReader) (err error) {
	q.UIDs = r.Strings()
	q.Shard, err = readShard(r)
	return err
}

// AssignBatchResp

// WireTag implements rpc.Wire.
func (*AssignBatchResp) WireTag() (byte, byte) { return wireTagAssignBatchResp, 1 }

// AppendWire implements rpc.Wire.
func (p *AssignBatchResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendUvarint(dst, uint64(len(p.Epochs)))
	for _, e := range p.Epochs {
		dst = rpc.AppendUvarint(dst, e)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (p *AssignBatchResp) ParseWire(_ byte, r *rpc.WireReader) error {
	n, err := readCount(r)
	if err != nil || n == 0 {
		return err
	}
	p.Epochs = make([]uint64, n)
	for i := range p.Epochs {
		p.Epochs[i] = r.Uvarint()
	}
	return nil
}

// SyncReq

// WireTag implements rpc.Wire.
func (*SyncReq) WireTag() (byte, byte) { return wireTagSyncReq, 1 }

// AppendWire implements rpc.Wire.
func (q *SyncReq) AppendWire(dst []byte) []byte { return appendSyncRecs(dst, q.Records) }

// ParseWire implements rpc.Wire.
func (q *SyncReq) ParseWire(_ byte, r *rpc.WireReader) (err error) {
	q.Records, err = readSyncRecs(r)
	return err
}

// StateResp

// WireTag implements rpc.Wire.
func (*StateResp) WireTag() (byte, byte) { return wireTagStateResp, 1 }

// AppendWire implements rpc.Wire.
func (p *StateResp) AppendWire(dst []byte) []byte { return appendSyncRecs(dst, p.Records) }

// ParseWire implements rpc.Wire.
func (p *StateResp) ParseWire(_ byte, r *rpc.WireReader) (err error) {
	p.Records, err = readSyncRecs(r)
	return err
}
