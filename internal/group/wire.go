package group

import (
	"repro/internal/rpc"
	"repro/internal/transport"
)

// Binary codecs (rpc.Wire) for the multicast wire frames: sequencing
// requests and the deliver frame that carries every delivery — a
// sequencer round, or one naive message. Tags live in the 0x50–0x5f block
// of the registry in internal/rpc/doc.go; 0x52 and 0x53, the retired
// single-message Deliver codecs, are not reused. All codecs are at
// version 1.
const (
	wireTagSequenceReq      byte = 0x50
	wireTagSequenceResp     byte = 0x51
	wireTagDeliverBatchReq  byte = 0x54
	wireTagDeliverBatchResp byte = 0x55
)

// sequenceReq

// WireTag implements rpc.Wire.
func (*sequenceReq) WireTag() (byte, byte) { return wireTagSequenceReq, 1 }

// WireSizeHint implements rpc.WireSizer.
func (q *sequenceReq) WireSizeHint() int {
	return len(q.Group) + len(q.MsgID) + len(q.Kind) + len(q.Payload) + 16*len(q.Members) + 32
}

// AppendWire implements rpc.Wire.
func (q *sequenceReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.Group)
	dst = rpc.AppendString(dst, q.MsgID)
	dst = rpc.AppendString(dst, q.Kind)
	dst = rpc.AppendBytes(dst, q.Payload)
	return rpc.AppendStrings(dst, q.Members)
}

// ParseWire implements rpc.Wire.
func (q *sequenceReq) ParseWire(_ byte, r *rpc.WireReader) error {
	q.Group = r.String()
	q.MsgID = r.String()
	q.Kind = r.String()
	q.Payload = r.Bytes()
	q.Members = r.Strings()
	return nil
}

// sequenceResp

// WireTag implements rpc.Wire.
func (*sequenceResp) WireTag() (byte, byte) { return wireTagSequenceResp, 1 }

// WireSizeHint implements rpc.WireSizer.
func (p *sequenceResp) WireSizeHint() int {
	n := 32
	for _, rep := range p.Replies {
		n += len(rep.Member) + len(rep.Payload) + len(rep.Err) + 16
	}
	for _, f := range p.Failed {
		n += len(f) + 8
	}
	return n
}

// AppendWire implements rpc.Wire.
func (p *sequenceResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendUvarint(dst, p.Seq)
	dst = rpc.AppendUvarint(dst, uint64(len(p.Replies)))
	for _, rep := range p.Replies {
		dst = rpc.AppendString(dst, string(rep.Member))
		dst = rpc.AppendBytes(dst, rep.Payload)
		dst = rpc.AppendString(dst, rep.Err)
	}
	return rpc.AppendStrings(dst, p.Failed)
}

// ParseWire implements rpc.Wire.
func (p *sequenceResp) ParseWire(_ byte, r *rpc.WireReader) error {
	p.Seq = r.Uvarint()
	n := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		return rpc.ErrWire
	}
	if n > 0 {
		p.Replies = make([]Reply, 0, n)
		for i := uint64(0); i < n; i++ {
			p.Replies = append(p.Replies, Reply{
				Member:  transport.Addr(r.String()),
				Payload: r.Bytes(),
				Err:     r.String(),
			})
		}
	}
	p.Failed = r.Strings()
	return nil
}

// deliverBatchReq

// WireTag implements rpc.Wire.
func (*deliverBatchReq) WireTag() (byte, byte) { return wireTagDeliverBatchReq, 1 }

// WireSizeHint implements rpc.WireSizer.
func (q *deliverBatchReq) WireSizeHint() int {
	n := len(q.Group) + 32
	for _, it := range q.Items {
		n += len(it.MsgID) + len(it.Kind) + len(it.Payload) + 24
	}
	return n
}

// AppendWire implements rpc.Wire.
func (q *deliverBatchReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.Group)
	dst = rpc.AppendUvarint(dst, uint64(len(q.Items)))
	for _, it := range q.Items {
		dst = rpc.AppendString(dst, it.MsgID)
		dst = rpc.AppendString(dst, it.Kind)
		dst = rpc.AppendBytes(dst, it.Payload)
		dst = rpc.AppendUvarint(dst, it.Seq)
	}
	return rpc.AppendUvarint(dst, q.Stable)
}

// ParseWire implements rpc.Wire.
func (q *deliverBatchReq) ParseWire(_ byte, r *rpc.WireReader) error {
	q.Group = r.String()
	n := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		return rpc.ErrWire
	}
	if n > 0 {
		q.Items = make([]batchItem, 0, n)
		for i := uint64(0); i < n; i++ {
			q.Items = append(q.Items, batchItem{
				MsgID:   r.String(),
				Kind:    r.String(),
				Payload: r.Bytes(),
				Seq:     r.Uvarint(),
			})
		}
	}
	q.Stable = r.Uvarint()
	return nil
}

// deliverBatchResp

// WireTag implements rpc.Wire.
func (*deliverBatchResp) WireTag() (byte, byte) { return wireTagDeliverBatchResp, 1 }

// WireSizeHint implements rpc.WireSizer.
func (p *deliverBatchResp) WireSizeHint() int {
	n := 16
	for _, res := range p.Results {
		n += len(res.Payload) + len(res.Err) + 16
	}
	return n
}

// AppendWire implements rpc.Wire.
func (p *deliverBatchResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendUvarint(dst, uint64(len(p.Results)))
	for _, res := range p.Results {
		dst = rpc.AppendBytes(dst, res.Payload)
		dst = rpc.AppendString(dst, res.Err)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (p *deliverBatchResp) ParseWire(_ byte, r *rpc.WireReader) error {
	n := r.Uvarint()
	if r.Err() != nil || n == 0 {
		return r.Err()
	}
	if n > uint64(r.Remaining()) {
		return rpc.ErrWire
	}
	p.Results = make([]batchResult, 0, n)
	for i := uint64(0); i < n; i++ {
		p.Results = append(p.Results, batchResult{Payload: r.Bytes(), Err: r.String()})
	}
	return nil
}
