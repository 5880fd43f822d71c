package group

import (
	"repro/internal/rpc"
	"repro/internal/transport"
)

// Binary codecs (rpc.Wire) for the multicast wire frames: sequencing
// requests and the deliver frame that carries every delivery — a
// sequenced message, or a naive one. Tags live in the 0x50–0x5f block
// of the registry in internal/rpc/doc.go; 0x52 and 0x53, the retired
// single-message Deliver codecs, are not reused. All codecs are at
// version 1.
const (
	wireTagSequenceReq      byte = 0x50
	wireTagSequenceResp     byte = 0x51
	wireTagDeliverBatchReq  byte = 0x54
	wireTagDeliverBatchResp byte = 0x55
)

// SequenceReq

// WireTag implements rpc.Wire.
func (SequenceReq) WireTag() (byte, byte) { return wireTagSequenceReq, 1 }

// WireSizeHint implements rpc.Wire.
func (q SequenceReq) WireSizeHint() int {
	return len(q.Group) + len(q.MsgID) + len(q.Kind) + len(q.Payload) + 16*len(q.Members) + 32
}

// AppendWire implements rpc.Wire.
func (q SequenceReq) AppendWire(dst []byte) []byte {
	dst = rpc.AppendString(dst, q.Group)
	dst = rpc.AppendString(dst, q.MsgID)
	dst = rpc.AppendString(dst, q.Kind)
	dst = rpc.AppendBytes(dst, q.Payload)
	return rpc.AppendStrings(dst, q.Members)
}

// ParseWire implements rpc.Wire.
func (SequenceReq) ParseWire(_ byte, r *rpc.WireReader) (SequenceReq, error) {
	return SequenceReq{Group: r.String(), MsgID: r.String(), Kind: r.String(), Payload: r.Bytes(), Members: r.Strings()}, nil
}

// SequenceResp

// WireTag implements rpc.Wire.
func (SequenceResp) WireTag() (byte, byte) { return wireTagSequenceResp, 1 }

// WireSizeHint implements rpc.Wire.
func (p SequenceResp) WireSizeHint() int {
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
func (p SequenceResp) AppendWire(dst []byte) []byte {
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
func (SequenceResp) ParseWire(_ byte, r *rpc.WireReader) (SequenceResp, error) {
	p := SequenceResp{Seq: r.Uvarint()}
	if n := r.Count(3); n > 0 { // a reply is a member, a payload and an error
		p.Replies = make([]Reply, n)
		for i := range p.Replies {
			p.Replies[i] = Reply{Member: transport.Addr(r.String()), Payload: r.Bytes(), Err: r.String()}
		}
	}
	p.Failed = r.Strings()
	return p, nil
}

// DeliverBatchReq

// WireTag implements rpc.Wire.
func (DeliverBatchReq) WireTag() (byte, byte) { return wireTagDeliverBatchReq, 1 }

// WireSizeHint implements rpc.Wire.
func (q DeliverBatchReq) WireSizeHint() int {
	n := len(q.Group) + 32
	for _, it := range q.Items {
		n += len(it.MsgID) + len(it.Kind) + len(it.Payload) + 24
	}
	return n
}

// AppendWire implements rpc.Wire.
func (q DeliverBatchReq) AppendWire(dst []byte) []byte {
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
func (DeliverBatchReq) ParseWire(_ byte, r *rpc.WireReader) (DeliverBatchReq, error) {
	q := DeliverBatchReq{Group: r.String()}
	if n := r.Count(4); n > 0 { // an item is a message id, a kind, a payload and a seq
		q.Items = make([]BatchItem, n)
		for i := range q.Items {
			q.Items[i] = BatchItem{MsgID: r.String(), Kind: r.String(), Payload: r.Bytes(), Seq: r.Uvarint()}
		}
	}
	q.Stable = r.Uvarint()
	return q, nil
}

// DeliverBatchResp

// WireTag implements rpc.Wire.
func (DeliverBatchResp) WireTag() (byte, byte) { return wireTagDeliverBatchResp, 1 }

// WireSizeHint implements rpc.Wire.
func (p DeliverBatchResp) WireSizeHint() int {
	n := 16
	for _, res := range p.Results {
		n += len(res.Payload) + len(res.Err) + 16
	}
	return n
}

// AppendWire implements rpc.Wire.
func (p DeliverBatchResp) AppendWire(dst []byte) []byte {
	dst = rpc.AppendUvarint(dst, uint64(len(p.Results)))
	for _, res := range p.Results {
		dst = rpc.AppendBytes(dst, res.Payload)
		dst = rpc.AppendString(dst, res.Err)
	}
	return dst
}

// ParseWire implements rpc.Wire.
func (DeliverBatchResp) ParseWire(_ byte, r *rpc.WireReader) (DeliverBatchResp, error) {
	var p DeliverBatchResp
	if n := r.Count(2); n > 0 { // a result is a payload and an error
		p.Results = make([]BatchResult, n)
		for i := range p.Results {
			p.Results[i] = BatchResult{Payload: r.Bytes(), Err: r.String()}
		}
	}
	return p, nil
}
