package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
)

// Record tags. The tag travels as the first payload byte; replay applies
// records in file order.
const (
	recVersion byte = iota + 1
	recDeleteVersion
	recIntention
	recCommitTx
	recAbortTx
	recOutcome
	recDeleteOutcome
	recMaxTag = recDeleteOutcome
)

// maxPayload bounds a single record so a corrupt length prefix cannot
// demand gigabytes; object states in this system are small.
const maxPayload = 1 << 26

// errCorrupt reports an undecodable record payload; the scanner treats
// it like a torn tail and truncates.
var errCorrupt = errors.New("storage: corrupt record")

// record is the WAL/snapshot unit. Fields are used per tag; unused ones
// stay empty.
type record struct {
	tag  byte
	tx   string
	id   string
	seq  uint64 // version/intention seq, or the outcome code
	data []byte
}

// appendRecord appends r's frame (length, payload, CRC) to dst.
func appendRecord(dst []byte, r record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	payloadStart := len(dst)
	dst = append(dst, r.tag)
	dst = binary.AppendUvarint(dst, uint64(len(r.tx)))
	dst = append(dst, r.tx...)
	dst = binary.AppendUvarint(dst, uint64(len(r.id)))
	dst = append(dst, r.id...)
	dst = binary.AppendUvarint(dst, r.seq)
	dst = binary.AppendUvarint(dst, uint64(len(r.data)))
	dst = append(dst, r.data...)
	payload := dst[payloadStart:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// decodePayload decodes one record payload (the bytes between the length
// prefix and the CRC). It is strict: unknown tags, short fields and
// trailing bytes are all errCorrupt.
func decodePayload(p []byte) (record, error) {
	if len(p) == 0 {
		return record{}, fmt.Errorf("%w: empty payload", errCorrupt)
	}
	r := record{tag: p[0]}
	if r.tag == 0 || r.tag > recMaxTag {
		return record{}, fmt.Errorf("%w: unknown tag %d", errCorrupt, r.tag)
	}
	p = p[1:]
	takeBytes := func() ([]byte, bool) {
		n, used := binary.Uvarint(p)
		if used <= 0 || n > uint64(len(p)-used) {
			return nil, false
		}
		b := p[used : used+int(n)]
		p = p[used+int(n):]
		return b, true
	}
	tx, ok := takeBytes()
	if !ok {
		return record{}, fmt.Errorf("%w: truncated tx field", errCorrupt)
	}
	id, ok := takeBytes()
	if !ok {
		return record{}, fmt.Errorf("%w: truncated id field", errCorrupt)
	}
	seq, used := binary.Uvarint(p)
	if used <= 0 {
		return record{}, fmt.Errorf("%w: truncated seq field", errCorrupt)
	}
	p = p[used:]
	data, ok := takeBytes()
	if !ok {
		return record{}, fmt.Errorf("%w: truncated data field", errCorrupt)
	}
	if len(p) != 0 {
		return record{}, fmt.Errorf("%w: %d trailing payload bytes", errCorrupt, len(p))
	}
	r.tx, r.id, r.seq = string(tx), string(id), seq
	if len(data) > 0 {
		r.data = data
	}
	return r, nil
}

// scanRecords applies every decodable record in buf, in order, and
// returns the byte length of the clean prefix. It stops — without error —
// at the first incomplete frame, CRC mismatch or undecodable payload:
// that is the torn tail a crash mid-append leaves, and the caller
// truncates the file there. strict mode instead reports such a tail as
// an error (snapshots are written atomically, so any damage is real
// corruption, not a torn write).
func scanRecords(buf []byte, strict bool, apply func(record)) (int64, error) {
	off := 0
	for {
		rest := buf[off:]
		if len(rest) < 4 {
			break
		}
		n := binary.LittleEndian.Uint32(rest)
		if n == 0 || n > maxPayload || uint64(len(rest)-4) < uint64(n)+4 {
			break
		}
		payload := rest[4 : 4+n]
		crc := binary.LittleEndian.Uint32(rest[4+n:])
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		r, err := decodePayload(payload)
		if err != nil {
			break
		}
		apply(r)
		off += 4 + int(n) + 4
	}
	if strict && off != len(buf) {
		return int64(off), fmt.Errorf("%w: undecodable record at byte %d of %d", errCorrupt, off, len(buf))
	}
	return int64(off), nil
}

// applyRecord folds one record into st. It is the one transition of a
// node's stable image: the WAL and snapshot replay, a Disk append and every
// Mem mutation go through it, and nothing else changes a State.
func applyRecord(st *State, r record) {
	switch r.tag {
	case recVersion:
		st.Versions[r.id] = Version{Data: r.data, Seq: r.seq, Tx: r.tx}
	case recDeleteVersion:
		delete(st.Versions, r.id)
	case recIntention:
		in := st.Intentions[r.tx]
		if in == nil {
			in = make(map[string]Write)
			st.Intentions[r.tx] = in
		}
		in[r.id] = Write{Data: r.data, Seq: r.seq}
		st.Pins[r.id] = r.tx
	case recCommitTx:
		for id, w := range st.Intentions[r.tx] {
			st.Versions[id] = Version{Data: w.Data, Seq: w.Seq, Tx: r.tx}
		}
		dropIntentions(st, r.tx)
	case recAbortTx:
		dropIntentions(st, r.tx)
	case recOutcome:
		st.Outcomes[r.tx] = uint8(r.seq)
	case recDeleteOutcome:
		delete(st.Outcomes, r.tx)
	}
}

// applyStaged applies the records of Stage(tx, writes, commit) to st: what
// applyRecord makes of them one by one, except that a commit finding no
// earlier intention of tx sets the versions straight, without intentions it
// would fold at once. The two differ only where another transaction pins
// one of the objects, which the store's admission refuses.
func applyStaged(st *State, tx string, writes []Intention, commit bool) {
	if !commit || st.Intentions[tx] != nil {
		staged(tx, writes, commit, func(r record) { applyRecord(st, r) })
		return
	}
	for _, w := range writes {
		st.Versions[w.ID] = Version{Data: w.Data, Seq: w.Seq, Tx: tx}
	}
}

// dropIntentions forgets tx's intentions and the pins they hold.
func dropIntentions(st *State, tx string) {
	for id := range st.Intentions[tx] {
		if st.Pins[id] == tx {
			delete(st.Pins, id)
		}
	}
	delete(st.Intentions, tx)
}

// encodeState renders st as a record stream (the snapshot body), in a
// deterministic order: versions, intentions, outcomes, each sorted by
// key.
func encodeState(st *State) []byte {
	var buf []byte
	for _, id := range slices.Sorted(maps.Keys(st.Versions)) {
		v := st.Versions[id]
		buf = appendRecord(buf, record{tag: recVersion, id: id, tx: v.Tx, seq: v.Seq, data: v.Data})
	}
	for _, tx := range slices.Sorted(maps.Keys(st.Intentions)) {
		in := st.Intentions[tx]
		for _, id := range slices.Sorted(maps.Keys(in)) {
			w := in[id]
			buf = appendRecord(buf, record{tag: recIntention, tx: tx, id: id, seq: w.Seq, data: w.Data})
		}
	}
	for _, tx := range slices.Sorted(maps.Keys(st.Outcomes)) {
		buf = appendRecord(buf, record{tag: recOutcome, tx: tx, seq: uint64(st.Outcomes[tx])})
	}
	return buf
}
