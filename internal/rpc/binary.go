package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// This file is the hand-rolled binary codec every RPC payload travels
// in. See doc.go for the wire format and the tag registry.
//
// Design notes:
//
//   - There is one codec. Encode, Decode, Invoke and Method accept only
//     types implementing Wire, so a record without a codec is a compile
//     error, and a payload that does not open with WireMagic, its type's
//     tag and its current version is refused whole.
//   - Field encoding reuses the uvarint length-prefix idiom of
//     internal/storage's WAL record codec: uvarint length + raw bytes for
//     strings and byte slices, plain uvarint for counts and sequence
//     numbers, zigzag varint for signed integers.
//   - Decoding is strict: a WireReader records the first failure, Decode
//     rejects trailing bytes, unknown tags and every version but the
//     current one. A torn or corrupt frame therefore fails loudly instead
//     of yielding a half-filled struct.
//   - Ownership: WireReader.Bytes and String COPY out of the input
//     buffer (String once per short message; doc.go, "Ownership").
//     Decoded messages never alias transport-owned memory, so a
//     transport is free to reuse its read buffers the moment Decode
//     returns (the mux transport does exactly that for request frames).

// WireMagic is the first byte of every payload.
const WireMagic = 0xB5

// Wire is implemented by every payload type: its hand-rolled binary codec.
// WireTag returns the type's registered tag and its CURRENT encoding
// version; AppendWire appends the body to dst (append semantics);
// ParseWire fills the receiver from a reader positioned at the body. Every
// peer runs the same build, so Decode accepts the current version only, and
// a codec revision bumps it. The one record kept on stable storage is
// core's entryRecord: revising it needs a way to read the version on disk.
type Wire interface {
	WireTag() (tag, ver byte)
	AppendWire(dst []byte) []byte
	ParseWire(ver byte, r *WireReader) error
}

// WireSizer is optionally implemented by Wire types whose encoded size is
// cheap to estimate; Encode pre-sizes its output buffer with the hint so
// large payloads (invoke args, state copies, batch frames) encode with a
// single allocation.
type WireSizer interface {
	WireSizeHint() int
}

// ErrWire reports a malformed or mismatched binary payload.
var ErrWire = errors.New("rpc: bad binary payload")

// --- append helpers (encode side) ---

// AppendUvarint appends v as a uvarint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends v zigzag-encoded (safe for negative values).
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendBytes appends a uvarint length prefix followed by b.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends a uvarint length prefix followed by s.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendStrings appends a uvarint count followed by each string.
func AppendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// --- WireReader (decode side) ---

// WireReader is a cursor over a binary payload body. Every take method
// records the first failure; callers check Err (Decode does) after
// parsing instead of per field. All reads past a failure return zero
// values.
type WireReader struct {
	data []byte
	err  error
	// text is one string copy of the input from the first non-empty string
	// field to its end, taken when that field is read; the strings of a
	// message are sub-strings of it instead of an allocation each.
	text string
}

// maxSharedText is the longest input tail a reader copies whole for its
// strings to share. A string field keeps that copy alive as long as it
// lives itself, so beyond this size — a message carrying bulk state beside
// its names — each string is copied alone.
const maxSharedText = 512

// NewWireReader returns a reader over body. Exported for fuzz targets;
// RPC decoding goes through Decode.
func NewWireReader(body []byte) *WireReader { return &WireReader{data: body} }

func (r *WireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s", ErrWire, what)
	}
}

// Err returns the first decode failure, or nil.
func (r *WireReader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *WireReader) Remaining() int { return len(r.data) }

// Uvarint consumes a uvarint.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Varint consumes a zigzag varint.
func (r *WireReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Bool consumes one byte; any nonzero value is true.
func (r *WireReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.data) < 1 {
		r.fail("bool")
		return false
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b != 0
}

// take consumes a uvarint length prefix and that many raw bytes,
// returning a sub-slice of the input (internal; callers copy).
func (r *WireReader) take(what string) []byte {
	if r.err != nil {
		return nil
	}
	n, used := binary.Uvarint(r.data)
	if used <= 0 || n > uint64(len(r.data)-used) {
		r.fail(what)
		return nil
	}
	b := r.data[used : used+int(n)]
	r.data = r.data[used+int(n):]
	return b
}

// Bytes consumes a length-prefixed byte field. The result is a COPY: it
// never aliases the input buffer, so the transport may recycle the frame
// the moment decoding finishes. A zero-length field decodes as nil.
func (r *WireReader) Bytes() []byte {
	b := r.take("bytes field")
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String consumes a length-prefixed string field. The result never
// aliases the input: it is a copy of its own, or part of the reader's one
// copy of a short message's tail (see maxSharedText).
func (r *WireReader) String() string {
	b := r.take("string field")
	if len(b) == 0 {
		return ""
	}
	tail := len(b) + len(r.data) // b and the unread input are contiguous
	if r.text == "" {
		if tail > maxSharedText {
			return string(b)
		}
		r.text = string(b[:tail])
	}
	off := len(r.text) - tail
	return r.text[off : off+len(b)]
}

// Strings consumes a uvarint count followed by that many string fields.
// The count is sanity-bounded by the remaining payload size so a corrupt
// prefix cannot demand a huge allocation.
func (r *WireReader) Strings() []string {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n > uint64(len(r.data)) { // each element costs >= 1 byte
		r.fail("string list")
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.String())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// encodeWire renders a Wire value as a full payload — magic, tag, version,
// body — behind lead reserved bytes. The output is always freshly
// allocated — it is handed to the transport and must not share memory
// with any pooled scratch.
func encodeWire(w Wire, lead int) []byte {
	hint := 64
	if s, ok := w.(WireSizer); ok {
		hint = s.WireSizeHint()
	}
	return AppendEncode(make([]byte, lead, lead+3+hint), w)
}

// AppendEncode appends w's payload, exactly as Encode renders it, to dst:
// for a caller that encodes into scratch of its own.
func AppendEncode(dst []byte, w Wire) []byte {
	tag, ver := w.WireTag()
	return w.AppendWire(append(dst, WireMagic, tag, ver))
}

// decodeWire fills w from a payload previously produced by encodeWire.
func decodeWire(data []byte, w Wire) error {
	tag, cur := w.WireTag()
	if len(data) < 3 {
		return fmt.Errorf("%w: %d-byte frame", ErrWire, len(data))
	}
	if data[0] != WireMagic {
		return fmt.Errorf("%w: first byte %#x, want %#x", ErrWire, data[0], WireMagic)
	}
	if data[1] != tag {
		return fmt.Errorf("%w: tag %#x, want %#x (%T)", ErrWire, data[1], tag, w)
	}
	ver := data[2]
	if ver != cur {
		return fmt.Errorf("%w: unsupported version %d for %T (current %d)", ErrWire, ver, w, cur)
	}
	// ParseWire is called through the interface, so a reader declared here
	// would be a heap object per decode. A pooled one is handed back, with
	// its reference to data dropped, before decodeWire returns: ParseWire
	// implementations must not keep r.
	r := wireReaderPool.Get().(*WireReader)
	*r = WireReader{data: data[3:]}
	perr := w.ParseWire(ver, r)
	rerr, trailing := r.err, len(r.data)
	*r = WireReader{}
	wireReaderPool.Put(r)
	if perr != nil {
		return fmt.Errorf("rpc: decode %T: %w", w, perr)
	}
	if rerr != nil {
		return fmt.Errorf("rpc: decode %T: %w", w, rerr)
	}
	if trailing != 0 {
		return fmt.Errorf("rpc: decode %T: %w: %d trailing bytes", w, ErrWire, trailing)
	}
	return nil
}

var wireReaderPool = sync.Pool{New: func() any { return new(WireReader) }}

// wireTagEmpty is Empty's tag, in this package's block of the registry.
const wireTagEmpty byte = 0x70

// Empty is the record for a request or reply that carries nothing: an
// acknowledgement, a parameterless request, a liveness probe.
type Empty struct{}

// WireTag implements Wire.
func (*Empty) WireTag() (byte, byte) { return wireTagEmpty, 1 }

// AppendWire implements Wire.
func (*Empty) AppendWire(dst []byte) []byte { return dst }

// ParseWire implements Wire.
func (*Empty) ParseWire(byte, *WireReader) error { return nil }
