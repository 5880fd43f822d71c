package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/transport"
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
//   - Records are values. Wire's methods take value receivers and
//     ParseWire returns the record it decodes, because a generic function
//     calls a type parameter's methods through its dictionary, which
//     escape analysis cannot see through: a pointer handed to such a call
//     is assumed to escape, so a record whose pointer methods Invoke or
//     Method called was a heap object per call, request and reply alike,
//     on both sides. A value receiver is a copy, and a returned record is
//     a copy too, so the record stays in the caller's frame.
//   - Field encoding reuses the uvarint length-prefix idiom of
//     internal/storage's WAL record codec: uvarint length + raw bytes for
//     strings and byte slices, plain uvarint for counts and sequence
//     numbers, zigzag varint for signed integers.
//   - Decoding is strict: a WireReader records the first failure, Decode
//     rejects trailing bytes, unknown tags and every version but the
//     current one. A torn or corrupt frame therefore fails loudly instead
//     of yielding a half-filled struct.
//   - A list's count is bounded by what the rest of its frame can hold at
//     each element's least encoded size (WireReader.Count), so a decoder
//     preallocates no more than a fixed multiple of its input, whatever
//     the count says.
//   - Ownership: WireReader.Bytes and String COPY out of the input
//     buffer (String once per short message; doc.go, "Ownership"), and
//     the address lists of one message share one block (Addrs).
//     Decoded messages never alias transport-owned memory, so a
//     transport is free to reuse its read buffers the moment Decode
//     returns (the mux transport does exactly that for request frames).

// WireMagic is the first byte of every payload.
const WireMagic = 0xB5

// Wire is the codec of record type T, implemented on T's value. WireTag
// returns the type's registered tag and its CURRENT encoding version;
// WireSizeHint estimates the body's encoded size, so Encode sizes its
// output in one allocation; AppendWire appends the body to dst (append
// semantics); ParseWire decodes a body from a reader positioned at it and
// returns the record (its receiver is not read). Every peer runs the same
// build, so Decode accepts the current version only, and a codec revision
// bumps it. The one record kept on stable storage is core's EntryRecord:
// revising it needs a way to read the version on disk.
type Wire[T any] interface {
	WireTag() (tag, ver byte)
	WireSizeHint() int
	AppendWire(dst []byte) []byte
	ParseWire(ver byte, r *WireReader) (T, error)
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

// AppendAddrs appends a uvarint count followed by each address, as
// AppendStrings does a list of strings: the two encode alike.
func AppendAddrs(dst []byte, as []transport.Addr) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(as)))
	for _, a := range as {
		dst = AppendString(dst, string(a))
	}
	return dst
}

// AddrsSize is what AppendAddrs takes for as, about.
func AddrsSize(as []transport.Addr) int {
	n := 2
	for _, a := range as {
		n += len(a) + 2
	}
	return n
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
	// addrs is the unused room of the block the message's address lists
	// are carved from (Addrs).
	addrs []transport.Addr
}

// addrBlock is how many addresses a reader's block holds at least, input
// permitting: a message names a few lists of one to three nodes each.
const addrBlock = 8

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

// Count consumes a list's uvarint element count, where each element
// encodes to at least minSize bytes. A count the rest of the input cannot
// hold fails the reader and reads as 0, so a decoder that preallocates the
// count allocates at most sizeof(element)/minSize bytes per input byte,
// whatever a corrupt or hostile count claims.
func (r *WireReader) Count(minSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)/minSize) {
		r.fail("list count")
		return 0
	}
	return int(n)
}

// Strings consumes a uvarint count followed by that many string fields.
func (r *WireReader) Strings() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Addrs consumes a list of addresses, encoded as Strings encodes a list of
// strings. The lists of one message are carved from one block, each with
// cap == len, so an append to one reallocates instead of writing into the
// next. A block holds addrBlock addresses or the list, whichever is more,
// and never more than the rest of the input has bytes: what a decode
// allocates stays bounded by its input.
func (r *WireReader) Addrs() []transport.Addr {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	if len(r.addrs) < n {
		r.addrs = make([]transport.Addr, max(n, min(addrBlock, len(r.data))))
	}
	out := r.addrs[:n:n]
	r.addrs = r.addrs[n:]
	for i := range out {
		out[i] = transport.Addr(r.String())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// encodeWire renders *v as a full payload — magic, tag, version, body —
// behind lead reserved bytes. The output is always freshly allocated — it
// is handed to the transport and must not share memory with any pooled
// scratch. v is only dereferenced, so it does not escape: the codec's
// methods take their copies of the record themselves.
func encodeWire[T Wire[T]](v *T, lead int) []byte {
	return AppendEncode(make([]byte, lead, lead+3+(*v).WireSizeHint()), v)
}

// AppendEncode appends *v's payload, exactly as Encode renders it, to dst:
// for a caller that encodes into scratch of its own.
func AppendEncode[T Wire[T]](dst []byte, v *T) []byte {
	var zero T
	tag, ver := zero.WireTag()
	return (*v).AppendWire(append(dst, WireMagic, tag, ver))
}

// decodeWire sets *v to the record a payload previously produced by
// encodeWire holds, and leaves it as it was on an error. Its errors name
// the type as *T, through a nil pointer: formatting the record itself
// would make it escape on every path, not only the failing one.
func decodeWire[T Wire[T]](data []byte, v *T) error {
	var zero T
	tag, cur := zero.WireTag()
	if len(data) < 3 {
		return fmt.Errorf("%w: %d-byte frame", ErrWire, len(data))
	}
	if data[0] != WireMagic {
		return fmt.Errorf("%w: first byte %#x, want %#x", ErrWire, data[0], WireMagic)
	}
	if data[1] != tag {
		return fmt.Errorf("%w: tag %#x, want %#x (%T)", ErrWire, data[1], tag, (*T)(nil))
	}
	ver := data[2]
	if ver != cur {
		return fmt.Errorf("%w: unsupported version %d for %T (current %d)", ErrWire, ver, (*T)(nil), cur)
	}
	// ParseWire is called through the type's dictionary, so a reader
	// declared here would be a heap object per decode. A pooled one is
	// handed back, with its reference to data dropped, before decodeWire
	// returns: ParseWire implementations must not keep r.
	r := wireReaderPool.Get().(*WireReader)
	*r = WireReader{data: data[3:]}
	rec, perr := zero.ParseWire(ver, r)
	rerr, trailing := r.err, len(r.data)
	*r = WireReader{}
	wireReaderPool.Put(r)
	switch {
	case perr != nil:
		return fmt.Errorf("rpc: decode %T: %w", (*T)(nil), perr)
	case rerr != nil:
		return fmt.Errorf("rpc: decode %T: %w", (*T)(nil), rerr)
	case trailing != 0:
		return fmt.Errorf("rpc: decode %T: %w: %d trailing bytes", (*T)(nil), ErrWire, trailing)
	}
	*v = rec
	return nil
}

var wireReaderPool = sync.Pool{New: func() any { return new(WireReader) }}

// wireTagEmpty is Empty's tag, in this package's block of the registry.
const wireTagEmpty byte = 0x70

// Empty is the record for a request or reply that carries nothing: an
// acknowledgement, a parameterless request, a liveness probe.
type Empty struct{}

// WireTag implements Wire.
func (Empty) WireTag() (byte, byte) { return wireTagEmpty, 1 }

// WireSizeHint implements Wire.
func (Empty) WireSizeHint() int { return 0 }

// AppendWire implements Wire.
func (Empty) AppendWire(dst []byte) []byte { return dst }

// ParseWire implements Wire.
func (Empty) ParseWire(byte, *WireReader) (Empty, error) { return Empty{}, nil }
