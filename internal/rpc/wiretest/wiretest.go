// Package wiretest checks rpc.Wire codecs for tests: a filled record
// round-trips, every proper prefix of its encoding is refused, tags are
// unique, and whatever decodes re-encodes to the same record. Records of
// different types share one list as Records, whose codec the typed rpc
// calls are reached through.
package wiretest

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// Record is one record of some rpc.Wire type: a filled value, or the type
// alone (Of of a zero value) for decoding arbitrary input.
type Record struct {
	Value    any
	Tag, Ver byte
	encode   func(v any) []byte
	decode   func(data []byte) (any, error)
}

// Of wraps v, a record of type T.
func Of[T rpc.Wire[T]](v T) Record {
	tag, ver := v.WireTag()
	return Record{
		Value: v,
		Tag:   tag,
		Ver:   ver,
		encode: func(v any) []byte {
			rec := v.(T)
			data, _ := rpc.Encode(&rec) // Encode's error is always nil
			return data
		},
		decode: func(data []byte) (any, error) {
			var out T
			err := rpc.Decode(data, &out)
			return out, err
		},
	}
}

// Name is the record's type, as %T prints it.
func (r Record) Name() string { return fmt.Sprintf("%T", r.Value) }

// Encode renders the record through rpc.Encode.
func (r Record) Encode() []byte { return r.encode(r.Value) }

// Decode decodes data as the record's type through rpc.Decode.
func (r Record) Decode(data []byte) (any, error) { return r.decode(data) }

// RoundTrip checks that each record decodes from its encoding unchanged.
func RoundTrip(t testing.TB, recs ...Record) {
	t.Helper()
	for _, rec := range recs {
		data := rec.Encode()
		if data[0] != rpc.WireMagic || data[1] != rec.Tag || data[2] != rec.Ver {
			t.Errorf("%s: header % x, want %#x %#x %d", rec.Name(), data[:3], rpc.WireMagic, rec.Tag, rec.Ver)
		}
		out, err := rec.Decode(data)
		if err != nil {
			t.Errorf("%s: decode: %v", rec.Name(), err)
		} else if !reflect.DeepEqual(rec.Value, out) {
			t.Errorf("%s mismatch:\n in: %+v\nout: %+v", rec.Name(), rec.Value, out)
		}
	}
}

// Truncated checks that every proper prefix of each record's encoding is
// refused: a torn record never decodes into a half-filled value.
func Truncated(t testing.TB, recs ...Record) {
	t.Helper()
	for _, rec := range recs {
		data := rec.Encode()
		for cut := 0; cut < len(data); cut++ {
			if _, err := rec.Decode(data[:cut]); err == nil {
				t.Errorf("%s: %d of %d bytes decoded without error", rec.Name(), cut, len(data))
			}
		}
	}
}

// TagsUnique checks that no two record types share a tag and that no
// version is 0, which is reserved.
func TagsUnique(t testing.TB, recs ...Record) {
	t.Helper()
	seen := map[byte]string{}
	for _, rec := range recs {
		if rec.Ver == 0 {
			t.Errorf("%s: version 0 is reserved", rec.Name())
		}
		if prev, dup := seen[rec.Tag]; dup && prev != rec.Name() {
			t.Errorf("tag %#x reused by %s and %s", rec.Tag, rec.Name(), prev)
		}
		seen[rec.Tag] = rec.Name()
	}
}

// Reencode decodes raw as each record's type and, where that succeeds,
// checks the record re-encodes to a frame that decodes to it again: what a
// decoder accepts, its encoder can say.
func Reencode(t testing.TB, raw []byte, recs ...Record) {
	t.Helper()
	for _, rec := range recs {
		v, err := rec.Decode(raw)
		if err != nil {
			continue
		}
		v2, err := rec.Decode(rec.encode(v))
		if err != nil {
			t.Fatalf("%s: re-encoded frame undecodable: %v", rec.Name(), err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("%s: round trip changed content:\n 1: %+v\n 2: %+v", rec.Name(), v, v2)
		}
	}
}
