package rpc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// testMsg exercises every field kind the append/read helpers support.
type testMsg struct {
	Name  string
	Blob  []byte
	Seq   uint64
	Delta int64
	Flag  bool
	Peers []string
}

func (testMsg) WireTag() (byte, byte) { return 0x7E, 2 }

func (m testMsg) WireSizeHint() int { return len(m.Name) + len(m.Blob) + 32 }

func (m testMsg) AppendWire(dst []byte) []byte {
	dst = AppendString(dst, m.Name)
	dst = AppendBytes(dst, m.Blob)
	dst = AppendUvarint(dst, m.Seq)
	dst = AppendVarint(dst, m.Delta)
	dst = AppendBool(dst, m.Flag)
	return AppendStrings(dst, m.Peers)
}

func (testMsg) ParseWire(_ byte, r *WireReader) (testMsg, error) {
	return testMsg{
		Name:  r.String(),
		Blob:  r.Bytes(),
		Seq:   r.Uvarint(),
		Delta: r.Varint(),
		Flag:  r.Bool(),
		Peers: r.Strings(),
	}, nil
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := []*testMsg{
		{},
		{Name: "obj-1", Blob: []byte{0, 1, 2, 0xff}, Seq: 1 << 40, Delta: -17, Flag: true, Peers: []string{"a", "b"}},
		{Delta: 1<<62 - 1, Peers: []string{""}},
	}
	for i, in := range cases {
		data, err := Encode(in)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		if data[0] != WireMagic {
			t.Fatalf("case %d: first byte %#x, want WireMagic", i, data[0])
		}
		var out testMsg
		if err := Decode(data, &out); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(in, &out) {
			t.Fatalf("case %d: round trip mismatch:\n in: %+v\nout: %+v", i, in, out)
		}
	}
}

// TestEmptyWire: Empty round-trips as its three-byte header alone, and
// every proper prefix of that frame is refused.
func TestEmptyWire(t *testing.T) {
	data, err := Encode(&Empty{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{WireMagic, wireTagEmpty, 1}) {
		t.Fatalf("Empty encodes as %#v", data)
	}
	if err := Decode(data, &Empty{}); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := Decode(data[:cut], &Empty{}); !errors.Is(err, ErrWire) {
			t.Errorf("%d of %d bytes: got %v, want ErrWire", cut, len(data), err)
		}
	}
}

func TestDecodeRejectsBadHeader(t *testing.T) {
	good, err := Encode(&testMsg{Name: "x", Peers: []string{"p"}})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"short frame":     good[:2],
		"wrong magic":     mutate(func(b []byte) { b[0] = 0x03 }),
		"wrong tag":       mutate(func(b []byte) { b[1] = 0x7D }),
		"version zero":    mutate(func(b []byte) { b[2] = 0 }),
		"older version":   mutate(func(b []byte) { b[2] = 1 }),
		"future version":  mutate(func(b []byte) { b[2] = 3 }),
		"trailing bytes":  append(bytes.Clone(good), 0),
		"truncated body":  good[:len(good)-2],
		"truncated field": good[:4],
	}
	for name, data := range cases {
		var out testMsg
		if err := Decode(data, &out); !errors.Is(err, ErrWire) {
			t.Errorf("%s: got %v, want ErrWire", name, err)
		}
	}
}

func TestWireReaderStopsAtFirstError(t *testing.T) {
	r := NewWireReader([]byte{0x05, 'a'}) // claims 5 bytes, has 1
	if s := r.String(); s != "" {
		t.Fatalf("got %q after truncation, want empty", s)
	}
	if r.Err() == nil {
		t.Fatal("expected recorded error")
	}
	// Everything after the first failure reads as zero without panicking.
	if r.Uvarint() != 0 || r.Bool() || r.Bytes() != nil || r.Strings() != nil {
		t.Fatal("reads after failure must return zero values")
	}
}

func TestWireReaderBoundsStringListCount(t *testing.T) {
	// Count claims 2^60 elements; Strings must reject it without allocating.
	body := AppendUvarint(nil, 1<<60)
	r := NewWireReader(body)
	if out := r.Strings(); out != nil || r.Err() == nil {
		t.Fatalf("huge count must fail: out=%v err=%v", out, r.Err())
	}
}

func TestDecodedBytesDoNotAliasInput(t *testing.T) {
	in := &testMsg{Blob: []byte("payload-bytes"), Name: "alias-check"}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out testMsg
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA // transport recycles its frame buffer
	}
	if string(out.Blob) != "payload-bytes" || out.Name != "alias-check" {
		t.Fatalf("decoded fields alias the input buffer: %+v", out)
	}
}
