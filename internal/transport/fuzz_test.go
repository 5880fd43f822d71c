package transport

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/metrics"
)

// readMuxFrames cuts r into frame bodies through the connection read path
// until it ends (nil error at a frame boundary) or breaks.
func readMuxFrames(r io.Reader) (bodies [][]byte, err error) {
	br := newMuxReader(r, new(metrics.Counter))
	for {
		body, err := readMuxFrame(br)
		if err == io.EOF {
			return bodies, nil
		}
		if err != nil {
			return bodies, err
		}
		bodies = append(bodies, body)
	}
}

// FuzzMuxFrameDecode hardens the mux transport's frame body codecs: parsing
// arbitrary bytes as a request or reply frame must never panic or
// over-read, torn frames must be rejected (no half-filled requests reach a
// handler), and every accepted frame must survive a decode -> re-encode ->
// decode round trip unchanged. The same bytes are also read as a stream of
// length-prefixed frames through the connection read path, which must cut
// it into the same frames however the bytes arrive. Seed cases, including
// truncations and trailing garbage, are checked in under
// testdata/fuzz/FuzzMuxFrameDecode.
func FuzzMuxFrameDecode(f *testing.F) {
	reqBody := appendMuxRequest(nil, 7, 30000, Request{
		From: "alpha", To: "beta", Service: "object", Method: "Invoke", Payload: []byte{1, 2, 3},
	})
	repOK := appendMuxReply(nil, 7, []byte("result"), "", false)
	repErr := appendMuxReply(nil, 8, nil, "conflict: object pinned", true)
	f.Add(reqBody)
	f.Add(repOK)
	f.Add(repErr)
	f.Add(reqBody[:len(reqBody)/2])                          // torn mid-body
	f.Add(append(repOK[:len(repOK):len(repOK)], 0xde, 0xad)) // trailing garbage
	f.Add([]byte{})
	f.Add([]byte{0x07, 0x05})
	stream, _ := muxTestStream([]byte{1, 2, 3}, nil, []byte("third"))
	f.Add(stream)                 // several frames back to back
	f.Add(stream[:len(stream)-2]) // the last one torn

	f.Fuzz(func(t *testing.T, raw []byte) {
		whole, wholeErr := readMuxFrames(bytes.NewReader(raw))
		bytewise, bytewiseErr := readMuxFrames(iotest.OneByteReader(bytes.NewReader(raw)))
		if !reflect.DeepEqual(whole, bytewise) || (wholeErr == nil) != (bytewiseErr == nil) {
			t.Fatalf("stream cut into %d frames (err %v) read whole, %d (err %v) a byte at a time", len(whole), wholeErr, len(bytewise), bytewiseErr)
		}
		if id, dl, req, err := parseMuxRequest(raw, nil); err == nil {
			re := appendMuxRequest(nil, id, dl, req)
			id2, dl2, req2, err2 := parseMuxRequest(re, nil)
			if err2 != nil {
				t.Fatalf("re-encoded request undecodable: %v", err2)
			}
			if id2 != id || dl2 != dl || !reflect.DeepEqual(req, req2) {
				t.Fatalf("request round trip changed content: (%d, %d, %+v) -> (%d, %d, %+v)", id, dl, req, id2, dl2, req2)
			}
		}
		if id, res, err := parseMuxReply(raw); err == nil {
			re := appendMuxReply(nil, id, res.payload, res.errMsg, res.hasErr)
			id2, res2, err2 := parseMuxReply(re)
			if err2 != nil {
				t.Fatalf("re-encoded reply undecodable: %v", err2)
			}
			if id2 != id || !reflect.DeepEqual(res, res2) {
				t.Fatalf("reply round trip changed content: (%d, %+v) -> (%d, %+v)", id, res, id2, res2)
			}
		}
	})
}
