package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeRequest exercises the request decoder with arbitrary bytes;
// it must never panic and every successfully decoded request must
// re-encode to a frame that decodes to the same value.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	for _, req := range opShapes() {
		s, err := EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(body)
		if err != nil {
			return
		}
		out, err := EncodeRequest(req)
		if err != nil {
			// The decoder enforces every encoder limit (MaxName), so a
			// decoded request always re-encodes.
			t.Fatalf("decoded request failed to re-encode: %v", err)
		}
		again, err := DecodeRequest(out)
		if err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if !reflect.DeepEqual(normRequest(again), normRequest(req)) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, req)
		}
	})
}

// FuzzDecodeResponse is the response-side twin.
func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, 64))
	for _, resp := range respShapes() {
		s, err := EncodeResponse(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := DecodeResponse(body)
		if err != nil {
			return
		}
		out, err := EncodeResponse(resp)
		if err != nil {
			// Segment names are bounded by MaxName on decode too.
			t.Fatalf("decoded response failed to re-encode: %v", err)
		}
		again, err := DecodeResponse(out)
		if err != nil {
			t.Fatalf("re-encoded response failed to decode: %v", err)
		}
		if !reflect.DeepEqual(normResponse(again), normResponse(resp)) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, resp)
		}
	})
}

// FuzzDecodeTxStats exercises the stats-blob decoder: arbitrary bytes
// must yield a value or an error, never a panic, and every decoded
// value must round-trip.
func FuzzDecodeTxStats(f *testing.F) {
	f.Add(EncodeTxStats(&TxStats{Conns: 2, Convoys: 9, BatchMax: 4}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x7F}, 200))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := DecodeTxStats(body)
		if err != nil {
			return
		}
		again, err := DecodeTxStats(EncodeTxStats(s))
		if err != nil {
			t.Fatalf("re-encoded stats failed to decode: %v", err)
		}
		if *again != *s {
			t.Fatalf("round trip diverged: %+v vs %+v", again, s)
		}
	})
}
