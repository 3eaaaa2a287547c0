package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		req  Request
	}{
		{"malloc", Request{Op: OpMalloc, Size: 1 << 20, Name: "db.accounts"}},
		{"free", Request{Op: OpFree, Seg: 7}},
		{"write", Request{Op: OpWrite, Seg: 3, Offset: 4096, Data: []byte{1, 2, 3, 4}}},
		{"write empty", Request{Op: OpWrite, Seg: 3, Offset: 0}},
		{"read", Request{Op: OpRead, Seg: 9, Offset: 128, Length: 64}},
		{"connect", Request{Op: OpConnect, Name: "perseas.meta"}},
		{"list", Request{Op: OpList}},
		{"ping", Request{Op: OpPing}},
		{"stats", Request{Op: OpStats}},
		{"batch", Request{Op: OpWriteBatch, Batch: []BatchEntry{
			{Seg: 1, Offset: 0, Data: []byte("aa")},
			{Seg: 2, Offset: 4096, Data: []byte("bbbb")},
		}}},
		{"tx begin", Request{Op: OpTxBegin, ID: 42}},
		{"tx setrange", Request{Op: OpTxSetRange, ID: 43, Tx: 7, Seg: 2, Offset: 128, Size: 64}},
		{"tx commit", Request{Op: OpTxCommit, ID: 44, Tx: 7, Batch: []BatchEntry{
			{Seg: 2, Offset: 128, Data: []byte("final bytes")},
		}}},
		{"tx abort", Request{Op: OpTxAbort, ID: 45, Tx: 7}},
		{"tx opendb", Request{Op: OpTxOpenDB, ID: 46, Name: "accounts"}},
		{"tx createdb", Request{Op: OpTxCreateDB, ID: 47, Name: "accounts", Size: 1 << 16}},
		{"tx read", Request{Op: OpTxRead, ID: 48, Seg: 2, Offset: 0, Length: 4096}},
		{"tx load", Request{Op: OpTxLoad, ID: 49, Seg: 2, Offset: 64, Data: []byte("init")}},
		{"tx stats", Request{Op: OpTxStats, ID: 50}},
		{"tx begin traced", Request{Op: OpTxBegin, ID: 51, TraceID: 9, TraceSpan: 2}},
		{"tx commit traced", Request{Op: OpTxCommit, ID: 52, Tx: 7, TraceID: 1<<62 | 5, TraceSpan: 1<<63 | 3, Batch: []BatchEntry{
			{Seg: 2, Offset: 128, Data: []byte("final bytes")},
		}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			body, err := EncodeRequest(&tt.req)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeRequest(body)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(*got, tt.req) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", *got, tt.req)
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		resp Response
	}{
		{"ok", Response{Status: StatusOK, Seg: 5, Size: 4096}},
		{"error", Response{Status: StatusError, Err: "no such segment"}},
		{"data", Response{Status: StatusOK, Data: []byte("hello")}},
		{"list", Response{Status: StatusOK, Segments: []SegmentInfo{
			{ID: 1, Size: 64, Name: "a"},
			{ID: 2, Size: 128, Name: "b"},
		}}},
		{"stats", Response{Status: StatusOK, Stats: ServerStats{
			Segments: 2, BytesHeld: 192, WriteOps: 10, ReadOps: 3,
			BytesWritten: 640, BytesRead: 64,
			Mallocs: 4, Frees: 2, Connects: 7, Disconnects: 5, BatchOps: 3,
		}}},
		{"list-with-conns", Response{Status: StatusOK, Segments: []SegmentInfo{
			{ID: 1, Size: 64, Name: "a", Conns: 2},
			{ID: 2, Size: 128, Name: "b", Conns: 0},
		}}},
		{"tx ok", Response{Status: StatusOK, ID: 42, Tx: 7}},
		{"tx conflict", Response{Status: StatusError, ID: 43, Code: TxConflict, Err: "range held"}},
		{"tx busy", Response{Status: StatusError, ID: 44, Code: TxBusy, Err: "server saturated"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			body, err := EncodeResponse(&tt.resp)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeResponse(body)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(*got, tt.resp) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", *got, tt.resp)
			}
		})
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(op uint8, seg uint32, off uint64, length uint32, size uint64, name string, data []byte) bool {
		if len(name) > MaxName {
			name = name[:MaxName]
		}
		req := Request{
			Op: Op(op), Seg: seg, Offset: off, Length: length, Size: size,
			Name: name, Data: data,
		}
		body, err := EncodeRequest(&req)
		if err != nil {
			return false
		}
		got, err := DecodeRequest(body)
		if err != nil {
			return false
		}
		if len(data) == 0 {
			// Decoder normalises empty data to nil.
			return got.Op == req.Op && got.Seg == req.Seg && got.Offset == req.Offset &&
				got.Length == req.Length && got.Size == req.Size && got.Name == req.Name &&
				len(got.Data) == 0
		}
		return reflect.DeepEqual(*got, req)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRequestTruncated(t *testing.T) {
	req := Request{Op: OpWrite, Seg: 1, Offset: 10, Data: []byte("payload")}
	body, err := EncodeRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeRequest(body[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes should fail", cut, len(body))
		}
	}
}

func TestDecodeResponseTruncated(t *testing.T) {
	resp := Response{Status: StatusOK, Segments: []SegmentInfo{{ID: 1, Size: 2, Name: "x"}}}
	body, err := EncodeResponse(&resp)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeResponse(body[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes should fail", cut, len(body))
		}
	}
}

func TestDecodeResponseCorruptSegmentCount(t *testing.T) {
	resp := Response{Status: StatusOK, Segments: []SegmentInfo{{ID: 1, Size: 2, Name: "x"}}}
	body, err := EncodeResponse(&resp)
	if err != nil {
		t.Fatal(err)
	}
	// With Segments the only field set, the segment count sits right
	// after status(1)+mask(2) = byte 3.
	if mask := binary.BigEndian.Uint16(body[1:3]); mask != rSegments {
		t.Fatalf("mask = %#04x, want only the Segments bit", mask)
	}
	if n := binary.BigEndian.Uint32(body[3:7]); n != 1 {
		t.Fatalf("segment count at byte 3 = %d, want 1", n)
	}
	body[3] = 0xff
	body[4] = 0xff
	if _, err := DecodeResponse(body); !errors.Is(err, ErrTruncated) {
		t.Errorf("corrupt segment count: got %v, want ErrTruncated", err)
	}
}

func TestDecodeRejectsUnknownMaskBits(t *testing.T) {
	req, err := EncodeRequest(&Request{Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := EncodeResponse(&Response{Status: StatusOK})
	if err != nil {
		t.Fatal(err)
	}
	for bit := uint16(1); bit != 0; bit <<= 1 {
		if bit&reqFields == 0 {
			binary.BigEndian.PutUint16(req[1:3], bit)
			if _, err := DecodeRequest(req); !errors.Is(err, ErrUnknownFields) {
				t.Errorf("request mask bit %#04x: got %v, want ErrUnknownFields", bit, err)
			}
		}
		if bit&respFields == 0 {
			binary.BigEndian.PutUint16(resp[1:3], bit)
			if _, err := DecodeResponse(resp); !errors.Is(err, ErrUnknownFields) {
				t.Errorf("response mask bit %#04x: got %v, want ErrUnknownFields", bit, err)
			}
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	for _, req := range opShapes() {
		body, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRequest(append(body, 0)); !errors.Is(err, ErrTrailingBytes) {
			t.Errorf("%v request + 1 byte: got %v, want ErrTrailingBytes", req.Op, err)
		}
	}
	for _, resp := range respShapes() {
		body, err := EncodeResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResponse(append(body, 0)); !errors.Is(err, ErrTrailingBytes) {
			t.Errorf("response %+v + 1 byte: got %v, want ErrTrailingBytes", resp, err)
		}
	}
}

// TestDecodeAliasesBody pins zero-copy decoding: payloads are capped
// sub-slices of the frame body, not copies of it.
func TestDecodeAliasesBody(t *testing.T) {
	body, err := EncodeRequest(&Request{Op: OpTxCommit, ID: 1, Tx: 2, Batch: []BatchEntry{
		{Seg: 1, Data: []byte("ab")}, {Seg: 2, Data: []byte("cd")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	first := req.Batch[0].Data
	if cap(first) != len(first) {
		t.Errorf("batch data cap %d, want %d: appending would clobber the next field", cap(first), len(first))
	}
	first[0] = 'X'
	if !bytes.Contains(body, []byte("Xb")) {
		t.Error("batch data does not alias the frame body")
	}

	rbody, err := EncodeResponse(&Response{Status: StatusOK, ID: 3, Data: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(rbody)
	if err != nil {
		t.Fatal(err)
	}
	resp.Data[0] = 'P'
	if !bytes.Contains(rbody, []byte("Payload")) {
		t.Error("response data does not alias the frame body")
	}
}

func TestNameTooLong(t *testing.T) {
	long := strings.Repeat("x", MaxName+1)
	if _, err := EncodeRequest(&Request{Op: OpMalloc, Name: long}); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("encode long name: got %v, want ErrNameTooLong", err)
	}
	if _, err := EncodeResponse(&Response{
		Status:   StatusOK,
		Segments: []SegmentInfo{{Name: long}},
	}); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("encode long segment name: got %v, want ErrNameTooLong", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{{}, {1}, []byte("hello world"), bytes.Repeat([]byte{0xab}, 1<<16)}
	for _, b := range bodies {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, want := range bodies {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d mismatch: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("drained stream: got %v, want EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("write oversized: got %v, want ErrFrameTooLarge", err)
	}
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("read oversized: got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameShortBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Error("short body should fail")
	}
}

func TestSendRecvRequestResponse(t *testing.T) {
	var buf bytes.Buffer
	req := Request{Op: OpWrite, Seg: 2, Offset: 64, Data: []byte("abc")}
	if err := SendRequest(&buf, &req); err != nil {
		t.Fatal(err)
	}
	gotReq, err := RecvRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*gotReq, req) {
		t.Errorf("request mismatch: %+v vs %+v", *gotReq, req)
	}

	resp := Response{Status: StatusOK, Seg: 2}
	if err := SendResponse(&buf, &resp); err != nil {
		t.Fatal(err)
	}
	gotResp, err := RecvResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*gotResp, resp) {
		t.Errorf("response mismatch: %+v vs %+v", *gotResp, resp)
	}
}

func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	// Decoders face bytes from the network; arbitrary input must yield
	// an error or a value, never a panic or out-of-range access.
	f := func(body []byte) bool {
		_, _ = DecodeRequest(body)
		_, _ = DecodeResponse(body)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Adversarial shapes: giant length prefixes everywhere.
	evil := make([]byte, 64)
	for i := range evil {
		evil[i] = 0xFF
	}
	if _, err := DecodeRequest(evil); err == nil {
		t.Error("all-0xFF request decoded")
	}
	if _, err := DecodeResponse(evil); err == nil {
		t.Error("all-0xFF response decoded")
	}
}

func TestReadFrameArbitraryHeader(t *testing.T) {
	f := func(hdr [4]byte, body []byte) bool {
		stream := append(hdr[:], body...)
		_, _ = ReadFrame(bytes.NewReader(stream))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpMalloc: "MALLOC", OpFree: "FREE", OpWrite: "WRITE", OpRead: "READ",
		OpConnect: "CONNECT", OpList: "LIST", OpPing: "PING", OpStats: "STATS",
		OpTxBegin: "TX-BEGIN", OpTxSetRange: "TX-SETRANGE", OpTxCommit: "TX-COMMIT",
		OpTxAbort: "TX-ABORT", OpTxOpenDB: "TX-OPENDB", OpTxCreateDB: "TX-CREATEDB",
		OpTxRead: "TX-READ", OpTxLoad: "TX-LOAD", OpTxInitDB: "TX-INITDB",
		OpTxStats: "TX-STATS", OpTxCrash: "TX-CRASH", OpTxRecover: "TX-RECOVER",
		Op(99): "OP(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", uint8(op), got, want)
		}
	}
}

func TestTxCodeString(t *testing.T) {
	for code, want := range map[TxCode]string{
		TxOK: "OK", TxError: "ERROR", TxBusy: "BUSY", TxConflict: "CONFLICT",
		TxNoTransaction: "NO-TRANSACTION", TxInTransaction: "IN-TRANSACTION",
		TxCrashed: "CRASHED", TxUnrecoverable: "UNRECOVERABLE",
		TxUnknownTx: "UNKNOWN-TX", TxUnknownDB: "UNKNOWN-DB",
		TxBadRequest: "BAD-REQUEST", TxCode(99): "CODE(99)",
	} {
		if got := code.String(); got != want {
			t.Errorf("TxCode(%d).String() = %q, want %q", uint8(code), got, want)
		}
	}
}

func TestTxStatsRoundTrip(t *testing.T) {
	s := TxStats{
		Conns: 3, ConnsTotal: 11, ConnsRejected: 2,
		TxsBegun: 100, TxsCommitted: 90, TxsAborted: 10, TxsInFlight: 4,
		BusyRejected: 7, MalformedFrames: 1,
		Convoys: 30, ConvoyCommits: 90, BatchP50: 2, BatchP99: 9, BatchMax: 12,
		DepthP50: 1, DepthP99: 5, DepthMax: 8,
	}
	got, err := DecodeTxStats(EncodeTxStats(&s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if *got != s {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", *got, s)
	}
	// Truncation at every cut must fail, never panic.
	blob := EncodeTxStats(&s)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeTxStats(blob[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes should fail", cut, len(blob))
		}
	}
}

// TestFrameSizes pins the exact encoded sizes of the hot-path shapes
// (a mirror write and its ack, and a remote transaction's Begin,
// SetRange and Commit with their replies) and the layout's invariant:
// a request's length does not depend on its numeric field values, since
// it always encodes its op's own fields, so zero and maximal values
// must match. Responses encode only non-zero fields; every id and
// handle a hot-path reply carries starts at 1, so 1 and maximal values
// must match.
func TestFrameSizes(t *testing.T) {
	data := func(n int) []byte { return bytes.Repeat([]byte{0xA5}, n) }
	requests := []struct {
		name string
		want int // body bytes, without the 4-byte length
		mk   func(v uint64) *Request
	}{
		// op(1) mask(2) seg(4) offset(8) data(4+64)
		{"mirror write 64B", 83, func(v uint64) *Request {
			return &Request{Op: OpWrite, Seg: uint32(v), Offset: v, Data: data(64)}
		}},
		// op(1) mask(2) id(8)
		{"tx begin", 11, func(v uint64) *Request { return &Request{Op: OpTxBegin, ID: v} }},
		// op(1) mask(2) seg(4) offset(8) size(8) id(8) tx(8)
		{"tx setrange", 39, func(v uint64) *Request {
			return &Request{Op: OpTxSetRange, ID: v, Tx: v, Seg: uint32(v), Offset: v, Size: v}
		}},
		// op(1) mask(2) batch(4 + seg 4 + offset 8 + data 4+8) id(8) tx(8)
		{"tx commit 8B", 47, func(v uint64) *Request {
			return &Request{Op: OpTxCommit, ID: v, Tx: v, Batch: []BatchEntry{{Seg: uint32(v), Offset: v, Data: data(8)}}}
		}},
	}
	for _, tt := range requests {
		for _, v := range []uint64{0, math.MaxUint64} {
			body, err := EncodeRequest(tt.mk(v))
			if err != nil {
				t.Fatalf("%s: %v", tt.name, err)
			}
			if len(body) != tt.want {
				t.Errorf("%s with fields = %#x: %d bytes, want %d", tt.name, v, len(body), tt.want)
			}
		}
		untraced := tt.mk(1)
		traced := *untraced
		traced.TraceID, traced.TraceSpan = 5, 9
		tbody, err := EncodeRequest(&traced)
		if err != nil {
			t.Fatalf("%s traced: %v", tt.name, err)
		}
		if len(tbody) != tt.want+16 {
			t.Errorf("%s traced: %d bytes, want untraced+16 = %d", tt.name, len(tbody), tt.want+16)
		}
		// A zero TraceID means untraced: the span id must not leak
		// through.
		binary.BigEndian.PutUint64(tbody[len(tbody)-16:], 0)
		got, err := DecodeRequest(tbody)
		if err != nil {
			t.Fatalf("%s zero trace id: %v", tt.name, err)
		}
		if got.TraceID != 0 || got.TraceSpan != 0 {
			t.Errorf("%s zero trace id decoded as %d/%d, want 0/0", tt.name, got.TraceID, got.TraceSpan)
		}
	}

	responses := []struct {
		name string
		want int
		mk   func(v uint64) *Response
	}{
		// status(1) mask(2)
		{"mirror write ack", 3, func(uint64) *Response { return &Response{Status: StatusOK} }},
		// status(1) mask(2) id(8) tx(8)
		{"tx begin reply", 19, func(v uint64) *Response { return &Response{Status: StatusOK, ID: v, Tx: v} }},
		// status(1) mask(2) data(4+8) id(8)
		{"tx setrange reply 8B", 23, func(v uint64) *Response {
			return &Response{Status: StatusOK, ID: v, Data: data(8)}
		}},
		// status(1) mask(2) id(8)
		{"tx commit reply", 11, func(v uint64) *Response { return &Response{Status: StatusOK, ID: v} }},
	}
	for _, tt := range responses {
		for _, v := range []uint64{1, math.MaxUint64} {
			body, err := EncodeResponse(tt.mk(v))
			if err != nil {
				t.Fatalf("%s: %v", tt.name, err)
			}
			if len(body) != tt.want {
				t.Errorf("%s with fields = %#x: %d bytes, want %d", tt.name, v, len(body), tt.want)
			}
		}
	}
}

// opShapes returns one request per op, each with the fields it carries.
func opShapes() []*Request {
	return []*Request{
		{Op: OpMalloc, Name: "db.accounts", Size: 1 << 20},
		{Op: OpFree, Seg: 7},
		{Op: OpWrite, Seg: 3, Offset: 4096, Data: []byte{1, 2, 3, 4}},
		{Op: OpRead, Seg: 9, Offset: 128, Length: 64},
		{Op: OpConnect, Name: "perseas.meta"},
		{Op: OpList},
		{Op: OpPing},
		{Op: OpStats},
		{Op: OpWriteBatch, Batch: []BatchEntry{{Seg: 1, Data: []byte("aa")}, {Seg: 2, Offset: 4096, Data: []byte("bbbb")}}},
		{Op: OpDisconnect, Seg: 4},
		{Op: OpTxBegin, ID: 1, TraceID: 9, TraceSpan: 2},
		{Op: OpTxSetRange, ID: 2, Tx: 9, Seg: 1, Offset: 64, Size: 32},
		{Op: OpTxCommit, ID: 3, Tx: 9, Batch: []BatchEntry{{Seg: 1, Offset: 64, Data: []byte("xy")}}},
		{Op: OpTxAbort, ID: 4, Tx: 9},
		{Op: OpTxOpenDB, ID: 5, Name: "db"},
		{Op: OpTxCreateDB, ID: 6, Name: "db", Size: 4096},
		{Op: OpTxRead, ID: 7, Seg: 1, Length: 128},
		{Op: OpTxLoad, ID: 8, Seg: 1, Data: []byte("seed")},
		{Op: OpTxInitDB, ID: 9, Seg: 1},
		{Op: OpTxStats, ID: 10},
		{Op: OpTxCrash, ID: 11, Size: 2},
		{Op: OpTxRecover, ID: 12},
		{Op: OpFill, Seg: 2, Offset: 8, Size: 512},
	}
}

// respShapes returns one response per reply shape the servers send.
func respShapes() []*Response {
	return []*Response{
		{Status: StatusOK},
		{Status: StatusOK, Seg: 5, Size: 4096},
		{Status: StatusOK, Data: []byte("hello")},
		{Status: StatusError, Err: "no such segment"},
		{Status: StatusOK, Segments: []SegmentInfo{{ID: 1, Size: 64, Name: "a", Conns: 2}, {ID: 2, Size: 128, Name: "b"}}},
		{Status: StatusOK, Stats: ServerStats{Segments: 2, BytesHeld: 192, WriteOps: 10, BatchOps: 3}},
		{Status: StatusOK, ID: 42, Tx: 7},
		{Status: StatusOK, ID: 43, Data: []byte("range bytes")},
		{Status: StatusOK, ID: 44, Seg: 1, Size: 1 << 16},
		{Status: StatusOK, ID: 45, Data: EncodeTxStats(&TxStats{Conns: 3})},
		{Status: StatusError, ID: 46, Code: TxBusy, Err: "server saturated"},
		{Status: StatusError, Code: TxBadRequest, Err: "malformed frame"},
	}
}

// normRequest returns a copy of req with empty slices set to nil, the
// form the decoder produces.
func normRequest(req *Request) Request {
	n := *req
	if len(n.Data) == 0 {
		n.Data = nil
	}
	if len(n.Batch) == 0 {
		n.Batch = nil
	} else {
		n.Batch = append([]BatchEntry(nil), n.Batch...)
		for i := range n.Batch {
			if len(n.Batch[i].Data) == 0 {
				n.Batch[i].Data = nil
			}
		}
	}
	return n
}

// normResponse is normRequest's response-side twin.
func normResponse(resp *Response) Response {
	n := *resp
	if len(n.Data) == 0 {
		n.Data = nil
	}
	if len(n.Segments) == 0 {
		n.Segments = nil
	}
	return n
}
