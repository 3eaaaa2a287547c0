package netram

// Regression tests for two bugs on the recovery/audit path:
//
//  1. Fetch and Verify used to cast the transfer length to uint32 in a
//     single Read, silently truncating regions of 4 GiB and beyond (and
//     exceeding the wire frame limit long before that). Both now split
//     transfers at the client's read chunk; these tests drive the
//     splitting with a tiny chunk so no gigabyte allocations are needed.
//  2. Connect used to return early when a mirror disagreed on a region's
//     size, leaking the segment references already taken on the mirrors
//     that had answered.
//  3. A read that fit in one chunk skipped the reply-length check, so a
//     short reply installed a truncated image with no error.

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// countingReads wraps a transport and counts Read calls, optionally
// failing every read after the first failAfter calls, or answering
// every non-empty read one byte short while short is set.
type countingReads struct {
	transport.Transport
	reads     atomic.Int64
	failAfter int64 // 0 = never fail
	short     atomic.Bool
}

func (c *countingReads) Read(seg uint32, offset uint64, n uint32) ([]byte, error) {
	calls := c.reads.Add(1)
	if c.failAfter > 0 && calls > c.failAfter {
		return nil, errors.New("injected read failure")
	}
	data, err := c.Transport.Read(seg, offset, n)
	if err == nil && len(data) > 0 && c.short.Load() {
		data = data[:len(data)-1]
	}
	return data, err
}

// newCountingRig builds a client over nMirrors in-process nodes whose
// transports count reads.
func newCountingRig(t *testing.T, nMirrors int, opts ...Option) (*Client, []*memserver.Server, []*countingReads) {
	t.Helper()
	clock := simclock.NewSim()
	var mirrors []Mirror
	var servers []*memserver.Server
	var counters []*countingReads
	for i := 0; i < nMirrors; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		cr := &countingReads{Transport: tr}
		mirrors = append(mirrors, Mirror{Name: srv.Label(), T: cr})
		servers = append(servers, srv)
		counters = append(counters, cr)
	}
	c, err := NewClient(mirrors, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, servers, counters
}

func TestFetchChunked(t *testing.T) {
	client, _, counters := newCountingRig(t, 1, WithReadChunk(8))
	reg, err := client.Malloc("db", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reg.Local {
		reg.Local[i] = byte(i * 7)
	}
	if err := client.PushAll(reg); err != nil {
		t.Fatal(err)
	}

	counters[0].reads.Store(0)
	got, err := client.Fetch(reg, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reg.Local) {
		t.Fatal("chunked fetch returned wrong bytes")
	}
	// 100 bytes at 8 per read = 13 reads (12 full + 1 tail of 4).
	if n := counters[0].reads.Load(); n != 13 {
		t.Errorf("fetch issued %d reads, want 13 chunks", n)
	}

	// A fetch within one chunk stays a single read.
	counters[0].reads.Store(0)
	if _, err := client.Fetch(reg, 10, 5); err != nil {
		t.Fatal(err)
	}
	if n := counters[0].reads.Load(); n != 1 {
		t.Errorf("small fetch issued %d reads, want 1", n)
	}

	st := client.Stats()
	if st.Fetches != 2 || st.FetchedBytes != 105 {
		t.Errorf("stats = %+v, want 2 fetches / 105 bytes", st)
	}
}

func TestFetchChunkedFailsOverWholeMirror(t *testing.T) {
	client, _, counters := newCountingRig(t, 2, WithReadChunk(8))
	reg, err := client.Malloc("db", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reg.Local {
		reg.Local[i] = byte(i)
	}
	if err := client.PushAll(reg); err != nil {
		t.Fatal(err)
	}

	// Mirror 0 dies after 3 chunk reads; the fetch must restart on
	// mirror 1 from the beginning — never stitching two nodes' bytes.
	counters[0].reads.Store(0)
	counters[0].failAfter = 3
	got, err := client.Fetch(reg, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reg.Local) {
		t.Fatal("failover fetch returned wrong bytes")
	}
	if n := counters[1].reads.Load(); n != 8 {
		t.Errorf("mirror 1 served %d reads, want all 8 chunks", n)
	}
}

// TestShortReadFailsOver: a mirror whose replies come back one byte
// short must count as a failed read on both the single-chunk fast path
// and the multi-chunk loop. Fetch and the striped fetch fall over to the
// healthy mirror; FetchMirror, which cannot fall over, reports an error.
func TestShortReadFailsOver(t *testing.T) {
	for _, chunk := range []uint64{0, 8} {
		var opts []Option
		if chunk > 0 {
			opts = append(opts, WithReadChunk(chunk))
		}
		client, _, counters := newCountingRig(t, 2, opts...)
		reg, err := client.Malloc("db", 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reg.Local {
			reg.Local[i] = byte(i + 1)
		}
		if err := client.PushAll(reg); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), reg.Local...)
		counters[0].short.Store(true)

		got, err := client.Fetch(reg, 0, 64)
		if err != nil {
			t.Fatalf("chunk %d: fetch: %v", chunk, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: fetch accepted a short reply: got %d bytes", chunk, len(got))
		}
		clear(reg.Local)
		if err := client.FetchIntoStriped(reg, 2); err != nil {
			t.Fatalf("chunk %d: striped fetch: %v", chunk, err)
		}
		if !bytes.Equal(reg.Local, want) {
			t.Fatalf("chunk %d: striped fetch installed a short reply", chunk)
		}
		if _, err := client.FetchMirror(0, reg, 0, 64); err == nil {
			t.Fatalf("chunk %d: FetchMirror accepted a short reply", chunk)
		}
		if got, err := client.FetchMirror(1, reg, 0, 64); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: FetchMirror from the healthy mirror: %v", chunk, err)
		}
	}
}

func TestVerifyChunked(t *testing.T) {
	client, servers, counters := newCountingRig(t, 1, WithReadChunk(8))
	reg, err := client.Malloc("db", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reg.Local {
		reg.Local[i] = byte(i)
	}
	if err := client.PushAll(reg); err != nil {
		t.Fatal(err)
	}

	counters[0].reads.Store(0)
	mm, err := client.Verify(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mm) != 0 {
		t.Fatalf("clean region reports mismatches: %v", mm)
	}
	if n := counters[0].reads.Load(); n != 13 {
		t.Errorf("verify issued %d reads, want 13 chunks", n)
	}

	// Corrupt one byte on the mirror, beyond the first chunk: the
	// mismatch offset must be exact even though the audit is chunked.
	if err := servers[0].Write(reg.Handle(0).ID, 77, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	mm, err = client.Verify(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mm) != 1 || mm[0].Offset != 77 {
		t.Fatalf("mismatches = %+v, want one at offset 77", mm)
	}
}

func TestConnectSizeMismatchReleasesHandles(t *testing.T) {
	// Plain rig: the transports must expose Disconnector for the
	// release path (a wrapper embedding the Transport interface would
	// mask it).
	rg := newRig(t, 2)
	client, servers := rg.client, rg.servers
	// The mirrors disagree on the region's size — the client process
	// that crashed mid-resize left them inconsistent.
	if _, err := servers[0].Malloc("db", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := servers[1].Malloc("db", 128); err != nil {
		t.Fatal(err)
	}

	if _, err := client.Connect("db"); err == nil {
		t.Fatal("Connect should fail on a size disagreement")
	}

	// The failed Connect must leave no stray references behind: every
	// segment on every mirror shows zero connections.
	for i, srv := range servers {
		for _, info := range srv.List() {
			if info.Conns != 0 {
				t.Errorf("mirror %d segment %q leaked %d reference(s) after failed Connect",
					i, info.Name, info.Conns)
			}
		}
	}
}
