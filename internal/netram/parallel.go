// Parallel recovery support: the operations core's crash recovery uses
// to make its wall-clock cost scale with mirrors and regions instead of
// summing over them.
//
// ConnectMany reconnects several named regions concurrently while
// keeping the client's region list in input order, so recovery built at
// any parallelism installs regions deterministically. FetchIntoStriped
// splits a region into read-chunk pieces and stripes them round-robin
// across the mirrors holding the segment, aggregating NIC bandwidth the
// way the paper's recovery argument assumes a network of workstations
// can. ZeroRangeAcked clears a remote range without shipping a payload
// of zeroes — the transport does the zeroing server-side when it can.
package netram

import (
	"fmt"

	"github.com/ics-forth/perseas/internal/par"
	"github.com/ics-forth/perseas/internal/transport"
)

// ConnectMany re-maps the named regions after a crash, connecting up to
// workers names concurrently through the par.Run pool. The successfully
// connected prefix of names is appended to the client's region list in
// input order — exactly the order a serial Connect loop would have
// produced — and returned; the error that stopped the prefix (nil if
// every name connected) rides along. Connections past the first failure
// are released, so a missing name mid-list leaves nothing attached.
//
// With workers <= 1 the pool runs inline: names connect serially on the
// caller's goroutine, still under a single topology lock acquisition,
// and nothing past the first missing name is probed.
func (c *Client) ConnectMany(names []string, workers int) ([]*Region, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	regs := make([]*Region, len(names))
	errs := make([]error, len(names))
	_ = par.Run(workers, len(names), func(i int) error {
		regs[i], errs[i] = c.connectRegion(names[i])
		return errs[i]
	})
	n := len(names)
	var stop error
	for i, err := range errs {
		if err != nil {
			n, stop = i, err
			break
		}
	}
	for i := n; i < len(names); i++ {
		if regs[i] != nil {
			c.releaseHandles(regs[i], len(c.mirrors))
			regs[i] = nil
		}
	}
	c.regions = append(c.regions, regs[:n]...)
	return regs[:n:n], stop
}

// FetchIntoStriped restores r.Local in full, striping read-chunk pieces
// round-robin across every mirror holding the segment so the transfer
// rides the aggregate bandwidth of the surviving nodes; up to workers
// chunks are in flight through the par.Run pool. Each chunk falls over
// to the remaining mirrors individually before failing the fetch. Safe
// during recovery for the same reason FetchInto is: any byte on which
// replicas may still disagree belongs to a head transaction of some
// undo slot, and recovery rolls back or repairs exactly those ranges
// after the fetch.
//
// With workers <= 1 it is FetchInto(r, 0, r.Size()) verbatim.
func (c *Client) FetchIntoStriped(r *Region, workers int) error {
	if workers <= 1 {
		return c.FetchInto(r, 0, r.Size())
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	start := c.clock.Now()
	var eligible []int
	for i := range c.mirrors {
		if r.handles[i].ID != 0 {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return fmt.Errorf("netram: striped fetch %q: %w", r.Name, ErrAllMirrorsDown)
	}
	size := r.Size()
	nChunks := int((size + c.readChunk - 1) / c.readChunk)
	if err := par.Run(workers, nChunks, func(ci int) error {
		off := uint64(ci) * c.readChunk
		return c.fetchChunkStriped(r, eligible, ci, off, min(size-off, c.readChunk))
	}); err != nil {
		return err
	}
	c.metrics.FetchLatency.ObserveDuration(c.clock.Now() - start)
	return nil
}

// fetchChunkStriped reads one chunk into r.Local[off:off+n] from the
// chunk's round-robin mirror, trying the other eligible mirrors on
// failure. Chunks are disjoint, so concurrent callers never overlap in
// the local buffer.
func (c *Client) fetchChunkStriped(r *Region, eligible []int, ci int, off, n uint64) error {
	var lastErr error
	for a := 0; a < len(eligible); a++ {
		mi := eligible[(ci+a)%len(eligible)]
		m := c.mirrors[mi]
		data, err := c.readChunked(m, r.handles[mi].ID, off, n)
		if err != nil {
			lastErr = fmt.Errorf("netram: fetch from mirror %s: %w", m.Name, err)
			continue
		}
		copy(r.Local[off:off+n], data)
		c.metrics.Fetches.Inc()
		c.metrics.FetchedBytes.Add(n)
		return nil
	}
	return fmt.Errorf("netram: striped fetch %q chunk at %d: %w (last: %v)",
		r.Name, off, ErrAllMirrorsDown, lastErr)
}

// ZeroRangeAcked zeroes r[offset:offset+n] on every live mirror holding
// the segment, joined on all of them (the PushOpts.AllAck contract) and
// under a push's outcome rule: every eligible mirror is attempted, a
// mirror whose ping fails too is degraded and skipped, the lowest-slot
// error from a mirror that still answers pings surfaces, and no cleared
// mirror at all is ErrAllMirrorsDown. Mirrors whose transport can fill
// server-side pay one small request regardless of n; the rest receive
// chunked writes of zeroes. It runs beside fanout rather than through
// it because a fill carries no payload, which a push job (spans over a
// payload) cannot express, and it runs once per recovery, so inline
// dispatch costs nothing. The caller's local bytes for the range must
// already be zero — recovery's republish satisfies this because a
// freshly connected region starts zeroed and only the fetched prefix is
// ever copied in.
func (c *Client) ZeroRangeAcked(r *Region, offset, n uint64) error {
	if err := r.checkRange(offset, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	var (
		zeroes []byte
		span   = make([]wireSpan, 1)
		failed error
		acks   int
	)
	for i, m := range c.mirrors {
		if r.handles[i].ID == 0 || c.isDown(i) {
			continue
		}
		var err error
		if f, ok := m.T.(transport.Filler); ok {
			if err = f.Fill(r.handles[i].ID, offset, n); err != nil && m.T.Ping() != nil {
				c.markDown(i)
			}
		} else {
			if zeroes == nil {
				zeroes = make([]byte, min(n, c.readChunk))
			}
			for done := uint64(0); done < n && err == nil; {
				step := min(n-done, uint64(len(zeroes)))
				span[0] = wireSpan{lo: offset + done, hi: offset + done + step}
				if _, err = c.writeWithRetry(m, i, r.handles[i].ID, span, zeroes, nil); err == nil {
					c.metrics.WireBytes.Add(step)
					done += step
				}
			}
		}
		switch {
		case err == nil:
			acks++
			c.metrics.Pushes.Inc()
		case failed == nil && !c.isDown(i):
			failed = fmt.Errorf("netram: zero %q on mirror %s: %w", r.Name, m.Name, err)
		}
	}
	switch {
	case failed != nil:
		return failed
	case acks == 0:
		return fmt.Errorf("netram: zero %q: %w", r.Name, ErrAllMirrorsDown)
	}
	return nil
}
