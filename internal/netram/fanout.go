// Parallel replication fan-out: Push and PushMany dispatch each
// mirror's write to a long-lived per-mirror sender worker and join on a
// completion latch, so the wall-clock cost of a commit over real
// transports is the slowest mirror, not the sum of all of them — the
// posted-write behaviour the paper gets for free from SCI
// store-gathering. Retry and degradation classification run inside the
// worker, so a flapping mirror's retry never delays a healthy one.
//
// On the simulated SCI clock nothing changes: SimClock.Advance is
// additive and commutative, so the total virtual time charged by N
// workers equals the sequential sum, and the dispatcher samples the
// clock only before dispatch and after the join — reproduced figures
// stay byte-identical.
package netram

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ics-forth/perseas/internal/flight"
	"github.com/ics-forth/perseas/internal/trace"
	"github.com/ics-forth/perseas/internal/transport"
)

// catchUpQueueLen bounds each mirror's sender channel on quorum
// clients: it is the per-mirror pending catch-up queue. A mirror that
// falls further behind than this is degraded (and its queued writes
// dropped), handing it to the guardian's revive/rebuild path rather
// than letting unbounded lag accumulate.
const catchUpQueueLen = 64

// errQuorumMirrorDown marks a queued quorum write dropped because its
// mirror was degraded before the write ran. Dropping instead of writing
// keeps a down mirror's state a strict prefix of the push order — the
// property recovery's max-commit-word selection relies on.
var errQuorumMirrorDown = errors.New("netram: mirror degraded before queued write ran")

// wireSpan is one expanded (alignment-applied) wire range.
type wireSpan struct {
	lo, hi uint64
}

// fanoutJob is one mirror's share of a parallel push. The dispatcher
// fills it under the topology read lock (so the Mirror value cannot be
// swapped mid-flight), the slot's worker executes it, and the
// dispatcher reads the results back after the join.
type fanoutJob struct {
	wg   *sync.WaitGroup
	m    Mirror
	slot int
	seg  uint32

	// Single-write form (spans == nil): push data at off.
	off  uint64
	data []byte
	// Batch form: push local[s.lo:s.hi] for every span. writes is the
	// job's persistent scratch for the transport.BatchWrite conversion.
	spans  []wireSpan
	local  []byte
	writes []transport.BatchWrite

	// call is set instead of wg on quorum dispatches: the worker retires
	// the job through finishQuorumJob rather than a latch Done.
	call *fanoutCall
	// wire is the job's wire byte count, accounted by the worker on
	// quorum dispatches (the dispatcher may be gone by then).
	wire uint64
	// done marks a quorum job finished; guarded by call.mu.
	done bool

	// Results, valid after wg.Done (all-ack) or done (quorum).
	start, end time.Duration
	retried    bool
	err        error
}

// fanoutCall is the pooled per-dispatch state: the latch, one job per
// mirror slot, and the scratch slices the serial paths use. Pooling it
// keeps the steady-state commit path allocation-free.
//
// Lifecycle: every call starts with one reference (the dispatcher's,
// dropped by releaseCall); a quorum dispatch adds one per job. The last
// reference to go — the dispatcher for synchronous pushes, the slowest
// straggler's worker otherwise — runs reclaimCall: dirty-range
// recording, the straggler gauge, then back to the pool. Recording
// dirty ranges only once all mirrors finished is what keeps the rebuild
// epochs honest in quorum mode: a range leaves the dirty set only after
// every survivor actually holds its bytes.
type fanoutCall struct {
	wg     sync.WaitGroup
	jobs   []fanoutJob
	spans  []wireSpan
	writes []transport.BatchWrite

	refs atomic.Int32

	// Quorum join state, guarded by mu; cond wakes the dispatcher as
	// acks and failures arrive. fenced counts the failures that are
	// errQuorumMirrorDown drops: writes never attempted because their
	// mirror was degraded first.
	mu             sync.Mutex
	cond           *sync.Cond
	acks, fails    int
	fenced         int
	firstErr       error
	firstName      string
	minEnd, maxEnd time.Duration

	// async marks a quorum dispatch (reclaim may happen off the
	// dispatcher goroutine). trackName/trackOff/trackLen/trackSpans
	// stash the wire ranges for reclaim-time dirty recording; trackName
	// empty means tracking was off at dispatch.
	async      bool
	trackName  string
	trackOff   uint64
	trackLen   uint64
	trackSpans []wireSpan
}

func (c *Client) getCall() *fanoutCall {
	call, _ := c.callPool.Get().(*fanoutCall)
	if call == nil {
		call = &fanoutCall{}
		call.cond = sync.NewCond(&call.mu)
	}
	if len(call.jobs) < len(c.mirrors) {
		call.jobs = make([]fanoutJob, len(c.mirrors))
	}
	call.refs.Store(1)
	return call
}

// releaseCall drops one call reference; the last one reclaims.
func (c *Client) releaseCall(call *fanoutCall) {
	if call.refs.Add(-1) == 0 {
		c.reclaimCall(call)
	}
}

// reclaimCall runs once per dispatch, after every job (and the
// dispatcher) is done with the call: records the pushed wire ranges in
// the rebuild's dirty set, refreshes the straggler gauge for quorum
// dispatches, and returns the call to the pool.
func (c *Client) reclaimCall(call *fanoutCall) {
	if call.trackName != "" {
		if call.trackSpans != nil {
			for _, s := range call.trackSpans {
				c.recordDirty(call.trackName, s.lo, s.hi-s.lo)
			}
		} else {
			c.recordDirty(call.trackName, call.trackOff, call.trackLen)
		}
	}
	if call.async {
		call.mu.Lock()
		acks, minEnd, maxEnd := call.acks, call.minEnd, call.maxEnd
		call.mu.Unlock()
		if acks > 1 {
			c.straggler.Store(uint64(maxEnd - minEnd))
		} else {
			c.straggler.Store(0)
		}
	}
	c.putCall(call)
}

func (c *Client) putCall(call *fanoutCall) {
	for i := range call.jobs {
		j := &call.jobs[i]
		j.data, j.local, j.spans = nil, nil, nil
		for k := range j.writes {
			j.writes[k] = transport.BatchWrite{}
		}
		j.err = nil
		j.call = nil
		j.done = false
		j.wire = 0
	}
	for k := range call.writes {
		call.writes[k] = transport.BatchWrite{}
	}
	call.spans = call.spans[:0]
	call.acks, call.fails, call.fenced = 0, 0, 0
	call.firstErr, call.firstName = nil, ""
	call.minEnd, call.maxEnd = 0, 0
	call.async = false
	call.trackName, call.trackOff, call.trackLen, call.trackSpans = "", 0, 0, nil
	c.callPool.Put(call)
}

// startWorkers spawns one sender goroutine per mirror slot. Called at
// most once, lazily, on the first dispatch that can actually go
// parallel — single-mirror clients never pay for the goroutines.
func (c *Client) startWorkers() {
	depth := 4
	if c.quorumW > 0 {
		// The channel doubles as the per-mirror pending catch-up queue:
		// stragglers park here until their turn, and a mirror that falls
		// catchUpQueueLen writes behind overflows and is degraded.
		depth = catchUpQueueLen
	}
	c.senders = make([]chan *fanoutJob, len(c.mirrors))
	for i := range c.senders {
		ch := make(chan *fanoutJob, depth)
		c.senders[i] = ch
		go c.sender(ch)
	}
}

// sender executes jobs for one mirror slot in arrival order; a single
// worker per slot is what preserves per-mirror write ordering. Quorum
// jobs whose mirror was degraded while they queued are dropped, not
// written: executing past the failure point would leave a gap in the
// mirror's write order, and recovery is only safe while every mirror
// holds a strict prefix of it.
func (c *Client) sender(ch chan *fanoutJob) {
	for j := range ch {
		if j.call != nil {
			if c.isDown(j.slot) {
				j.err = errQuorumMirrorDown
			} else {
				c.runJob(j)
			}
			c.finishQuorumJob(j)
			continue
		}
		c.runJob(j)
		j.wg.Done()
	}
}

// finishQuorumJob retires one quorum job on its worker: metrics and
// degradation, the join bookkeeping that may wake the dispatcher, the
// call reference, and finally the pending-catch-up accounting. The
// pending counter is incremented only after the call reference is
// released, so a drainer that observes the counters level also observes
// every reclaim-side effect (dirty records in particular) of the jobs
// it waited for.
func (c *Client) finishQuorumJob(j *fanoutJob) {
	call := j.call
	// After releaseCall the job may be recycled by the next dispatch;
	// nothing of *j may be read past that point.
	slot := j.slot
	if j.err == nil {
		c.metrics.MirrorPush[j.slot].ObserveDuration(j.end - j.start)
		c.metrics.WireBytes.Add(j.wire)
	} else {
		// A straggler that failed after the caller already committed has
		// nobody left to repair it: degrade the mirror so its (possibly
		// divergent) state is never read, and let the guardian revive or
		// rebuild it.
		c.markDown(j.slot)
	}
	call.mu.Lock()
	j.done = true
	if j.err != nil {
		call.fails++
		if j.err == errQuorumMirrorDown {
			call.fenced++
		}
		// Jobs finish out of order, so "first" is arrival order here —
		// the join only needs one representative failure.
		if call.firstErr == nil {
			call.firstErr = j.err
			call.firstName = j.m.Name
		}
	} else {
		if call.acks == 0 || j.end < call.minEnd {
			call.minEnd = j.end
		}
		if call.acks == 0 || j.end > call.maxEnd {
			call.maxEnd = j.end
		}
		call.acks++
	}
	call.cond.Broadcast()
	call.mu.Unlock()
	c.releaseCall(call)
	c.pendMu.Lock()
	c.pendDone[slot]++
	c.pendMu.Unlock()
	c.pendCond.Broadcast()
}

// runJob performs one mirror write (single or batch) with the standard
// retry-and-classify policy, timing it against the client clock.
func (c *Client) runJob(j *fanoutJob) {
	j.start = c.clock.Now()
	if j.spans == nil {
		j.retried, j.err = c.writeWithRetry(j.m, j.slot, j.seg, j.off, j.data)
	} else {
		j.retried, j.err = c.batchWithRetry(j.m, j.slot, j.seg, j.spans, j.local, &j.writes)
	}
	j.end = c.clock.Now()
}

// batchWithRetry pushes every span to one mirror — one batched exchange
// when the transport supports it — applying the same failure
// classification as writeWithRetry. The batch is atomic server-side, so
// a replay after a transient failure is idempotent.
func (c *Client) batchWithRetry(m Mirror, slot int, seg uint32, spans []wireSpan, local []byte, writes *[]transport.BatchWrite) (retried bool, err error) {
	attempt := func() error {
		if bw, ok := m.T.(transport.BatchWriter); ok {
			ws := (*writes)[:0]
			for _, s := range spans {
				ws = append(ws, transport.BatchWrite{Seg: seg, Offset: s.lo, Data: local[s.lo:s.hi]})
			}
			*writes = ws
			return bw.WriteBatch(ws)
		}
		for _, s := range spans {
			if err := m.T.Write(seg, s.lo, local[s.lo:s.hi]); err != nil {
				return err
			}
		}
		return nil
	}
	err = attempt()
	if err == nil {
		return false, nil
	}
	if pingErr := m.T.Ping(); pingErr != nil {
		c.markDown(slot)
		return false, err
	}
	c.metrics.Retries.Inc()
	c.flight.Record(flight.MirrorRetry, "netram", m.Name, uint64(slot))
	if err2 := attempt(); err2 != nil {
		// Surface the retry's error (the current failure mode), keeping
		// the first attempt's for context — see writeWithRetry.
		return true, fmt.Errorf("%w (first attempt: %v)", err2, err)
	}
	return true, nil
}

// pushMirrors propagates one wire payload (single range, or a span
// batch) to every eligible mirror and aggregates the outcome with the
// same semantics the sequential loop had: an error on a mirror that
// still answers pings surfaces to the caller (lowest slot wins, for
// determinism), a mirror whose ping fails too is degraded and skipped,
// and zero successful mirrors is ErrAllMirrorsDown.
//
// Caller holds topoMu.RLock for the whole call, which is what lets the
// jobs capture Mirror values and segment handles without copies being
// swapped underneath, and what orders recordDirty after the join.
func (c *Client) pushMirrors(r *Region, call *fanoutCall, off uint64, data []byte, spans []wireSpan, wireBytes uint64, tt *trace.TxTrace, allAck bool) (int, error) {
	eligible := 0
	for i := range c.mirrors {
		if c.isDown(i) || r.handles[i].ID == 0 {
			continue
		}
		eligible++
	}
	if eligible == 0 {
		return 0, fmt.Errorf("netram: push %q: %w", r.Name, ErrAllMirrorsDown)
	}
	if eligible == 1 || c.serialFanout || c.closed.Load() {
		return c.pushSerial(r, call, off, data, spans, wireBytes, tt)
	}
	if c.quorumW > 0 && !allAck {
		return c.pushParallelQuorum(r, call, off, data, spans, wireBytes, tt)
	}
	return c.pushParallel(r, call, off, data, spans, wireBytes, tt)
}

// pushSerial is the in-line path: the only eligible mirror (the common
// single-replica configuration), or every mirror in slot order when
// parallel dispatch is disabled. Matches the historical sequential
// semantics exactly, including stopping at the first alive-mirror
// error.
func (c *Client) pushSerial(r *Region, call *fanoutCall, off uint64, data []byte, spans []wireSpan, wireBytes uint64, tt *trace.TxTrace) (int, error) {
	pushed := 0
	for i := range c.mirrors {
		if c.isDown(i) || r.handles[i].ID == 0 {
			continue
		}
		m := c.mirrors[i]
		sp := tt.Start(trace.LayerNetram, m.Name)
		start := c.clock.Now()
		var retried bool
		var err error
		if spans == nil {
			retried, err = c.writeWithRetry(m, i, r.handles[i].ID, off, data)
		} else {
			retried, err = c.batchWithRetry(m, i, r.handles[i].ID, spans, r.Local, &call.writes)
		}
		if retried {
			tt.Event(trace.LayerNetram, "retry", uint64(i))
		}
		if err != nil {
			sp.End()
			if c.isDown(i) {
				continue // node degraded; stay available via the others
			}
			if spans == nil {
				return pushed, fmt.Errorf("netram: push to mirror %s: %w", m.Name, err)
			}
			return pushed, fmt.Errorf("netram: batch push to mirror %s: %w", m.Name, err)
		}
		c.metrics.MirrorPush[i].ObserveDuration(c.clock.Now() - start)
		sp.EndN(wireBytes)
		pushed++
	}
	if pushed == 0 {
		return 0, fmt.Errorf("netram: push %q: %w", r.Name, ErrAllMirrorsDown)
	}
	// A serial push has no fan-out spread; clear the gauge so it does
	// not report the last parallel dispatch's gap forever after the
	// client degrades to one mirror (or runs WithSerialFanout).
	c.straggler.Store(0)
	return pushed, nil
}

// pushParallel dispatches one job per eligible mirror to the sender
// workers and joins on the latch. Per-mirror intervals are appended to
// the trace after the join (TxTrace is goroutine-owned, so workers
// never touch it) under a "fanout" umbrella span.
func (c *Client) pushParallel(r *Region, call *fanoutCall, off uint64, data []byte, spans []wireSpan, wireBytes uint64, tt *trace.TxTrace) (int, error) {
	c.workerOnce.Do(c.startWorkers)
	fo := tt.Start(trace.LayerNetram, "fanout")
	dispatched := call.jobs[:0]
	for i := range c.mirrors {
		if c.isDown(i) || r.handles[i].ID == 0 {
			continue
		}
		j := &call.jobs[len(dispatched)]
		dispatched = call.jobs[:len(dispatched)+1]
		j.wg = &call.wg
		j.m = c.mirrors[i]
		j.slot = i
		j.seg = r.handles[i].ID
		j.off, j.data = off, data
		j.spans, j.local = spans, nil
		if spans != nil {
			j.local = r.Local
		}
		call.wg.Add(1)
		c.senders[i] <- j
	}
	call.wg.Wait()

	pushed := 0
	var firstErr error
	var firstName string
	var minEnd, maxEnd time.Duration
	for k := range dispatched {
		j := &dispatched[k]
		if j.retried {
			tt.Event(trace.LayerNetram, "retry", uint64(j.slot))
		}
		tt.Completed(trace.LayerNetram, j.m.Name, j.start, j.end-j.start, wireBytes)
		if j.err != nil {
			if !c.isDown(j.slot) && firstErr == nil {
				firstErr = j.err
				firstName = j.m.Name
			}
			continue
		}
		c.metrics.MirrorPush[j.slot].ObserveDuration(j.end - j.start)
		if pushed == 0 || j.end < minEnd {
			minEnd = j.end
		}
		if pushed == 0 || j.end > maxEnd {
			maxEnd = j.end
		}
		pushed++
	}
	fo.EndN(wireBytes)
	c.metrics.Fanouts.Inc()
	if pushed > 1 {
		// The straggler gap: how much longer the slowest mirror took
		// than the fastest — the wall-clock win over a sequential
		// fan-out is roughly the sum of these gaps.
		c.straggler.Store(uint64(maxEnd - minEnd))
	} else {
		// Zero or one ack: no spread to report. Clearing (rather than
		// keeping the previous dispatch's value) stops the gauge going
		// stale when mirrors die mid-run.
		c.straggler.Store(0)
	}
	if firstErr != nil {
		if spans == nil {
			return pushed, fmt.Errorf("netram: push to mirror %s: %w", firstName, firstErr)
		}
		return pushed, fmt.Errorf("netram: batch push to mirror %s: %w", firstName, firstErr)
	}
	if pushed == 0 {
		return 0, fmt.Errorf("netram: push %q: %w", r.Name, ErrAllMirrorsDown)
	}
	return pushed, nil
}

// pushParallelQuorum dispatches one job per eligible mirror exactly as
// pushParallel does, but joins on the first quorumW acks instead of the
// full latch: the caller returns with the write durable on a quorum
// while the stragglers complete asynchronously on their sender workers.
// The pooled call outlives the dispatcher via reference counting; the
// last finisher reclaims it (recording the rebuild dirty ranges and the
// straggler gauge — see fanoutCall).
//
// The returned mirror count is always zero: the workers account
// per-mirror wire bytes themselves, since acks keep arriving after the
// caller is gone.
func (c *Client) pushParallelQuorum(r *Region, call *fanoutCall, off uint64, data []byte, spans []wireSpan, wireBytes uint64, tt *trace.TxTrace) (int, error) {
	c.workerOnce.Do(c.startWorkers)
	fo := tt.Start(trace.LayerNetram, "quorum_fanout")
	call.async = true
	dispatched := call.jobs[:0]
	for i := range c.mirrors {
		if c.isDown(i) || r.handles[i].ID == 0 {
			continue
		}
		j := &call.jobs[len(dispatched)]
		dispatched = call.jobs[:len(dispatched)+1]
		j.wg = nil
		j.call = call
		j.m = c.mirrors[i]
		j.slot = i
		j.seg = r.handles[i].ID
		j.off, j.data = off, data
		j.spans, j.local = spans, nil
		if spans != nil {
			j.local = r.Local
		}
		j.wire = wireBytes
		// The job's reference is taken before the send: once the worker
		// can see the job, the call must already be pinned.
		call.refs.Add(1)
		select {
		case c.senders[i] <- j:
			c.pendMu.Lock()
			c.pendEnq[i]++
			c.pendMu.Unlock()
		default:
			// The mirror's catch-up queue is full — it has fallen
			// catchUpQueueLen writes behind the quorum. Degrade it and
			// drop the write (its queued predecessors are dropped by the
			// worker, keeping the mirror's state a prefix); the guardian
			// revives or rebuilds it with a full resync.
			call.refs.Add(-1)
			dispatched = dispatched[:len(dispatched)-1]
			c.markDown(i)
			c.metrics.CatchUpOverflows.Inc()
			c.flight.Record(flight.CatchUpOverflow, "netram", "catch-up queue full", uint64(i))
		}
	}
	nDispatched := len(dispatched)
	if nDispatched == 0 {
		call.async = false
		fo.End()
		return 0, fmt.Errorf("netram: push %q: %w", r.Name, ErrAllMirrorsDown)
	}
	// Never demand more acks than mirrors written: a degraded mirror
	// set keeps committing on whoever is left, the same
	// availability-over-strictness policy the all-ack path has always
	// applied by skipping down mirrors. A mirror degraded after
	// dispatch but before its write ran is not written either, so it
	// leaves the count the same way.
	var need int
	call.mu.Lock()
	for {
		need = max(1, min(c.quorumW, nDispatched-call.fenced))
		if call.acks >= need || nDispatched-call.fails < need {
			break
		}
		call.cond.Wait()
	}
	acks := call.acks
	firstErr, firstName := call.firstErr, call.firstName
	for k := range dispatched {
		j := &dispatched[k]
		if !j.done {
			continue // straggler: its span cannot be recorded on tt after we return
		}
		if j.retried {
			tt.Event(trace.LayerNetram, "retry", uint64(j.slot))
		}
		tt.Completed(trace.LayerNetram, j.m.Name, j.start, j.end-j.start, wireBytes)
	}
	call.mu.Unlock()

	fo.EndN(wireBytes)
	c.metrics.Fanouts.Inc()
	c.metrics.AckDepth.Observe(uint64(acks))
	if acks >= need {
		return 0, nil
	}
	if firstErr != nil {
		if spans == nil {
			return 0, fmt.Errorf("netram: push to mirror %s: %w", firstName, firstErr)
		}
		return 0, fmt.Errorf("netram: batch push to mirror %s: %w", firstName, firstErr)
	}
	return 0, fmt.Errorf("netram: push %q: %w", r.Name, ErrAllMirrorsDown)
}

// Close stops the sender workers. Call once the data path is quiescent
// (no Push/PushMany in flight or following); a closed client degrades
// to the serial path if pushed again, it does not panic.
func (c *Client) Close() {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if c.closed.Swap(true) {
		return
	}
	// Let queued quorum stragglers retire before their channels close;
	// no new jobs can arrive while the topology write lock is held.
	c.drainCatchUp()
	for _, ch := range c.senders {
		close(ch)
	}
	c.senders = nil
}
