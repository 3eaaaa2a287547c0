// Mirror fan-out: every push becomes one job per eligible mirror and one
// join on k acks. When more than one mirror is eligible, the jobs go to
// long-lived per-mirror sender workers, so the wall-clock cost of a
// commit over real transports is the slowest mirror, not the sum of all
// of them — the posted-write behaviour the paper gets for free from SCI
// store-gathering. Retry and degradation classification run inside the
// job, so a flapping mirror's retry never delays a healthy one. A single
// eligible mirror, WithSerialFanout and a closed client run the same
// jobs inline on the caller, in slot order, each after the quorum
// stragglers still queued for its mirror.
//
// k is every dispatched mirror on all-ack pushes; on quorum clients it
// is the configured w (never more than the mirrors actually written),
// and the stragglers past the k-th ack complete asynchronously.
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

// wireSpan is one expanded (alignment-applied) wire range [lo, hi) of
// a region; its bytes sit at payload[at : at+hi-lo].
type wireSpan struct {
	lo, hi, at uint64
}

// fanoutJob is one mirror's share of a push: the call's spans, written
// to segment seg of mirror m. The dispatcher fills it under the
// topology read lock (so the Mirror value cannot be swapped mid-flight)
// and runs it inline or hands it to the slot's sender worker.
type fanoutJob struct {
	call *fanoutCall
	m    Mirror
	slot int
	seg  uint32
	// writes is the job's persistent scratch for the
	// transport.BatchWrite conversion.
	writes []transport.BatchWrite

	// Results, valid once done is set (under call.mu).
	start, end time.Duration
	retried    bool
	err        error
	done       bool
}

// fanoutCall is the pooled per-push state: the spans and the payload
// they index, one job per mirror slot, and the join. Pooling it keeps
// the steady-state commit path allocation-free.
//
// Lifecycle: every call starts with one reference (the dispatcher's,
// dropped by releaseCall) and every dispatched job adds one. The last
// reference to go — the dispatcher when the join waited for every job,
// the slowest straggler's worker otherwise — runs reclaimCall:
// dirty-range recording, the straggler gauge, then back to the pool.
// Recording dirty ranges only once all mirrors finished is what keeps
// the rebuild epochs honest in quorum mode: a range leaves the dirty set
// only after every survivor actually holds its bytes.
type fanoutCall struct {
	jobs  []fanoutJob
	spans []wireSpan
	// payload is what the jobs read: the region's Local buffer when the
	// join waits for every job, else buf, a snapshot of the spans taken
	// at dispatch — a straggler must write the bytes that were pushed,
	// not whatever the caller has written into Local since.
	payload []byte
	buf     []byte
	// wire is the bytes one mirror receives: the spans' total length.
	wire uint64

	refs atomic.Int32

	// async marks a quorum join, which may return before every job
	// finished (reclaim may then run off the dispatcher goroutine).
	// fanned marks a dispatch to the sender workers, whose completion
	// spread feeds the straggler gauge. trackName is the region whose
	// spans reclaim records as dirty; empty means tracking was off at
	// dispatch.
	async     bool
	fanned    bool
	trackName string

	// Join state, guarded by mu; cond wakes the dispatcher as jobs
	// finish. fenced counts the failures that are errQuorumMirrorDown
	// drops: writes never attempted because their mirror was degraded
	// first.
	mu             sync.Mutex
	cond           *sync.Cond
	acks, fails    int
	fenced         int
	minEnd, maxEnd time.Duration
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

// reclaimCall runs once per push, after every job (and the dispatcher)
// is done with the call: records the pushed wire ranges in the
// rebuild's dirty set, refreshes the straggler gauge for worker
// dispatches, and returns the call to the pool.
func (c *Client) reclaimCall(call *fanoutCall) {
	if call.trackName != "" {
		for _, s := range call.spans {
			c.recordDirty(call.trackName, s.lo, s.hi-s.lo)
		}
	}
	if call.fanned {
		call.mu.Lock()
		acks, minEnd, maxEnd := call.acks, call.minEnd, call.maxEnd
		call.mu.Unlock()
		if acks > 1 {
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
	}
	c.putCall(call)
}

func (c *Client) putCall(call *fanoutCall) {
	for i := range call.jobs {
		j := &call.jobs[i]
		for k := range j.writes {
			j.writes[k] = transport.BatchWrite{}
		}
		j.call, j.err, j.done = nil, nil, false
	}
	call.spans = call.spans[:0]
	call.payload = nil
	call.wire = 0
	call.acks, call.fails, call.fenced = 0, 0, 0
	call.minEnd, call.maxEnd = 0, 0
	call.async, call.fanned = false, false
	call.trackName = ""
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
// worker per slot is what preserves per-mirror write ordering.
func (c *Client) sender(ch chan *fanoutJob) {
	for j := range ch {
		c.runJob(j)
		c.finishJob(j)
	}
}

// runJob performs one mirror's write with the standard
// retry-and-classify policy, timing it against the client clock. A
// quorum job whose mirror was degraded while it queued is dropped, not
// written: executing past the failure point would leave a gap in the
// mirror's write order, and recovery is only safe while every mirror
// holds a strict prefix of it.
func (c *Client) runJob(j *fanoutJob) {
	j.start = c.clock.Now()
	if j.call.async && c.isDown(j.slot) {
		j.retried, j.err = false, errQuorumMirrorDown
	} else {
		j.retried, j.err = c.writeWithRetry(j.m, j.slot, j.seg, j.call.spans, j.call.payload, &j.writes)
	}
	j.end = c.clock.Now()
}

// finishJob retires one job: metrics and degradation, the join
// bookkeeping that may wake the dispatcher together with the job's call
// reference, and finally the pending-catch-up accounting of quorum
// jobs. The reference drops in the same critical section that marks the
// job done, so a dispatcher whose join saw every job done holds the last
// reference and reclaims under its topology read lock. The pending
// counter is incremented only after the reclaim, so a drainer that
// observes the counters level also observes every reclaim-side effect
// (dirty records in particular) of the jobs it waited for.
func (c *Client) finishJob(j *fanoutJob) {
	call := j.call
	// Once the reference is dropped the job may be recycled by the next
	// dispatch; nothing of *j or *call may be read past that point.
	slot, async := j.slot, call.async
	if j.err == nil {
		c.metrics.MirrorPush[slot].ObserveDuration(j.end - j.start)
		c.metrics.WireBytes.Add(call.wire)
	} else if async {
		// A straggler that failed after the caller already committed has
		// nobody left to repair it: degrade the mirror so its (possibly
		// divergent) state is never read, and let the guardian revive or
		// rebuild it.
		c.markDown(slot)
	}
	call.mu.Lock()
	j.done = true
	if j.err != nil {
		call.fails++
		if j.err == errQuorumMirrorDown {
			call.fenced++
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
	last := call.refs.Add(-1) == 0
	call.cond.Broadcast()
	call.mu.Unlock()
	if last {
		c.reclaimCall(call)
	}
	if async {
		c.pendMu.Lock()
		c.pendDone[slot]++
		c.pendMu.Unlock()
		c.pendCond.Broadcast()
	}
}

// writeWithRetry writes spans of payload to one mirror: one span is a
// plain Write, several are one batched exchange when the transport
// supports it (the batch is atomic server-side, so a replay is
// idempotent) and a Write per span otherwise. writes is scratch for the
// batch conversion. Failures are classified: if the node is gone (its
// ping fails too) the mirror is degraded and the write is reported as
// absorbed by degradation; if the node is alive the failure may be a
// transient hiccup, so the write is retried once before the error is
// surfaced. Runs on the caller's goroutine or inside a sender worker,
// so it must not touch a TxTrace — it reports retried instead.
func (c *Client) writeWithRetry(m Mirror, slot int, seg uint32, spans []wireSpan, payload []byte, writes *[]transport.BatchWrite) (retried bool, err error) {
	attempt := func() error {
		bw, batch := m.T.(transport.BatchWriter)
		if len(spans) == 1 || !batch {
			for _, s := range spans {
				if err := m.T.Write(seg, s.lo, payload[s.at:s.at+s.hi-s.lo]); err != nil {
					return err
				}
			}
			return nil
		}
		ws := (*writes)[:0]
		for _, s := range spans {
			ws = append(ws, transport.BatchWrite{Seg: seg, Offset: s.lo, Data: payload[s.at : s.at+s.hi-s.lo]})
		}
		*writes = ws
		return bw.WriteBatch(ws)
	}
	err = attempt()
	if err == nil {
		return false, nil
	}
	if pingErr := m.T.Ping(); pingErr != nil {
		c.markDown(slot)
		return false, err
	}
	// The node answers pings: transient failure — one retry.
	c.metrics.Retries.Inc()
	c.flight.Record(flight.MirrorRetry, "netram", m.Name, uint64(slot))
	if retryErr := attempt(); retryErr != nil {
		// Surface the retry's error — it is the failure the mirror is
		// failing with NOW; the first attempt rides along for context.
		return true, fmt.Errorf("%w (first attempt: %v)", retryErr, err)
	}
	return true, nil
}

// fanout writes call's spans to every eligible mirror of r and joins on
// k acks. Inline or on the workers, the outcome follows one rule: every
// eligible mirror is attempted, an error on a mirror that still answers
// pings surfaces to the caller (lowest slot wins, for determinism), a
// mirror whose ping fails too is degraded and skipped, and zero
// successful mirrors is ErrAllMirrorsDown. A quorum push succeeds at k
// acks; below that it reports one of its failures.
//
// Caller holds topoMu.RLock for the whole call, which is what lets the
// jobs capture Mirror values and segment handles without copies being
// swapped underneath, and what orders recordDirty after the join.
func (c *Client) fanout(r *Region, call *fanoutCall, o PushOpts) error {
	eligible := 0
	for i := range c.mirrors {
		if !c.isDown(i) && r.handles[i].ID != 0 {
			eligible++
		}
	}
	if eligible == 0 {
		return fmt.Errorf("netram: push %q: %w", r.Name, ErrAllMirrorsDown)
	}
	tt := o.Trace
	inline := eligible == 1 || c.serialFanout || c.closed.Load()
	call.async = !inline && c.quorumW > 0 && !o.AllAck
	call.payload = r.Local
	if call.async {
		buf := call.buf[:0]
		for i := range call.spans {
			s := &call.spans[i]
			s.at = uint64(len(buf))
			buf = append(buf, r.Local[s.lo:s.hi]...)
		}
		call.buf, call.payload = buf, buf
	}
	var fo trace.SpanRef
	if !inline {
		c.workerOnce.Do(c.startWorkers)
		name := "fanout"
		if call.async {
			name = "quorum_fanout"
		}
		// Workers never touch the TxTrace (it is goroutine-owned): their
		// intervals are appended under this umbrella after the join.
		fo = tt.Start(trace.LayerNetram, name)
	}
	n := 0
	for i := range c.mirrors {
		if c.isDown(i) || r.handles[i].ID == 0 {
			continue
		}
		j := &call.jobs[n]
		j.call, j.m, j.slot, j.seg = call, c.mirrors[i], i, r.handles[i].ID
		// The job's reference is taken before the send: once a worker
		// can see the job, the call must already be pinned.
		call.refs.Add(1)
		switch {
		case inline:
			n++
			if c.quorumW > 0 {
				// Quorum jobs still queued for this mirror carry older
				// pushes; writing past them would let their snapshots land
				// last and roll the mirror back. They go first.
				c.drainSlot(i)
			}
			sp := tt.Start(trace.LayerNetram, j.m.Name)
			c.runJob(j)
			if j.retried {
				tt.Event(trace.LayerNetram, "retry", uint64(i))
			}
			if j.err != nil {
				sp.End()
			} else {
				sp.EndN(call.wire)
			}
			c.finishJob(j)
		case !call.async:
			// The join waits for this job anyway, so a full queue just
			// blocks the dispatcher.
			n++
			c.senders[i] <- j
		default:
			select {
			case c.senders[i] <- j:
				n++
				c.pendMu.Lock()
				c.pendEnq[i]++
				c.pendMu.Unlock()
			default:
				// The mirror's catch-up queue is full — it has fallen
				// catchUpQueueLen writes behind the quorum. Degrade it and
				// drop the write (its queued predecessors are dropped by
				// the worker, keeping the mirror's state a prefix); the
				// guardian revives or rebuilds it with a full resync.
				call.refs.Add(-1)
				c.markDown(i)
				c.metrics.CatchUpOverflows.Inc()
				c.flight.Record(flight.CatchUpOverflow, "netram", "catch-up queue full", uint64(i))
			}
		}
	}
	if n == 0 {
		fo.End()
		return fmt.Errorf("netram: push %q: %w", r.Name, ErrAllMirrorsDown)
	}
	call.fanned = !inline

	// The join: wait until k mirrors acked or every job finished. k is
	// every dispatched job on all-ack pushes. A quorum push needs w acks
	// but never more than mirrors written: a degraded mirror set keeps
	// committing on whoever is left, the same availability-over-
	// strictness policy the all-ack path applies by skipping down
	// mirrors. A mirror degraded after dispatch but before its write ran
	// is not written either (fenced), so it leaves the count the same
	// way. A quorum push also stops as soon as k is out of reach; an
	// all-ack push cannot, because a failure that degraded its mirror is
	// absorbed and the remaining jobs still decide the outcome.
	var failed *fanoutJob
	k := n
	call.mu.Lock()
	for {
		if call.async {
			k = max(1, min(c.quorumW, n-call.fenced))
		}
		if call.acks >= k || call.acks+call.fails == n || (call.async && n-call.fails < k) {
			break
		}
		call.cond.Wait()
	}
	acks := call.acks
	for x := range call.jobs[:n] {
		j := &call.jobs[x]
		if !j.done {
			continue // straggler: its span cannot be recorded on tt after we return
		}
		if !inline {
			if j.retried {
				tt.Event(trace.LayerNetram, "retry", uint64(j.slot))
			}
			tt.Completed(trace.LayerNetram, j.m.Name, j.start, j.end-j.start, call.wire)
		}
		// The failure that surfaces: the lowest slot whose mirror still
		// answers pings — a mirror whose ping failed too was degraded, and
		// an all-ack push absorbs that. A quorum push short of k acks
		// reports its lowest-slot finished failure; each one already
		// degraded its mirror.
		if j.err != nil && failed == nil && (call.async || !c.isDown(j.slot)) {
			failed = j
		}
	}
	call.mu.Unlock()

	if inline {
		// An inline push has no fan-out spread; clear the gauge so it
		// does not report the last worker dispatch's gap forever after
		// the client degrades to one mirror (or runs WithSerialFanout).
		c.straggler.Store(0)
	} else {
		fo.EndN(call.wire)
		c.metrics.Fanouts.Inc()
		if call.async {
			c.metrics.AckDepth.Observe(uint64(acks))
		}
	}
	switch {
	case acks >= k:
		return nil
	case failed != nil:
		return fmt.Errorf("netram: push to mirror %s: %w", failed.m.Name, failed.err)
	case acks == 0:
		return fmt.Errorf("netram: push %q: %w", r.Name, ErrAllMirrorsDown)
	}
	// All-ack: every failure was absorbed by degradation and at least
	// one mirror holds the bytes.
	return nil
}

// Close stops the sender workers. Call once the data path is quiescent
// (no push in flight or following); a closed client runs later pushes
// inline on the caller, it does not panic.
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
