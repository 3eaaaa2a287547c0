package netram

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// newQuorumRig builds a w-of-n client whose LAST mirror's writes park
// on the returned gate until it is closed — a straggler that is alive
// (it answers pings and probes) but arbitrarily slow.
func newQuorumRig(t *testing.T, n, w int) (*Client, []*memserver.Server, chan struct{}) {
	t.Helper()
	clock := simclock.NewSim()
	gate := make(chan struct{})
	var servers []*memserver.Server
	var mirrors []Mirror
	for i := 0; i < n; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		var tp transport.Transport = tr
		if i == n-1 {
			tp = &gated{Transport: tr, gate: gate}
		}
		mirrors = append(mirrors, Mirror{Name: srv.Label(), T: tp})
	}
	c, err := NewClient(mirrors, WithQuorum(w))
	if err != nil {
		t.Fatal(err)
	}
	return c, servers, gate
}

func TestWithQuorumValidation(t *testing.T) {
	mirrors := func(n int) []Mirror {
		clock := simclock.NewSim()
		var ms []Mirror
		for i := 0; i < n; i++ {
			srv := memserver.New()
			tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, Mirror{Name: "m", T: tr})
		}
		return ms
	}
	if _, err := NewClient(mirrors(3), WithQuorum(4)); err == nil {
		t.Error("quorum larger than the mirror count should be rejected")
	}
	if _, err := NewClient(mirrors(3), WithQuorum(-1)); err == nil {
		t.Error("negative quorum should be rejected")
	}
	if _, err := NewClient(mirrors(3), WithQuorum(2), WithSerialFanout()); err == nil {
		t.Error("quorum needs the parallel fan-out; serial + quorum should be rejected")
	}
	// w == n is the all-ack default: the quorum machinery must be off.
	c, err := NewClient(mirrors(3), WithQuorum(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Quorum(); got != 0 {
		t.Errorf("Quorum() = %d after WithQuorum(n); want 0 (all-ack default)", got)
	}
	c2, err := NewClient(mirrors(3), WithQuorum(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Quorum(); got != 2 {
		t.Errorf("Quorum() = %d, want 2", got)
	}
}

// TestQuorumPushReturnsBeforeStraggler pins the tentpole behaviour: a
// 2-of-3 push returns once two mirrors acked, while the third is still
// parked; the straggler catches up asynchronously and WaitCatchUp is
// the barrier after which every mirror holds the bytes.
func TestQuorumPushReturnsBeforeStraggler(t *testing.T) {
	c, servers, gate := newQuorumRig(t, 3, 2)
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("quorum-fast"))

	// The push must return even though mirror C cannot complete: two
	// acks are a quorum. (A hang here is the bug this test pins.)
	done := make(chan error, 1)
	go func() { done <- c.Push(reg, 0, 11) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("quorum push: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("2-of-3 push did not return while the straggler was parked")
	}

	// The fast mirrors hold the bytes; the straggler does not yet.
	for i := 0; i < 2; i++ {
		if got := mirrorBytes(t, servers[i], "db", 0, 11); !bytes.Equal(got, []byte("quorum-fast")) {
			t.Errorf("fast mirror %d holds %q", i, got)
		}
	}
	if got := mirrorBytes(t, servers[2], "db", 0, 11); bytes.Equal(got, []byte("quorum-fast")) {
		t.Error("straggler already holds the bytes; the gate is not parking writes")
	}
	if got := c.CatchUpPending(2); got != 1 {
		t.Errorf("CatchUpPending(straggler) = %d, want 1", got)
	}
	if snap := c.Metrics().AckDepth.Snapshot(); snap.Count != 1 {
		t.Errorf("AckDepth observations = %d, want 1", snap.Count)
	}

	// Release the straggler: catch-up completes and the mirrors
	// converge.
	close(gate)
	c.WaitCatchUp()
	if got := c.CatchUpPending(2); got != 0 {
		t.Errorf("CatchUpPending after WaitCatchUp = %d, want 0", got)
	}
	if got := mirrorBytes(t, servers[2], "db", 0, 11); !bytes.Equal(got, []byte("quorum-fast")) {
		t.Errorf("straggler holds %q after catch-up", got)
	}
	if c.Live() != 3 {
		t.Errorf("Live = %d, want 3 (a slow mirror is not a dead mirror)", c.Live())
	}
}

// TestQuorumStragglerWritesPushedBytes: a straggler that runs after its
// quorum push returned writes the bytes that were pushed, not whatever
// the caller has written into Local since. Recovery elects the mirror
// with the highest commit word and relies on every mirror holding a
// strict prefix of the push order; a straggler reading Local late would
// hand a mirror bytes no push ever carried.
func TestQuorumStragglerWritesPushedBytes(t *testing.T) {
	forms := []struct {
		name string
		push func(*Client, *Region) error
	}{
		{"Push", func(c *Client, r *Region) error { return c.Push(r, 0, 4) }},
		{"PushMany", func(c *Client, r *Region) error { return c.PushMany(r, []Range{{Offset: 0, Length: 4}}) }},
	}
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			c, servers, gate := newQuorumRig(t, 3, 2)
			reg, err := c.Malloc("db", 256)
			if err != nil {
				t.Fatal(err)
			}
			copy(reg.Local, "AAAA")
			if err := f.push(c, reg); err != nil {
				t.Fatal(err)
			}
			copy(reg.Local, "BBBB") // written locally, never pushed
			close(gate)
			c.WaitCatchUp()
			for i, srv := range servers {
				if got := mirrorBytes(t, srv, "db", 0, 4); string(got) != "AAAA" {
					t.Errorf("mirror %d holds %q, want the pushed %q", i, got, "AAAA")
				}
			}
		})
	}
}

// parkFirst parks only the first write on gate; later writes pass.
type parkFirst struct {
	transport.Transport
	gate   chan struct{}
	parked atomic.Bool
}

func (p *parkFirst) Write(seg uint32, offset uint64, data []byte) error {
	if !p.parked.Swap(true) {
		<-p.gate
	}
	return p.Transport.Write(seg, offset, data)
}

// TestQuorumInlinePushFollowsQueuedStragglers: once the quorum degrades
// to one eligible mirror, pushes run inline on the caller. An inline
// write must not overtake that mirror's queued stragglers: they carry
// older pushes, and landing after the inline write would roll the only
// live mirror back to an acked commit's predecessor.
func TestQuorumInlinePushFollowsQueuedStragglers(t *testing.T) {
	c, servers, gate := newQuorumRig(t, 3, 2)
	c.mirrors[2].T = &parkFirst{Transport: c.mirrors[2].T.(*gated).Transport, gate: gate}
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, "AAAA")
	if err := c.Push(reg, 0, 4); err != nil { // mirror C's write parks
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.MarkMirrorDown(i); err != nil {
			t.Fatal(err)
		}
	}
	copy(reg.Local, "BBBB")
	done := make(chan error, 1)
	go func() { done <- c.Push(reg, 0, 4) }() // one eligible mirror: inline
	time.Sleep(10 * time.Millisecond)
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c.WaitCatchUp()
	if got := mirrorBytes(t, servers[2], "db", 0, 4); string(got) != "BBBB" {
		t.Errorf("only live mirror holds %q after the later push was acked, want %q", got, "BBBB")
	}
}

// TestQuorumUnreachablePushReturnsBeforeStraggler: a 2-of-3 push whose
// first two mirrors fail can no longer reach its quorum, so it reports
// the lowest-slot failure at once instead of waiting behind the third
// mirror's parked write.
func TestQuorumUnreachablePushReturnsBeforeStraggler(t *testing.T) {
	c, _, gate := newQuorumRig(t, 3, 2)
	defer close(gate)
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		c.mirrors[i].T = &errSeq{Transport: c.mirrors[i].T, errs: []error{
			errors.New("first attempt"), errors.New("retry attempt"),
		}}
	}
	done := make(chan error, 1)
	go func() { done <- c.Push(reg, 0, 4) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), c.mirrors[0].Name) {
			t.Fatalf("push error = %v, want mirror %s's failure", err, c.mirrors[0].Name)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("push waited for the parked straggler after its quorum became unreachable")
	}
}

// TestQuorumFenceTracksStragglers: a fence taken mid-flight reports
// not-done until the straggler retires, and the zero fence (and any
// fence from an all-ack client) is trivially done.
func TestQuorumFenceTracksStragglers(t *testing.T) {
	var zero Fence
	if !zero.Done() {
		t.Error("zero fence must be trivially done")
	}

	c, _, gate := newQuorumRig(t, 3, 2)
	if f := c.Fence(); !f.Done() {
		t.Error("fence with nothing in flight must be done")
	}
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Push(reg, 0, 64); err != nil {
		t.Fatal(err)
	}
	f := c.Fence()
	if f.Done() {
		t.Error("fence must cover the parked straggler write")
	}
	close(gate)
	c.WaitCatchUp()
	if !f.Done() {
		t.Error("fence must be done once the straggler retired")
	}
}

// TestQuorumCatchUpOverflowDegradesMirror: a mirror that falls more
// than catchUpQueueLen writes behind is degraded (handed to the
// guardian's rebuild path) instead of accumulating unbounded lag —
// and the commit path keeps going on the remaining quorum.
func TestQuorumCatchUpOverflowDegradesMirror(t *testing.T) {
	c, servers, gate := newQuorumRig(t, 3, 2)
	reg, err := c.Malloc("db", 4096)
	if err != nil {
		t.Fatal(err)
	}
	// The parked worker holds one job; catchUpQueueLen more queue up;
	// the next dispatch overflows and degrades the mirror.
	for i := 0; i < catchUpQueueLen+6; i++ {
		off := uint64(i%32) * 64
		copy(reg.Local[off:off+8], []byte{byte(i), 1, 2, 3, 4, 5, 6, 7})
		if err := c.Push(reg, off, 8); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if got := c.Metrics().CatchUpOverflows.Load(); got == 0 {
		t.Error("catch-up overflow was never counted")
	}
	if got := c.Live(); got != 2 {
		t.Errorf("Live = %d, want 2 (overflowed mirror degraded)", got)
	}

	// Release the parked worker so the queue drains (queued jobs for
	// the now-down mirror are dropped, preserving its write prefix).
	close(gate)
	c.WaitCatchUp()
	for i := 0; i < 2; i++ {
		if got := mirrorBytes(t, servers[i], "db", 0, 8); len(got) != 8 {
			t.Errorf("survivor %d unreadable", i)
		}
	}
}

// TestQuorumFencedStragglerLeavesCount: with mirror A already down, a
// 2-of-3 push goes to B and C and needs both. If C is then degraded
// before its queued write runs, the write is dropped, not written, so
// C leaves the ack count exactly as a mirror that was down at dispatch
// does: B's ack alone completes the push.
func TestQuorumFencedStragglerLeavesCount(t *testing.T) {
	c, servers, gate := newQuorumRig(t, 3, 2)
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	// Park C's sender on a first write; A and B ack it.
	copy(reg.Local, []byte("first"))
	if err := c.Push(reg, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkMirrorDown(0); err != nil {
		t.Fatal(err)
	}

	copy(reg.Local[64:], []byte("second"))
	done := make(chan error, 1)
	go func() { done <- c.Push(reg, 64, 6) }()
	select {
	case err := <-done:
		t.Fatalf("push returned (%v) with one ack while C was slow but live", err)
	case <-time.After(20 * time.Millisecond):
	}

	if err := c.MarkMirrorDown(2); err != nil {
		t.Fatal(err)
	}
	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("push failed after its straggler was fenced off: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("push did not return after its straggler was fenced off")
	}
	if got := mirrorBytes(t, servers[1], "db", 64, 6); !bytes.Equal(got, []byte("second")) {
		t.Errorf("surviving mirror B holds %q", got)
	}
}

// TestQuorumRaceMirrorDeathAndRebuild is the quorum-mode twin of
// TestFanoutRaceMirrorDeathAndRebuild: concurrent quorum pushes while a
// mirror dies and is rebuilt onto a spare. The rebuild's drain-then-copy
// must leave every surviving mirror byte-identical with local memory —
// the race detector watches the catch-up queue against the topology
// lock.
func TestQuorumRaceMirrorDeathAndRebuild(t *testing.T) {
	r := newRig(t, 3, WithQuorum(2))
	reg, err := r.client.Malloc("db", 16384)
	if err != nil {
		t.Fatal(err)
	}

	spareSrv := memserver.New(memserver.WithLabel("spare"))
	spareTr, err := transport.NewInProc(spareSrv, sci.DefaultParams(), r.clock)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * 4096)
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				off := base + uint64(k%32)*64
				copy(reg.Local[off:off+64], bytes.Repeat([]byte{byte(g<<4 | k&0xf)}, 64))
				if err := r.client.PushMany(reg, []Range{{Offset: off, Length: 64}}); err != nil {
					t.Errorf("pusher %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	time.Sleep(5 * time.Millisecond)
	if err := r.client.MarkMirrorDown(2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := r.client.RebuildMirror(2, Mirror{Name: "spare", T: spareTr}, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()

	r.client.WaitCatchUp()
	mismatches, err := r.client.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mismatches {
		t.Errorf("post-rebuild divergence: %v", m)
	}
}

// errSeq fails write attempts with a scripted sequence of DISTINCT
// errors, so a test can tell which attempt's error surfaced. A nil
// entry (or an exhausted script) passes the write through.
type errSeq struct {
	transport.Transport
	errs []error
}

func (e *errSeq) next() error {
	if len(e.errs) == 0 {
		return nil
	}
	err := e.errs[0]
	e.errs = e.errs[1:]
	return err
}

func (e *errSeq) Write(seg uint32, offset uint64, data []byte) error {
	if err := e.next(); err != nil {
		return err
	}
	return e.Transport.Write(seg, offset, data)
}

func (e *errSeq) WriteBatch(writes []transport.BatchWrite) error {
	if err := e.next(); err != nil {
		return err
	}
	if bw, ok := e.Transport.(transport.BatchWriter); ok {
		return bw.WriteBatch(writes)
	}
	for _, w := range writes {
		if err := e.Transport.Write(w.Seg, w.Offset, w.Data); err != nil {
			return err
		}
	}
	return nil
}

func newErrSeqRig(t *testing.T) (*Client, *errSeq) {
	t.Helper()
	r := newRig(t, 1)
	es := &errSeq{Transport: r.client.mirrors[0].T}
	c, err := NewClient([]Mirror{{Name: "seq", T: es}})
	if err != nil {
		t.Fatal(err)
	}
	return c, es
}

// TestRetryErrorSurfacesFinalAttempt pins the retry-error attribution
// fix: when the single retry fails too, the error the caller sees is
// the RETRY's — the mirror's current failure mode — with the first
// attempt's error preserved as context, not the other way round.
func TestRetryErrorSurfacesFinalAttempt(t *testing.T) {
	c, es := newErrSeqRig(t)
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	errFirst := errors.New("transient connection reset")
	errRetry := errors.New("segment checksum mismatch")
	es.errs = []error{errFirst, errRetry}

	err = c.Push(reg, 0, 8)
	if err == nil {
		t.Fatal("push with both attempts failing must error")
	}
	if !errors.Is(err, errRetry) {
		t.Errorf("surfaced error is not the retry's: %v", err)
	}
	if errors.Is(err, errFirst) {
		t.Errorf("stale first-attempt error surfaced as the failure: %v", err)
	}
	if !strings.Contains(err.Error(), errFirst.Error()) {
		t.Errorf("first attempt's error lost from the context: %v", err)
	}
}

// TestBatchRetryErrorSurfacesFinalAttempt is the same regression pinned
// on the batched (PushMany) path.
func TestBatchRetryErrorSurfacesFinalAttempt(t *testing.T) {
	c, es := newErrSeqRig(t)
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	errFirst := errors.New("transient batch stall")
	errRetry := errors.New("batch frame rejected")
	es.errs = []error{errFirst, errRetry}

	err = c.PushMany(reg, []Range{{Offset: 0, Length: 8}})
	if err == nil {
		t.Fatal("batch push with both attempts failing must error")
	}
	if !errors.Is(err, errRetry) {
		t.Errorf("surfaced error is not the retry's: %v", err)
	}
	if errors.Is(err, errFirst) {
		t.Errorf("stale first-attempt error surfaced as the failure: %v", err)
	}
	if !strings.Contains(err.Error(), errFirst.Error()) {
		t.Errorf("first attempt's error lost from the context: %v", err)
	}
}

// TestStragglerGaugeClearsOnSerialDegrade pins the gauge-staleness fix:
// once the client degrades to a single mirror (the serial path), the
// fanout_straggler_ns gauge must drop to zero instead of reporting the
// last parallel dispatch's spread forever.
func TestStragglerGaugeClearsOnSerialDegrade(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.Push(reg, 0, 64); err != nil {
		t.Fatal(err)
	}
	// Simulate a recorded spread, then lose a mirror: the next push
	// runs serially and must clear the gauge.
	r.client.straggler.Store(42)
	if err := r.client.MarkMirrorDown(1); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Push(reg, 0, 64); err != nil {
		t.Fatal(err)
	}
	if got := r.client.straggler.Load(); got != 0 {
		t.Errorf("straggler gauge = %d after serial push, want 0", got)
	}
}

// TestStragglerGaugeClearsOnRebuild: a topology change (rebuild onto a
// spare) invalidates the last measured spread; the gauge resets.
func TestStragglerGaugeClearsOnRebuild(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.PushAll(reg); err != nil {
		t.Fatal(err)
	}
	if err := r.client.MarkMirrorDown(1); err != nil {
		t.Fatal(err)
	}
	spare := memserver.New(memserver.WithLabel("spare"))
	spareTr, err := transport.NewInProc(spare, sci.DefaultParams(), r.clock)
	if err != nil {
		t.Fatal(err)
	}
	r.client.straggler.Store(42)
	if err := r.client.RebuildMirror(1, Mirror{Name: "spare", T: spareTr}, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.client.straggler.Load(); got != 0 {
		t.Errorf("straggler gauge = %d after rebuild, want 0", got)
	}
}
