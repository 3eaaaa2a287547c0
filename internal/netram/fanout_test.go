package netram

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/sci"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// gated wraps a transport and parks every Write/WriteBatch until the
// gate channel is closed, simulating a mirror that is alive but slow.
type gated struct {
	transport.Transport
	gate chan struct{}
}

func (g *gated) Write(seg uint32, offset uint64, data []byte) error {
	<-g.gate
	return g.Transport.Write(seg, offset, data)
}

func (g *gated) WriteBatch(writes []transport.BatchWrite) error {
	<-g.gate
	if bw, ok := g.Transport.(transport.BatchWriter); ok {
		return bw.WriteBatch(writes)
	}
	for _, w := range writes {
		if err := g.Transport.Write(w.Seg, w.Offset, w.Data); err != nil {
			return err
		}
	}
	return nil
}

// mirrorBytes reads n bytes of a named region directly from a mirror's
// server, bypassing the client.
func mirrorBytes(t *testing.T, srv *memserver.Server, name string, off, n uint64) []byte {
	t.Helper()
	seg, err := srv.Connect(name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Read(seg.ID, off, uint32(n))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestParallelFanoutNotDelayedBySlowMirror pins the point of the
// parallel fan-out: while one mirror's write is parked (a retry, a
// stalled TCP peer), the other mirror's write completes independently —
// its server holds the bytes before the slow mirror is released.
func TestParallelFanoutNotDelayedBySlowMirror(t *testing.T) {
	clock := simclock.NewSim()
	var servers []*memserver.Server
	var mirrors []Mirror
	gate := make(chan struct{})
	for i := 0; i < 2; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		var tp transport.Transport = tr
		if i == 1 {
			tp = &gated{Transport: tr, gate: gate}
		}
		mirrors = append(mirrors, Mirror{Name: srv.Label(), T: tp})
	}
	c, err := NewClient(mirrors)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("independent"))

	done := make(chan error, 1)
	go func() { done <- c.Push(reg, 0, 11) }()

	// The fast mirror must receive the bytes while the slow mirror is
	// still parked and the overall Push has not returned.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := mirrorBytes(t, servers[0], "db", 0, 11); bytes.Equal(got, []byte("independent")) {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("push returned (%v) before fast mirror had the bytes", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("fast mirror never received the push while the slow one was parked")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("push returned %v while one mirror was still parked", err)
	default:
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("push: %v", err)
	}
	if got := mirrorBytes(t, servers[1], "db", 0, 11); !bytes.Equal(got, []byte("independent")) {
		t.Errorf("slow mirror holds %q", got)
	}
}

// TestParallelFanoutRetryIsolated checks the worker-side retry: a
// transient failure on one mirror is retried inside that mirror's
// worker and succeeds without surfacing, while the healthy mirror is
// untouched.
func TestParallelFanoutRetryIsolated(t *testing.T) {
	clock := simclock.NewSim()
	var servers []*memserver.Server
	var mirrors []Mirror
	var fl *flaky
	for i := 0; i < 2; i++ {
		srv := memserver.New(memserver.WithLabel("node" + string(rune('A'+i))))
		tr, err := transport.NewInProc(srv, sci.DefaultParams(), clock)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		var tp transport.Transport = tr
		if i == 1 {
			fl = &flaky{Transport: tr}
			tp = fl
		}
		mirrors = append(mirrors, Mirror{Name: srv.Label(), T: tp})
	}
	c, err := NewClient(mirrors)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := c.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("retried"))

	fl.failNext = 1
	if err := c.Push(reg, 0, 7); err != nil {
		t.Fatalf("transient failure should be retried in the worker: %v", err)
	}
	if got := c.Metrics().Retries.Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if c.Live() != 2 {
		t.Error("pingable mirror was degraded")
	}
	for i, srv := range servers {
		if got := mirrorBytes(t, srv, "db", 0, 7); !bytes.Equal(got, []byte("retried")) {
			t.Errorf("mirror %d holds %q", i, got)
		}
	}
}

// TestSerialParallelEquivalence pins figure neutrality: the same push
// sequence over the parallel fan-out and over WithSerialFanout charges
// identical virtual time and identical traffic stats. SimClock.Advance
// is additive and commutative, so worker interleaving cannot change the
// sum.
func TestSerialParallelEquivalence(t *testing.T) {
	run := func(opts ...Option) (time.Duration, Stats) {
		r := newRig(t, 3, opts...)
		reg, err := r.client.Malloc("db", 8192)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reg.Local {
			reg.Local[i] = byte(i)
		}
		for k := 0; k < 10; k++ {
			if err := r.client.Push(reg, uint64(k*64), 64); err != nil {
				t.Fatal(err)
			}
			if err := r.client.PushMany(reg, []Range{
				{Offset: uint64(k * 128), Length: 100},
				{Offset: 4096 + uint64(k*96), Length: 33},
			}); err != nil {
				t.Fatal(err)
			}
		}
		return r.clock.Now(), r.client.Stats()
	}
	parTime, parStats := run()
	serTime, serStats := run(WithSerialFanout())
	if parTime != serTime {
		t.Errorf("virtual time diverged: parallel %v, serial %v", parTime, serTime)
	}
	if parStats != serStats {
		t.Errorf("stats diverged:\nparallel %+v\nserial   %+v", parStats, serStats)
	}
}

// TestPushAllocsZero pins the allocation-free steady-state commit path:
// after warm-up, Push and PushMany over a 2-mirror parallel fan-out, and
// over a 2-of-3 quorum client whose stragglers write from the pooled
// payload snapshot, allocate nothing.
func TestPushAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	clients := []struct {
		name    string
		mirrors int
		opts    []Option
	}{
		{"all-ack", 2, nil},
		{"quorum", 3, []Option{WithQuorum(2)}},
	}
	for _, tc := range clients {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.mirrors, tc.opts...)
			reg, err := r.client.Malloc("db", 4096)
			if err != nil {
				t.Fatal(err)
			}
			ranges := []Range{{Offset: 0, Length: 64}, {Offset: 512, Length: 200}, {Offset: 2048, Length: 9}}
			for i := 0; i < 8; i++ { // warm the worker pool and scratch buffers
				if err := r.client.Push(reg, 128, 64); err != nil {
					t.Fatal(err)
				}
				if err := r.client.PushMany(reg, ranges); err != nil {
					t.Fatal(err)
				}
			}
			r.client.WaitCatchUp()
			if n := testing.AllocsPerRun(100, func() {
				if err := r.client.Push(reg, 128, 64); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("Push allocates %.1f objects per run, want 0", n)
			}
			if n := testing.AllocsPerRun(100, func() {
				if err := r.client.PushMany(reg, ranges); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("PushMany allocates %.1f objects per run, want 0", n)
			}
		})
	}
}

// TestInlineWorkerErrorEquivalence pins the error path of the two
// dispatch modes: a mirror that fails both write attempts but still
// answers pings surfaces the same error whether the jobs run inline
// (WithSerialFanout) or on the sender workers. Either way every other
// mirror receives the bytes, and the failing mirror, being alive, is
// not degraded.
func TestInlineWorkerErrorEquivalence(t *testing.T) {
	errFirst := errors.New("transient connection reset")
	errRetry := errors.New("frame rejected")
	run := func(opts ...Option) string {
		r := newRig(t, 3)
		mirrors := append([]Mirror(nil), r.client.mirrors...)
		mirrors[1].T = &errSeq{Transport: mirrors[1].T, errs: []error{errFirst, errRetry}}
		c, err := NewClient(mirrors, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		reg, err := c.Malloc("db", 256)
		if err != nil {
			t.Fatal(err)
		}
		copy(reg.Local, "equal")
		err = c.Push(reg, 0, 5)
		if !errors.Is(err, errRetry) {
			t.Fatalf("push error = %v, want the failing mirror's retry error", err)
		}
		for _, i := range []int{0, 2} {
			if got := mirrorBytes(t, r.servers[i], "db", 0, 5); string(got) != "equal" {
				t.Errorf("mirror %d holds %q, want %q", i, got, "equal")
			}
		}
		if c.Live() != 3 {
			t.Errorf("Live = %d, want 3 (the failing mirror answers pings)", c.Live())
		}
		return err.Error()
	}
	worker, inline := run(), run(WithSerialFanout())
	if worker != inline {
		t.Errorf("errors diverged:\nworkers %s\ninline  %s", worker, inline)
	}
}

// TestCloseDegradesToSerial: a closed client keeps its data path — a
// push after Close runs the serial loop instead of panicking on the
// stopped workers.
func TestCloseDegradesToSerial(t *testing.T) {
	r := newRig(t, 2)
	reg, err := r.client.Malloc("db", 256)
	if err != nil {
		t.Fatal(err)
	}
	copy(reg.Local, []byte("before"))
	if err := r.client.Push(reg, 0, 6); err != nil { // spins up workers
		t.Fatal(err)
	}
	r.client.Close()
	r.client.Close() // idempotent
	copy(reg.Local, []byte("afterx"))
	if err := r.client.Push(reg, 0, 6); err != nil {
		t.Fatalf("push after Close: %v", err)
	}
	for i, srv := range r.servers {
		if got := mirrorBytes(t, srv, "db", 0, 6); !bytes.Equal(got, []byte("afterx")) {
			t.Errorf("mirror %d holds %q", i, got)
		}
	}
}

// TestFanoutRaceMirrorDeathAndRebuild hammers the fan-out while a
// mirror dies and is rebuilt onto a replacement — the torture test the
// race detector runs over the topology lock, the dirty-range tracking
// and the sender workers. After the dust settles every surviving mirror
// must match local memory byte for byte.
func TestFanoutRaceMirrorDeathAndRebuild(t *testing.T) {
	r := newRig(t, 3)
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

	mismatches, err := r.client.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mismatches {
		t.Errorf("post-rebuild divergence: %v", m)
	}
}
