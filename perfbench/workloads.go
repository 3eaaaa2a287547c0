package main

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"github.com/ics-forth/perseas/internal/bench"
	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/fault"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/txclient"
)

// crashKind is how every workload fails the primary.
const crashKind = fault.CrashPower

// Run-shape constants: every run of a workload has the same shape, and
// only --seconds stretches its measured window.
const (
	// warmup runs the workload unmeasured after set-up.
	warmup = 500 * time.Millisecond
	// countTxs is the count window: a remote run's per-transaction
	// counts come from exactly this many transactions, spread evenly
	// over the callers.
	countTxs = 1024
	// recoverFor is how long a remote workload keeps running
	// crash-and-recover cycles on its database after the load, in at
	// least minCycles cycles.
	recoverFor = 1500 * time.Millisecond
	// historyTxs and inflightTxs shape one recover cycle: committed
	// transactions, then transactions left in flight at the crash (every
	// other one prepared, its data already on the mirrors).
	historyTxs  = 200
	inflightTxs = 4
	// minCycles is the least number of measured recovery cycles.
	minCycles = 5
)

// config is one workload run's settings.
type config struct {
	seed    int64
	measure time.Duration
	mode    mode
	rec     *recorder
	// setups is how many times the installation is built; all but the
	// last are torn down again, and setup_s is their median.
	setups int
}

// counters is a snapshot of every counter the benchmark reads from
// outside the program: its own connection and transport counters, the
// layers' public Stats, and the Go runtime.
type counters struct {
	client, server, mirror wireSnap
	calls                  uint64
	mem                    memStats
	net                    netram.Stats
	retries                uint64
	conflicts              uint64
	busy, busyReplies      uint64
	mallocs, allocBytes    uint64
	gcs                    uint64
}

// memStats is the subset of memserver.Stats the benchmark reports.
type memStats struct{ writeOps, batchOps, bytesWritten, readOps uint64 }

func (a counters) sub(b counters) counters {
	return counters{
		client: a.client.sub(b.client), server: a.server.sub(b.server), mirror: a.mirror.sub(b.mirror),
		calls: a.calls - b.calls,
		mem: memStats{a.mem.writeOps - b.mem.writeOps, a.mem.batchOps - b.mem.batchOps,
			a.mem.bytesWritten - b.mem.bytesWritten, a.mem.readOps - b.mem.readOps},
		net: netram.Stats{Pushes: a.net.Pushes - b.net.Pushes, PushedBytes: a.net.PushedBytes - b.net.PushedBytes,
			WireBytes: a.net.WireBytes - b.net.WireBytes, Fetches: a.net.Fetches - b.net.Fetches,
			FetchedBytes: a.net.FetchedBytes - b.net.FetchedBytes},
		retries:   a.retries - b.retries,
		conflicts: a.conflicts - b.conflicts,
		busy:      a.busy - b.busy, busyReplies: a.busyReplies - b.busyReplies,
		mallocs: a.mallocs - b.mallocs, allocBytes: a.allocBytes - b.allocBytes,
		gcs: a.gcs - b.gcs,
	}
}

// add is sub's inverse: subtracting b from zero wraps around, and
// subtracting that adds b back.
func (a counters) add(b counters) counters {
	var zero counters
	return a.sub(zero.sub(b))
}

// snapshot reads every counter. It stops the world briefly for the
// runtime's allocation counters, so it runs only at window edges.
func (in *installation) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		client: in.client.snap(), server: in.server.snap(), mirror: in.mirror.snap(),
		calls:     in.transportCalls(),
		mem:       in.memStats(),
		conflicts: in.lib.Stats().Conflicts,
		mallocs:   ms.Mallocs, allocBytes: ms.TotalAlloc, gcs: uint64(ms.NumGC),
	}
	if in.ram != nil {
		c.net = in.ram.Stats()
		c.retries = in.ram.Metrics().Retries.Load()
	}
	if in.srv != nil {
		c.busy = in.srv.Stats().BusyRejected
		c.busyReplies = in.cl.Metrics().BusyReplies.Load()
	}
	return c
}

// result is what one workload run measured.
type result struct {
	// setups and setupCPU are each set-up's wall time and the process
	// CPU time it took.
	setups, setupCPU []int64
	// The measured window: committed transactions, their caller-side
	// latencies in completion order, and the window cut into segments.
	committed uint64
	lat       []int64
	segs      []segment
	heapPeak  uint64
	// window holds the counter deltas over the measured window, count
	// those over the count window of countTx transactions.
	window  counters
	count   counters
	countTx uint64
	// Recovery cycles: Attach and VerifyAll wall times, and per attach
	// the memory servers' read operations and the bytes netram fetched.
	attach, verify []int64
	attachReads    []uint64
	attachFetched  []uint64
	// Front-door convoy figures (remote workloads).
	batchP50, batchMax uint64
	heldPerDBByte      float64
	spans              []span
}

// collect runs a garbage collection and notes the heap it found in
// use. The workloads collect after set-up, after the load and after
// each recovery cycle, so every cycle starts from the same heap and the
// peak does not depend on where the runtime's own collections fall.
func (res *result) collect() {
	runtime.GC()
	res.heapPeak = max(res.heapPeak, heapLive())
}

// buildInstallations runs cfg.setups set-ups, timing each, and keeps
// the last.
func buildInstallations(cfg config, res *result, branches, accounts, conns int) (*installation, error) {
	var in *installation
	idle := runtime.NumGoroutine()
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			in.close()
			in = nil
			quiesce(idle)
		}
		// Each set-up starts cold, as in a fresh process: the heap
		// collected and every free page handed back to the kernel. Left
		// to the runtime's background scavenger, the share of pages a
		// set-up faults in again, and with it the set-up's time, would
		// vary from one set-up to the next.
		debug.FreeOSMemory()
		cpu0, start := cpuNow(), time.Now()
		var err error
		if in, err = newInstallation(cfg.mode, cfg.rec, branches, accounts, conns); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, int64(time.Since(start)))
		res.setupCPU = append(res.setupCPU, cpuNow()-cpu0)
	}
	res.heldPerDBByte = float64(in.mirrors[0].Held()) / float64(in.wl.DBBytes())
	res.collect()
	return in, nil
}

// quiesce waits, at most two seconds, until the goroutines of a closed
// installation have ended and the process is back to its idle count,
// so that nothing of it is still live when the next set-up starts.
func quiesce(idle int) {
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > idle && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// segment is one slice of a measured window — a second of a remote
// run, one commit phase of a recover cycle — with the transactions
// committed in it and the wall and process CPU time it took.
type segment struct {
	txs       uint64
	wall, cpu int64
}

// caller is one synchronous client of a workload. While recording, it
// keeps each transaction's latency and completion time.
type caller struct {
	rng      *rand.Rand
	ledger   int64
	txs      uint64
	lat, end []int64
}

// oneTx runs debit-credit transactions until one commits, retrying
// conflicts and busy rejections after a short randomised pause, and
// returns the latency from the first Begin to the commit ack.
func (c *caller) oneTx(e engine.Engine, wl *bench.DebitCredit) (int64, error) {
	start := time.Now()
	busyWait := time.Millisecond
	for {
		delta, err := wl.ConcurrentTxDelta(e, c.rng)
		switch {
		case err == nil:
			c.ledger += delta
			c.txs++
			return int64(time.Since(start)), nil
		case errors.Is(err, engine.ErrConflict):
			time.Sleep(time.Duration(50+c.rng.Intn(150)) * time.Microsecond)
		case errors.Is(err, txclient.ErrBusy):
			time.Sleep(busyWait + time.Duration(c.rng.Int63n(int64(busyWait))))
			busyWait = min(2*busyWait, time.Second)
		default:
			return 0, err
		}
	}
}

// drive runs every caller concurrently, each until it has committed n
// transactions (n > 0) or until the deadline passes (n == 0). With a
// non-zero t0 it records latencies and completion times since t0.
func drive(callers []*caller, e engine.Engine, wl *bench.DebitCredit, n uint64, deadline, t0 time.Time) error {
	var wg sync.WaitGroup
	errs := make([]error, len(callers))
	for i, c := range callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			target := c.txs + n
			for (n > 0 && c.txs < target) || (n == 0 && time.Now().Before(deadline)) {
				lat, err := c.oneTx(e, wl)
				if err != nil {
					errs[i] = fmt.Errorf("caller %d: %w", i, err)
					return
				}
				if !t0.IsZero() {
					c.lat = append(c.lat, lat)
					c.end = append(c.end, int64(time.Since(t0)))
				}
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runRemote is the remote-N workloads: callers synchronous goroutines
// share one txclient with conns pooled connections to a txserver over
// the library, running TPC-B debit-credit on branches branches of
// accounts accounts (0 = the bench default).
func runRemote(cfg config, callers, conns, branches, accounts int) (*result, error) {
	res := &result{}
	in, err := buildInstallations(cfg, res, branches, accounts, conns)
	if err != nil {
		return nil, err
	}
	defer in.close()
	cs := make([]*caller, callers)
	for i := range cs {
		cs[i] = &caller{rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(i)))}
	}
	if err := drive(cs, in.eng, in.wl, 0, time.Now().Add(warmup), time.Time{}); err != nil {
		return nil, err
	}
	before := in.snapshot()
	if err := drive(cs, in.eng, in.wl, countTxs/uint64(callers), time.Time{}, time.Time{}); err != nil {
		return nil, err
	}
	res.count = in.snapshot().sub(before)
	res.countTx = uint64(callers) * (countTxs / uint64(callers))
	cfg.rec.reset()

	var txs0 uint64
	for _, c := range cs {
		txs0 += c.txs
	}
	before = in.snapshot()
	t0 := time.Now()
	ticks := startTicks(t0)
	if err := drive(cs, in.eng, in.wl, 0, t0.Add(cfg.measure), t0); err != nil {
		ticks.finish()
		return nil, err
	}
	res.window = in.snapshot().sub(before)
	var ledger int64
	for _, c := range cs {
		res.committed += c.txs
		ledger += c.ledger
	}
	res.committed -= txs0
	res.lat, res.segs = ticks.finish().segments(cs)
	res.collect()
	st := in.srv.Stats()
	res.batchP50, res.batchMax = st.BatchP50, st.BatchMax

	if err := auditRemote(in, ledger); err != nil {
		return nil, err
	}
	// Power-fail the front door's primary and recover the database from
	// the mirrors, cycle after cycle; every cycle re-audits the ledger.
	in.cl.Close()
	in.srvL.Close()
	in.cl, in.srvL, in.srv = nil, nil, nil
	want := in.lib.CommittedTxID()
	if err := in.dropPrimary(); err != nil {
		return nil, err
	}
	for i, start := 0, time.Now(); i < minCycles || time.Since(start) < recoverFor; i++ {
		if err := recoverCycle(cfg, in, res, ledger, want); err != nil {
			return nil, fmt.Errorf("recovery cycle %d: %w", i, err)
		}
		if err := in.dropPrimary(); err != nil {
			return nil, err
		}
	}
	res.spans = cfg.rec.snapshot()
	return res, nil
}

// auditRemote reads the tables back through a fresh client and checks
// the TPC-B balance invariant and the committed-delta ledger.
func auditRemote(in *installation, ledger int64) error {
	cl, err := txclient.New(func() (net.Conn, error) { return net.Dial("tcp", in.srvL.Addr().String()) }, txclient.WithConns(1))
	if err != nil {
		return err
	}
	defer cl.Close()
	wl, err := in.newTables()
	if err != nil {
		return err
	}
	if err := wl.Attach(cl, 0); err != nil {
		return fmt.Errorf("audit attach: %w", err)
	}
	return checkLedger(wl, ledger)
}

// checkLedger checks the balance invariant and that the account table
// moved by exactly the sum of the committed deltas.
func checkLedger(wl *bench.DebitCredit, ledger int64) error {
	if err := wl.CheckConsistency(); err != nil {
		return fmt.Errorf("%w: %v", errAudit, err)
	}
	if got := wl.AccountsDelta(); got != ledger {
		return fmt.Errorf("%w: account drift %d != committed-delta ledger %d", errAudit, got, ledger)
	}
	return nil
}

// recoverCycle re-attaches a fresh primary to the mirrors after a
// crash, times core.Attach and VerifyAll, and audits the recovered
// database: the recovered committed id is the last acknowledged one
// (no acknowledged commit lost, no in-flight one committed), the tables
// hold exactly the ledger's committed deltas, and the mirrors agree
// byte for byte. The recovered library becomes the installation's
// primary.
func recoverCycle(cfg config, in *installation, res *result, ledger int64, acked uint64) error {
	if err := in.dial(); err != nil {
		return err
	}
	reads0 := in.memStats().readOps
	start := cfg.rec.now()
	t0 := time.Now()
	lib, err := core.Attach(in.ram, simclock.NewWall())
	if err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	res.attach = append(res.attach, int64(time.Since(t0)))
	cfg.rec.add(layerCore, opAttach, start, 0)
	res.attachReads = append(res.attachReads, in.memStats().readOps-reads0)
	res.attachFetched = append(res.attachFetched, in.ram.Stats().FetchedBytes)
	in.lib = lib
	in.eng = in.wrapEngine(lib, layerCore)

	if id := lib.CommittedTxID(); id != acked {
		return fmt.Errorf("%w: recovered committed tx id %d, acknowledged %d", errAudit, id, acked)
	}
	wl, err := in.newTables()
	if err != nil {
		return err
	}
	if err := wl.Attach(in.eng, 0); err != nil {
		return fmt.Errorf("reopen tables: %w", err)
	}
	if err := checkLedger(wl, ledger); err != nil {
		return err
	}
	in.wl = wl

	t0 = time.Now()
	mm, err := in.ram.VerifyAll()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	res.verify = append(res.verify, int64(time.Since(t0)))
	if len(mm) != 0 {
		return fmt.Errorf("%w: %d mirror mismatches, first: %v", errAudit, len(mm), mm[0])
	}
	res.collect()
	return nil
}

// runRecover is the recover workload: the library over the mirrors,
// cycles of committed debit-credit history, transactions left in
// flight, a power failure of the primary, and recovery on a fresh
// netram client.
func runRecover(cfg config, branches, accounts int) (*result, error) {
	res := &result{}
	in, err := buildInstallations(cfg, res, branches, accounts, 0)
	if err != nil {
		return nil, err
	}
	defer in.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	c := &caller{rng: rng}
	start := time.Now()
	for cycle := 0; ; cycle++ {
		measured := cycle > 0
		if measured && cycle == 1 {
			cfg.rec.reset()
			start = time.Now()
		}
		if measured && cycle > minCycles && time.Since(start) >= cfg.measure {
			break
		}
		// Committed history, closed loop, one caller.
		before := in.snapshot()
		cpu0, t0 := cpuNow(), time.Now()
		for i := 0; i < historyTxs; i++ {
			lat, err := c.oneTx(in.eng, in.wl)
			if err != nil {
				return nil, err
			}
			if measured {
				res.lat = append(res.lat, lat)
			}
		}
		seg := segment{txs: historyTxs, wall: int64(time.Since(t0)), cpu: cpuNow() - cpu0}
		if measured {
			res.segs = append(res.segs, seg)
			res.committed += historyTxs
			res.window = res.window.add(in.snapshot().sub(before))
		}
		acked := in.lib.CommittedTxID()

		// Transactions in flight at the crash.
		for i := 0; i < inflightTxs; i++ {
			hold := holdEngine{Library: in.lib, prepare: i%2 == 1}
			for {
				_, err := in.wl.ConcurrentTxDelta(hold, rng)
				if errors.Is(err, errHeld) {
					break
				}
				if !errors.Is(err, engine.ErrConflict) {
					return nil, fmt.Errorf("in-flight tx: %w", err)
				}
			}
		}
		if err := in.dropPrimary(); err != nil {
			return nil, err
		}
		if err := recoverCycle(cfg, in, res, c.ledger, acked); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if !measured {
			res.attach, res.verify = nil, nil
			res.attachReads, res.attachFetched = nil, nil
		}
	}
	res.count, res.countTx = res.window, res.committed
	res.spans = cfg.rec.snapshot()
	return res, nil
}

// ticks samples the process CPU time once a second through a measured
// window; the samples cut the window into segments.
type ticks struct {
	t0   time.Time
	stop chan struct{}
	done chan struct{}
	at   []int64 // ns since t0
	cpu  []int64
}

func startTicks(t0 time.Time) *ticks {
	t := &ticks{t0: t0, stop: make(chan struct{}), done: make(chan struct{})}
	t.sample()
	go func() {
		defer close(t.done)
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tk.C:
				t.sample()
			}
		}
	}()
	return t
}

// finish stops the sampler after a last sample at the window's end.
func (t *ticks) finish() *ticks {
	close(t.stop)
	<-t.done
	t.sample()
	return t
}

func (t *ticks) sample() {
	t.at = append(t.at, int64(time.Since(t.t0)))
	t.cpu = append(t.cpu, cpuNow())
}

// segments merges the callers' recorded latencies into completion order
// and counts the completions falling in each sampled second. A last
// stretch shorter than half a second is dropped from the segments.
func (t *ticks) segments(cs []*caller) ([]int64, []segment) {
	type done struct{ end, lat int64 }
	var all []done
	for _, c := range cs {
		for i := range c.lat {
			all = append(all, done{c.end[i], c.lat[i]})
		}
	}
	slices.SortFunc(all, func(a, b done) int { return cmp.Compare(a.end, b.end) })
	lat := make([]int64, len(all))
	for i, d := range all {
		lat[i] = d.lat
	}
	var segs []segment
	k := 0
	for i := 1; i < len(t.at); i++ {
		seg := segment{wall: t.at[i] - t.at[i-1], cpu: t.cpu[i] - t.cpu[i-1]}
		for ; k < len(all) && all[k].end <= t.at[i]; k++ {
			seg.txs++
		}
		if seg.wall >= int64(time.Second/2) {
			segs = append(segs, seg)
		}
	}
	return lat, segs
}
