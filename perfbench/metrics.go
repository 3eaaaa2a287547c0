package main

import (
	"fmt"
	"io"
	"slices"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// endToEnd computes the bounded user-visible metrics of a run: those
// whose run-to-run spread stays well inside the benchmark's bounds on a
// shared host. setup_s is the process CPU time a set-up takes, not its
// wall time: while the hypervisor steals CPU, every cross-thread wake-up
// of a set-up's loopback transfers waits for a descheduled vCPU, so at
// 30 % steal (2-vCPU Xeon guest) its wall time grows by up to 2x, its
// CPU time by about 15 %.
func endToEnd(r *result) []metric {
	w := r.window
	return []metric{
		{"setup_s", "s", float64(median(r.setupCPU)) / 1e9},
		{"net_bytes_per_tx", "B/tx", ratio(float64(w.client.bytes+w.mirror.bytes), float64(r.committed))},
		{"heap_peak_mb", "MB", float64(r.heapPeak) / (1 << 20)},
	}
}

// hostFigures computes the user-visible metrics that follow the load
// other tenants put on a shared host: throughput, latency, CPU per
// transaction and recovery times move with the hypervisor's CPU steal,
// between runs of the same code, further than any bound the benchmark
// could hold them to. They are printed on every run and reported,
// unbounded, with the per-layer metrics.
func hostFigures(r *result) []metric {
	var rate, cpu []float64
	for _, s := range r.segs {
		rate = append(rate, ratio(float64(s.txs), float64(s.wall)/1e9))
		cpu = append(cpu, ratio(us(s.cpu), float64(s.txs)))
	}
	return []metric{
		{"tx_per_s", "1/s", medianF(rate)},
		{"cpu_us_per_tx", "us", medianF(cpu)},
		{"lat_p50_us", "us", us(median(r.lat))},
		{"lat_p99_us", "us", us(blockP99(r.lat))},
		{"recover_p50_ms", "ms", ms(median(r.attach))},
		{"verify_p50_ms", "ms", ms(median(r.verify))},
	}
}

// perLayer computes the per-layer metrics from an untraced run (a: no
// timing wrappers; every count, the proc figures and the host figures
// come from it) and a timed run of the same inputs (b: every span
// figure comes from it). Self times need one transaction in flight
// (nested); elsewhere they are reported as 0, except Attach's, which
// always runs alone.
func perLayer(a, b *result, nested bool, steal float64) []metric {
	tx := float64(a.countTx)
	per := func(n uint64) float64 { return ratio(float64(n), tx) }
	c := a.count
	sp := spanStats(b.spans, nested)

	return append(hostFigures(a), []metric{
		{"txclient.begin_us", "us", sp.p50(layerTxclient, opBegin)},
		{"txclient.setrange_us", "us", sp.p50(layerTxclient, opSetRange)},
		{"txclient.commit_us", "us", sp.p50(layerTxclient, opCommit)},
		{"txclient.busy_retries_per_tx", "1/tx", per(c.busyReplies)},

		{"wire.client_writes_per_tx", "1/tx", per(c.client.writes)},
		{"wire.client_reads_per_tx", "1/tx", per(c.client.reads)},
		{"wire.client_bytes_per_tx", "B/tx", per(c.client.bytes)},
		{"wire.server_writes_per_tx", "1/tx", per(c.server.writes)},
		{"wire.server_reads_per_tx", "1/tx", per(c.server.reads)},
		{"wire.mirror_writes_per_tx", "1/tx", per(c.mirror.writes)},
		{"wire.mirror_reads_per_tx", "1/tx", per(c.mirror.reads)},
		{"wire.mirror_bytes_per_tx", "B/tx", per(c.mirror.bytes)},

		{"txserver.frontdoor_us", "us/tx", us(sp.frontdoor)},
		{"txserver.batch_p50", "count", float64(a.batchP50)},
		{"txserver.batch_max", "count", float64(a.batchMax)},
		{"txserver.busy_per_tx", "1/tx", per(c.busy)},

		{"core.begin_us", "us", sp.p50(layerCore, opBegin)},
		{"core.setrange_us", "us", sp.p50(layerCore, opSetRange)},
		{"core.commit_us", "us", sp.p50(layerCore, opCommit)},
		{"core.commit_self_us", "us", us(sp.commitSelf)},
		{"core.conflicts_per_tx", "1/tx", per(c.conflicts)},
		{"core.attach_self_ms", "ms", ms(sp.attachSelf)},

		{"netram.pushes_per_tx", "1/tx", per(c.net.Pushes)},
		{"netram.wire_bytes_per_tx", "B/tx", per(c.net.WireBytes)},
		{"netram.retries", "count", float64(a.count.retries + a.window.retries)},
		{"netram.fetched_mb", "MB", meanU(a.attachFetched) / (1 << 20)},

		{"transport.calls_per_tx", "1/tx", ratio(float64(b.count.calls), float64(b.countTx))},
		{"transport.write_us", "us", sp.p50(layerTransport, opWrite)},
		{"transport.writebatch_us", "us", sp.p50(layerTransport, opWriteBatch)},
		{"transport.critical_us_per_tx", "us", us(sp.critical)},
		{"transport.read_us", "us", sp.p50(layerTransport, opRead)},
		{"transport.read_mb_per_s", "MB/s", sp.readMBps},

		{"memserver.write_ops_per_tx", "1/tx", per(c.mem.writeOps)},
		{"memserver.batch_ops_per_tx", "1/tx", per(c.mem.batchOps)},
		{"memserver.bytes_written_per_tx", "B/tx", per(c.mem.bytesWritten)},
		{"memserver.read_ops", "count", meanU(a.attachReads)},
		{"memserver.held_per_db_byte", "B/B", a.heldPerDBByte},

		{"proc.allocs_per_tx", "1/tx", per(c.mallocs)},
		{"proc.alloc_bytes_per_tx", "B/tx", per(c.allocBytes)},
		{"proc.gc_per_ktx", "1/ktx", 1000 * ratio(float64(a.window.gcs), float64(a.committed))},
		{"proc.steal_pct", "%", steal},
		{"trace.overhead_pct", "%", 100 * ratio(float64(median(b.lat)-median(a.lat)), float64(median(a.lat)))},
	}...)
}

// meanU is the mean of xs, 0 when empty.
func meanU(xs []uint64) float64 {
	var sum uint64
	for _, x := range xs {
		sum += x
	}
	return ratio(float64(sum), float64(len(xs)))
}

// call is one kind of timed call: a layer's entry point.
type call struct {
	layer layer
	op    op
}

// spanFigures are the figures derived from one timed run's spans.
type spanFigures struct {
	durs map[call][]int64
	// Medians of self and covered time: commit time not covered by a
	// transport call and commit time with one outstanding, per commit;
	// Attach time not covered by a transport call; and per transaction,
	// client call time not spent inside the engine calls it caused.
	commitSelf, critical, attachSelf, frontdoor int64
	readMBps                                    float64
}

func (f spanFigures) p50(l layer, o op) float64 {
	return us(median(f.durs[call{l, o}]))
}

// spanStats nests the spans — across the whole run when one transaction
// was in flight at a time, otherwise only over the recovery cycles that
// follow the load — and derives the span figures.
func spanStats(spans []span, nested bool) spanFigures {
	f := spanFigures{durs: make(map[call][]int64)}
	from := 0
	if !nested {
		// Recovery cycles start at the first Attach.
		from = slices.IndexFunc(spans, func(s span) bool { return s.op == opAttach })
		if from < 0 {
			from = len(spans)
		}
	}
	nest(spans, from)
	kids := children(spans)

	var commitSelf, critical, attachSelf, frontdoor []int64
	var readBytes uint64
	var readNs, txFront int64
	inTx := false
	for i, s := range spans {
		k := call{s.layer, s.op}
		f.durs[k] = append(f.durs[k], s.dur())
		if s.layer == layerTransport && s.op == opRead {
			readBytes += s.bytes
			readNs += s.dur()
		}
		if i < from {
			continue
		}
		self := selfTime(spans, int32(i), kids[int32(i)])
		switch {
		case s.layer == layerCore && s.op == opCommit && nested:
			commitSelf = append(commitSelf, self)
			critical = append(critical, s.dur()-self)
		case s.layer == layerCore && s.op == opAttach:
			attachSelf = append(attachSelf, self)
		case s.layer == layerTxclient && nested:
			if s.op == opBegin && inTx {
				frontdoor = append(frontdoor, txFront)
				txFront = 0
			}
			inTx = true
			txFront += self
		}
	}
	if inTx {
		frontdoor = append(frontdoor, txFront)
	}
	f.commitSelf, f.critical = median(commitSelf), median(critical)
	f.attachSelf, f.frontdoor = median(attachSelf), median(frontdoor)
	f.readMBps = ratio(float64(readBytes)/(1<<20), float64(readNs)/1e9)
	return f
}

// printMetrics writes one human-readable line per metric.
func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", m.name, m.value, m.unit)
	}
}
