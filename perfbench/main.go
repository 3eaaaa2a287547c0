// Command perfbench is the PERSEAS benchmark: remote TPC-B commits
// through the transaction front door and crash recovery from the
// mirrors, over loopback TCP inside one process, measured end to end
// and per layer. See README.md for the workloads and metrics.
//
//	perfbench --workload remote-1 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 the per-layer metrics of an untraced and a timed run
// of the same inputs. Untraced runs count connection calls and bytes
// but record no spans. Every run audits the database and exits
// non-zero, printing no result, when an audit fails. The last line of
// standard output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one benchmark input set.
type workload struct {
	name string
	// nested marks workloads with one transaction in flight at a time,
	// where spans nest by their intervals.
	nested bool
	run    func(config) (*result, error)
}

var workloads = []workload{
	{"remote-1", true, func(c config) (*result, error) { return runRemote(c, 1, 1, 4, 0) }},
	{"remote-16", false, func(c config) (*result, error) { return runRemote(c, 16, 2, 64, 250) }},
	{"recover", true, func(c config) (*result, error) { return runRecover(c, 32, 0) }},
}

// setupRuns is how many times an untraced run builds its installation.
const setupRuns = 15

// spansDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
const spansDir = ".bench_build/spans"

func main() {
	name := flag.String("workload", "", "workload: remote-1, remote-16 or recover")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 = per-layer metrics from an untraced and a timed run")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, measure time.Duration, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if measure <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	cpu0, statOK := readCPUTimes()

	// One untraced run, or an untraced and a timed run of the same inputs.
	var res, timedRes *result
	var err error
	if !traced {
		res, err = w.run(config{seed: seed, measure: measure, mode: counted, setups: setupRuns})
	} else if res, err = w.run(config{seed: seed, measure: measure / 2, mode: counted, setups: 1}); err == nil {
		timedRes, err = w.run(config{seed: seed, measure: measure / 2, mode: timed, rec: newRecorder(), setups: 1})
	}
	if err != nil {
		return err
	}
	steal := 0.0
	if cpu1, ok := readCPUTimes(); ok && statOK {
		steal = stealPct(cpu0, cpu1)
	}

	ms := endToEnd(res)
	if traced {
		if err := sameCounts(w.name, res, timedRes); err != nil {
			return err
		}
		ms = perLayer(res, timedRes, w.nested, steal)
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.tsv", w.name, seed))
		if err := writeSpans(path, timedRes.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(timedRes.spans), path)
	}
	attempted := res.committed + uint64(len(res.attach))
	fmt.Println(healthLine(seed, steal))
	fmt.Printf("workload %s: %d committed tx, %d recovery cycles, %d latency samples, failed_frac 0\n",
		w.name, res.committed, len(res.attach), len(res.lat))
	sw, sc := quantiles(res.setups, 0, 0.5, 1), quantiles(res.setupCPU, 0, 0.5, 1)
	fmt.Printf("setup: %d set-ups, wall ms min %.2f median %.2f max %.2f, cpu ms min %.2f median %.2f max %.2f\n",
		len(res.setups), us(sw[0])/1e3, us(sw[1])/1e3, us(sw[2])/1e3, us(sc[0])/1e3, us(sc[1])/1e3, us(sc[2])/1e3)
	q := quantiles(res.lat, 0.5, 0.9, 0.95, 0.99, 0.999, 1)
	fmt.Printf("latency: %d samples, us p50 %.1f p90 %.1f p95 %.1f p99 %.1f p99.9 %.1f max %.1f\n",
		len(res.lat), us(q[0]), us(q[1]), us(q[2]), us(q[3]), us(q[4]), us(q[5]))
	printMetrics(os.Stdout, ms)
	if !traced {
		fmt.Println("unbounded host-dependent figures:")
		printMetrics(os.Stdout, hostFigures(res))
	}

	out := map[string]any{
		"correct":   true,
		"attempted": attempted,
		"failed":    0,
		"metrics":   jsonMetrics(ms),
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// jsonMetrics shapes metrics as the result line's "metrics" object.
func jsonMetrics(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// sameCounts is the wrappers' invisibility check: on remote-1, where
// one transaction is in flight at a time, the timed run must cause
// exactly the per-transaction connection, memory-server and netram
// counts the untraced run did.
func sameCounts(name string, a, b *result) error {
	if name != "remote-1" {
		return nil
	}
	strip := func(c counters) counters {
		return counters{client: c.client, server: c.server, mirror: c.mirror, mem: c.mem, net: c.net}
	}
	if a.countTx != b.countTx || strip(a.count) != strip(b.count) {
		return fmt.Errorf("timing wrappers changed the per-tx counts:\n  without: %+v\n  with:    %+v",
			strip(a.count), strip(b.count))
	}
	return nil
}
