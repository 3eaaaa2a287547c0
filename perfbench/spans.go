package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// layer names the module a span times. Lower values sit higher on the
// call path, so a span's parent always has a lower layer.
type layer uint8

const (
	layerTxclient layer = iota
	layerCore
	layerTransport
)

var layerNames = [...]string{"txclient", "core", "transport"}

func (l layer) String() string { return layerNames[l] }

// op names the call a span times.
type op uint8

const (
	opBegin op = iota
	opSetRange
	opCommit
	opAbort
	opAttach
	opWrite
	opWriteBatch
	opRead
	opOther
)

var opNames = [...]string{"begin", "set_range", "commit", "abort", "attach", "write", "write_batch", "read", "other"}

func (o op) String() string { return opNames[o] }

// span is one timed call into a layer, made by the benchmark's own
// wrappers. Times are nanoseconds since the recorder's base; parent is
// the index of the enclosing span (-1 when none), filled in by nest.
type span struct {
	start, end int64
	bytes      uint64
	parent     int32
	layer      layer
	op         op
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps the benchmark's spans in memory for one traced run. The
// program's own tracer stays off; these spans come only from wrappers
// around the program's public functions. A nil recorder records nothing.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// now is the recorder's clock: monotonic nanoseconds since base.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.base))
}

// add records a call that began at start and ends now.
func (r *recorder) add(l layer, o op, start int64, n uint64) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{start: start, end: end, bytes: n, parent: -1, layer: l, op: o})
	r.mu.Unlock()
}

// reset drops the spans recorded so far.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by start time.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := slices.Clone(r.spans)
	r.mu.Unlock()
	slices.SortStableFunc(out, func(a, b span) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	return out
}

// nest sets each span's parent by interval nesting: the span of the
// nearest higher layer whose interval encloses it. It is sound only
// where each layer runs one call at a time (one transaction in flight),
// so spans of one layer never overlap each other — except transport
// spans, which overlap across mirrors but are never parents. Only
// spans[from:] are nested; spans must be ordered by start.
func nest(spans []span, from int) {
	var byLayer [len(layerNames)][]int32
	for i := from; i < len(spans); i++ {
		byLayer[spans[i].layer] = append(byLayer[spans[i].layer], int32(i))
	}
	for i := from; i < len(spans); i++ {
		s := &spans[i]
		for pl := int(s.layer) - 1; pl >= 0 && s.parent < 0; pl-- {
			cand := byLayer[pl]
			// The last parent candidate starting at or before s.
			k := sort.Search(len(cand), func(j int) bool { return spans[cand[j]].start > s.start })
			if k == 0 {
				continue
			}
			if p := cand[k-1]; spans[p].end >= s.end {
				s.parent = p
			}
		}
	}
}

// children groups child span indices by parent index.
func children(spans []span) map[int32][]int32 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	return kids
}

// selfTime is a span's duration minus the part of it its children
// cover (overlapping children count once).
func selfTime(spans []span, p int32, kids []int32) int64 {
	ivs := make([]interval, len(kids))
	for i, k := range kids {
		ivs[i] = interval{spans[k].start, spans[k].end}
	}
	return spans[p].dur() - covered(spans[p].start, spans[p].end, ivs)
}

// writeSpans writes the spans as tab-separated text, one per line:
// index, layer, op, start ns, end ns, parent index, bytes.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "#idx\tlayer\top\tstart_ns\tend_ns\tparent\tbytes")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\t%d\n", i, s.layer, s.op, s.start, s.end, s.parent, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
