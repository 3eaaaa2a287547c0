package main

import (
	"testing"
	"time"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/transport"
)

// TestTimedTransportInterfaces pins that the transport wrapper exposes
// exactly the optional interfaces the wrapped *transport.TCP does, so
// netram's type assertions take the same paths through it.
func TestTimedTransportInterfaces(t *testing.T) {
	var bare transport.Transport = &transport.TCP{}
	var wrapped transport.Transport = &timedTransport{}
	for name, has := range map[string]func(transport.Transport) bool{
		"BatchWriter":  func(x transport.Transport) bool { _, ok := x.(transport.BatchWriter); return ok },
		"Disconnector": func(x transport.Transport) bool { _, ok := x.(transport.Disconnector); return ok },
		"Prober":       func(x transport.Transport) bool { _, ok := x.(transport.Prober); return ok },
		"Filler":       func(x transport.Transport) bool { _, ok := x.(transport.Filler); return ok },
	} {
		if has(bare) != has(wrapped) {
			t.Errorf("%s: *transport.TCP %v, wrapper %v", name, has(bare), has(wrapped))
		}
	}
}

// TestTimedEngineHandsThrough pins that the engine wrapper hands the
// library's own database handles through and forwards TraceID.
func TestTimedEngineHandsThrough(t *testing.T) {
	in, err := newInstallation(timed, newRecorder(), 1, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	db, err := in.eng.OpenDB("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.(*core.Database); !ok {
		t.Errorf("OpenDB through the wrapper returned %T, want *core.Database", db)
	}
	tx, err := in.eng.Begin()
	if err != nil {
		t.Fatal(err)
	}
	inner := tx.(timedTx).tx.(*core.Tx)
	if got := tx.(interface{ TraceID() uint64 }).TraceID(); got != inner.TraceID() {
		t.Errorf("TraceID through the wrapper = %d, want %d", got, inner.TraceID())
	}
	if err := tx.SetRange(db, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := len(in.rec.snapshot()); n == 0 {
		t.Error("no spans recorded")
	}
}

// TestWrappersInvisible is the self-test every traced remote-1 run also
// makes: the same inputs cause identical per-transaction connection,
// memory-server and netram counts with and without the timing wrappers.
func TestWrappersInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the remote-1 workload twice")
	}
	cfg := config{seed: 7, measure: 200 * time.Millisecond, setups: 1}
	cfg.mode = counted
	a, err := runRemote(cfg, 1, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.mode, cfg.rec = timed, newRecorder()
	b, err := runRemote(cfg, 1, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCounts("remote-1", a, b); err != nil {
		t.Fatal(err)
	}
	if a.count.client.writes != 12*a.countTx {
		t.Errorf("client writes = %d over %d tx, want 12 per tx", a.count.client.writes, a.countTx)
	}
	if len(b.spans) == 0 || len(a.spans) != 0 {
		t.Errorf("spans: untraced run %d, timed run %d; want none, then some", len(a.spans), len(b.spans))
	}
}
