package main

import (
	"errors"
	"net"
	"sync/atomic"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/transport"
	"github.com/ics-forth/perseas/internal/wire"
)

// wireCount counts the read and write calls made on a set of
// connections and the bytes they moved. Writes count, bytes included,
// when they start and reads when they return, so a snapshot taken
// between two closed-loop transactions holds exactly the calls those
// transactions caused.
type wireCount struct {
	reads, writes, bytes atomic.Uint64
}

// wireSnap is a plain copy of a wireCount.
type wireSnap struct{ reads, writes, bytes uint64 }

func (w *wireCount) snap() wireSnap {
	return wireSnap{w.reads.Load(), w.writes.Load(), w.bytes.Load()}
}

func (a wireSnap) sub(b wireSnap) wireSnap {
	return wireSnap{a.reads - b.reads, a.writes - b.writes, a.bytes - b.bytes}
}

// countConn is a net.Conn whose reads and writes are counted. Everything
// else, deadlines included, passes through. The program's one type
// assertion on a served connection (*net.TCPConn, to set TCP_NODELAY)
// then misses, which changes nothing: Go enables TCP_NODELAY on every
// TCP connection by default.
type countConn struct {
	net.Conn
	c *wireCount
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.reads.Add(1)
	c.c.bytes.Add(uint64(n))
	return n, err
}

func (c countConn) Write(b []byte) (int, error) {
	c.c.writes.Add(1)
	c.c.bytes.Add(uint64(len(b)))
	return c.Conn.Write(b)
}

// countListener hands out counted connections.
type countListener struct {
	net.Listener
	c *wireCount
}

func (l countListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{nc, l.c}, nil
}

// timedEngine times each call into an engine.Engine as a span of one
// layer. Database handles pass through unwrapped, so the engine (and a
// txserver holding them) sees its own types.
type timedEngine struct {
	engine.Engine
	rec   *recorder
	layer layer
}

var _ engine.TraceBeginner = timedEngine{}

func (e timedEngine) Begin() (engine.Tx, error) {
	start := e.rec.now()
	tx, err := e.Engine.Begin()
	e.rec.add(e.layer, opBegin, start, 0)
	if err != nil {
		return nil, err
	}
	return timedTx{tx, e}, nil
}

// BeginTraced forwards a propagated trace context to engines that adopt
// one, as the unwrapped engine would.
func (e timedEngine) BeginTraced(traceID, parentSpan uint64) (engine.Tx, error) {
	tb, ok := e.Engine.(engine.TraceBeginner)
	if !ok {
		return e.Begin()
	}
	start := e.rec.now()
	tx, err := tb.BeginTraced(traceID, parentSpan)
	e.rec.add(e.layer, opBegin, start, 0)
	if err != nil {
		return nil, err
	}
	return timedTx{tx, e}, nil
}

// timedTx times a transaction's calls. It forwards TraceID, which the
// txserver reads from engine transactions.
type timedTx struct {
	tx engine.Tx
	e  timedEngine
}

func (t timedTx) SetRange(db engine.DB, offset, length uint64) error {
	start := t.e.rec.now()
	err := t.tx.SetRange(db, offset, length)
	t.e.rec.add(t.e.layer, opSetRange, start, length)
	return err
}

func (t timedTx) Commit() error {
	start := t.e.rec.now()
	err := t.tx.Commit()
	t.e.rec.add(t.e.layer, opCommit, start, 0)
	return err
}

func (t timedTx) Abort() error {
	start := t.e.rec.now()
	err := t.tx.Abort()
	t.e.rec.add(t.e.layer, opAbort, start, 0)
	return err
}

func (t timedTx) TraceID() uint64 {
	if tt, ok := t.tx.(interface{ TraceID() uint64 }); ok {
		return tt.TraceID()
	}
	return 0
}

// timedTransport times every call into one mirror's TCP transport. It
// implements exactly the optional interfaces *transport.TCP does
// (BatchWriter, Disconnector, Prober, Filler), so netram's type
// assertions take the same paths as on the bare transport; a test pins
// that parity.
type timedTransport struct {
	t     *transport.TCP
	rec   *recorder
	calls atomic.Uint64
}

var (
	_ transport.Transport    = (*timedTransport)(nil)
	_ transport.BatchWriter  = (*timedTransport)(nil)
	_ transport.Disconnector = (*timedTransport)(nil)
	_ transport.Prober       = (*timedTransport)(nil)
	_ transport.Filler       = (*timedTransport)(nil)
)

// begin counts a call and returns its start time.
func (t *timedTransport) begin() int64 {
	t.calls.Add(1)
	return t.rec.now()
}

func (t *timedTransport) Malloc(name string, size uint64) (transport.SegmentHandle, error) {
	start := t.begin()
	h, err := t.t.Malloc(name, size)
	t.rec.add(layerTransport, opOther, start, 0)
	return h, err
}

func (t *timedTransport) Free(seg uint32) error {
	start := t.begin()
	err := t.t.Free(seg)
	t.rec.add(layerTransport, opOther, start, 0)
	return err
}

func (t *timedTransport) Write(seg uint32, offset uint64, data []byte) error {
	start := t.begin()
	err := t.t.Write(seg, offset, data)
	t.rec.add(layerTransport, opWrite, start, uint64(len(data)))
	return err
}

func (t *timedTransport) WriteBatch(writes []transport.BatchWrite) error {
	start := t.begin()
	err := t.t.WriteBatch(writes)
	var n uint64
	for _, w := range writes {
		n += uint64(len(w.Data))
	}
	t.rec.add(layerTransport, opWriteBatch, start, n)
	return err
}

func (t *timedTransport) Read(seg uint32, offset uint64, n uint32) ([]byte, error) {
	start := t.begin()
	b, err := t.t.Read(seg, offset, n)
	t.rec.add(layerTransport, opRead, start, uint64(len(b)))
	return b, err
}

func (t *timedTransport) Fill(seg uint32, offset, n uint64) error {
	start := t.begin()
	err := t.t.Fill(seg, offset, n)
	t.rec.add(layerTransport, opOther, start, 0)
	return err
}

func (t *timedTransport) Connect(name string) (transport.SegmentHandle, error) {
	start := t.begin()
	h, err := t.t.Connect(name)
	t.rec.add(layerTransport, opOther, start, 0)
	return h, err
}

func (t *timedTransport) Disconnect(seg uint32) error {
	start := t.begin()
	err := t.t.Disconnect(seg)
	t.rec.add(layerTransport, opOther, start, 0)
	return err
}

func (t *timedTransport) List() ([]wire.SegmentInfo, error) {
	start := t.begin()
	l, err := t.t.List()
	t.rec.add(layerTransport, opOther, start, 0)
	return l, err
}

func (t *timedTransport) Ping() error {
	start := t.begin()
	err := t.t.Ping()
	t.rec.add(layerTransport, opOther, start, 0)
	return err
}

func (t *timedTransport) Probe() error {
	start := t.begin()
	err := t.t.Probe()
	t.rec.add(layerTransport, opOther, start, 0)
	return err
}

func (t *timedTransport) Close() error { return t.t.Close() }

// errHeld is what holdEngine's Commit returns: the transaction was
// deliberately left open.
var errHeld = errors.New("perfbench: transaction held open")

// holdEngine runs a workload transaction up to its commit and then
// leaves it in flight, so a crash finds it there. With prepare set, the
// commit's data pushes reach the mirrors first (core.Tx.Prepare) and
// only the commit word stays unpublished — the state of a primary that
// dies mid-commit.
type holdEngine struct {
	*core.Library
	prepare bool
}

var _ engine.Engine = holdEngine{}

func (h holdEngine) Begin() (engine.Tx, error) {
	tx, err := h.Library.BeginTx()
	if err != nil {
		return nil, err
	}
	return holdTx{tx, h.prepare}, nil
}

type holdTx struct {
	*core.Tx
	prepare bool
}

func (t holdTx) Commit() error {
	if t.prepare {
		if err := t.Tx.Prepare(); err != nil {
			return err
		}
	}
	return errHeld
}
