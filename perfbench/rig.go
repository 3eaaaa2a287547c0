package main

import (
	"errors"
	"fmt"
	"net"

	"github.com/ics-forth/perseas/internal/bench"
	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/engine"
	"github.com/ics-forth/perseas/internal/memserver"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
	"github.com/ics-forth/perseas/internal/txclient"
	"github.com/ics-forth/perseas/internal/txserver"
)

// mirrorCount is the shipped default replication degree of
// perseas-server -tx.
const mirrorCount = 2

// mode says which of the benchmark's wrappers an installation carries.
type mode int

const (
	// counted wraps the TCP connections to count their calls and bytes;
	// it records no spans, so its runs are the untraced ones.
	counted mode = iota
	// timed adds the span-recording engine and transport wrappers.
	timed
)

// installation is one PERSEAS set-up inside the benchmark process:
// loopback TCP mirrors, the primary's netram client and library, and for
// the remote workloads the transaction front door plus a client. It
// carries the shipped defaults only; no option is set on any layer.
type installation struct {
	mode mode
	rec  *recorder

	mirrors  []*memserver.Server
	mirrorLs []net.Listener
	addrs    []string

	// Connection counters: the txclient's end of its connections, the
	// txserver's end, and the memory servers' end of the mirror links.
	client, server, mirror wireCount

	ram   *netram.Client
	tcps  []*transport.TCP
	timer []*timedTransport
	lib   *core.Library

	srv  *txserver.Server
	srvL net.Listener
	cl   *txclient.Client

	// eng is what the workload drives: the txclient or, for the recover
	// workload, the library; wrapped by timedEngine in timed mode.
	eng engine.Engine
	wl  *bench.DebitCredit
	// branches and accounts size the debit-credit tables.
	branches, accounts int
}

// newInstallation builds the mirrors and the primary. conns > 0 adds a
// txserver over the library and a txclient with that many pooled
// connections; the workload's tables are then set up through the front
// door, otherwise directly on the library.
func newInstallation(m mode, rec *recorder, branches, accounts, conns int) (in *installation, err error) {
	in = &installation{mode: m, rec: rec, branches: branches, accounts: accounts}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	for i := 0; i < mirrorCount; i++ {
		srv := memserver.New(memserver.WithLabel(fmt.Sprintf("mirror-%d", i)))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		in.mirrors = append(in.mirrors, srv)
		in.mirrorLs = append(in.mirrorLs, l)
		in.addrs = append(in.addrs, l.Addr().String())
		go func(l net.Listener) { _ = transport.Serve(l, srv) }(countListener{l, &in.mirror})
	}
	if err := in.dial(); err != nil {
		return nil, err
	}
	if in.lib, err = core.Init(in.ram, simclock.NewWall()); err != nil {
		return nil, fmt.Errorf("init: %w", err)
	}
	in.wl, err = in.newTables()
	if err != nil {
		return nil, err
	}
	if conns == 0 {
		in.eng = in.wrapEngine(in.lib, layerCore)
		if err := in.wl.Setup(in.eng); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		return in, nil
	}

	srv := txserver.New(in.wrapEngine(in.lib, layerCore))
	in.srv = srv
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.srvL = l
	go func() { _ = srv.Serve(countListener{l, &in.server}) }()
	addr := l.Addr().String()
	in.cl, err = txclient.New(func() (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countConn{nc, &in.client}, nil
	}, txclient.WithConns(conns))
	if err != nil {
		return nil, err
	}
	in.eng = in.wrapEngine(in.cl, layerTxclient)
	if err := in.wl.Setup(in.eng); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	return in, nil
}

// newTables returns an unattached debit-credit workload of the
// installation's size.
func (in *installation) newTables() (*bench.DebitCredit, error) {
	return bench.NewDebitCredit(in.branches, in.accounts)
}

// wrapEngine puts the timing wrapper around e in timed mode.
func (in *installation) wrapEngine(e engine.Engine, l layer) engine.Engine {
	if in.mode != timed {
		return e
	}
	return timedEngine{Engine: e, rec: in.rec, layer: l}
}

// dial connects a fresh netram client to the mirrors, as a restarted
// primary would, replacing in.ram.
func (in *installation) dial() error {
	in.tcps, in.timer = nil, nil
	var ms []netram.Mirror
	for _, addr := range in.addrs {
		tr, err := transport.DialTCP(addr)
		if err != nil {
			return err
		}
		in.tcps = append(in.tcps, tr)
		var t transport.Transport = tr
		if in.mode == timed {
			tt := &timedTransport{t: tr, rec: in.rec}
			in.timer = append(in.timer, tt)
			t = tt
		}
		ms = append(ms, netram.Mirror{Name: addr, T: t})
	}
	ram, err := netram.NewClient(ms)
	if err != nil {
		return err
	}
	in.ram = ram
	return nil
}

// dropPrimary power-fails the primary and closes its mirror links.
func (in *installation) dropPrimary() error {
	err := in.lib.Crash(crashKind)
	in.closeRAM()
	return err
}

func (in *installation) closeRAM() {
	if in.ram != nil {
		in.ram.Close()
	}
	for _, t := range in.tcps {
		t.Close()
	}
	in.ram, in.tcps = nil, nil
}

// transportCalls sums the timed transports' call counters.
func (in *installation) transportCalls() uint64 {
	var n uint64
	for _, t := range in.timer {
		n += t.calls.Load()
	}
	return n
}

// memStats sums the memory servers' counters.
func (in *installation) memStats() memStats {
	var s memStats
	for _, m := range in.mirrors {
		t := m.Stats()
		s.writeOps += t.WriteOps
		s.batchOps += t.BatchOps
		s.bytesWritten += t.BytesWritten
		s.readOps += t.ReadOps
	}
	return s
}

// close tears the installation down: client, front door, primary links
// and mirror listeners.
func (in *installation) close() {
	if in.cl != nil {
		in.cl.Close()
	}
	if in.srvL != nil {
		in.srvL.Close()
	}
	in.closeRAM()
	for _, l := range in.mirrorLs {
		l.Close()
	}
}

// errAudit marks a failed correctness audit.
var errAudit = errors.New("audit failed")
