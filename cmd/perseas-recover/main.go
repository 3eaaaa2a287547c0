// Command perseas-recover demonstrates the paper's availability claim
// end-to-end over real TCP: mirrored data are accessible from any node in
// the network, so after a primary failure the database can be
// reconstructed immediately on any workstation.
//
// Point it at one or more running perseas-server instances that hold a
// PERSEAS database (for example one written by examples/crashcourse or a
// crashed examples/bank run):
//
//	perseas-recover -servers host1:7070,host2:7070
//
// It attaches, runs the recovery procedure (rolling back any in-flight
// transaction from the remote undo log), and prints the recovered
// databases.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"github.com/ics-forth/perseas/internal/core"
	"github.com/ics-forth/perseas/internal/netram"
	"github.com/ics-forth/perseas/internal/simclock"
	"github.com/ics-forth/perseas/internal/transport"
)

// config collects the run parameters so tests can call run directly.
type config struct {
	servers   string
	preview   int
	snapshot  string
	namespace string
	parallel  int
}

// parseFlags reads the command line into a config (split out so tests
// can cover the flag surface).
func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("perseas-recover", flag.ContinueOnError)
	fs.StringVar(&cfg.servers, "servers", "127.0.0.1:7070",
		"comma-separated addresses of the mirror nodes")
	fs.IntVar(&cfg.preview, "preview", 32, "bytes of each database to hex-dump")
	fs.StringVar(&cfg.snapshot, "snapshot", "",
		"after recovery, archive a consistent snapshot of every database to this file")
	fs.StringVar(&cfg.namespace, "namespace", "",
		"PERSEAS namespace the database was created under (see WithNamespace)")
	fs.IntVar(&cfg.parallel, "parallel", 1,
		"recovery workers: reconnects, undo scans and database fetches run concurrently, striping reads across the mirrors (1 = the same recovery run inline on one goroutine)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() != 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if err := run(os.Stdout, cfg); err != nil {
		log.Fatalf("perseas-recover: %v", err)
	}
}

func run(out io.Writer, cfg config) error {
	var mirrors []netram.Mirror
	for _, addr := range strings.Split(cfg.servers, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		tr, err := transport.DialTCP(addr)
		if err != nil {
			return fmt.Errorf("dial %s: %w", addr, err)
		}
		defer tr.Close()
		mirrors = append(mirrors, netram.Mirror{Name: addr, T: tr})
	}
	if len(mirrors) == 0 {
		return fmt.Errorf("no servers given")
	}

	net, err := netram.NewClient(mirrors)
	if err != nil {
		return err
	}
	lib, err := core.Attach(net, simclock.NewWall(), coreOptions(cfg)...)
	if err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	fmt.Fprintf(out, "recovered PERSEAS state: committed transaction id %d\n", lib.CommittedTxID())

	if cfg.snapshot != "" {
		f, err := os.Create(cfg.snapshot)
		if err != nil {
			return err
		}
		if err := lib.WriteSnapshot(f); err != nil {
			f.Close()
			return fmt.Errorf("snapshot: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		fmt.Fprintf(out, "snapshot archived to %s\n", cfg.snapshot)
	}

	for _, m := range mirrors {
		segs, err := m.T.List()
		if err != nil {
			log.Printf("list %s: %v", m.Name, err)
			continue
		}
		for _, s := range segs {
			dbPrefix := "perseas.db."
			if cfg.namespace != "" {
				dbPrefix = cfg.namespace + "/" + dbPrefix
			}
			if !strings.HasPrefix(s.Name, dbPrefix) {
				continue
			}
			name := strings.TrimPrefix(s.Name, dbPrefix)
			db, err := lib.OpenDB(name)
			if err != nil {
				log.Printf("open %s: %v", name, err)
				continue
			}
			n := cfg.preview
			if uint64(n) > db.Size() {
				n = int(db.Size())
			}
			fmt.Fprintf(out, "database %-16s %8d bytes  head: % x\n", name, db.Size(), db.Bytes()[:n])
		}
		break // one mirror's listing is enough
	}
	return nil
}

func coreOptions(cfg config) []core.Option {
	var opts []core.Option
	if cfg.namespace != "" {
		opts = append(opts, core.WithNamespace(cfg.namespace))
	}
	if cfg.parallel > 1 {
		opts = append(opts, core.WithRecoveryParallelism(cfg.parallel))
	}
	return opts
}
