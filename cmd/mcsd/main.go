// Command mcsd runs the Metadata Catalog Service daemon: a SOAP/HTTP
// endpoint in front of a fresh catalog, optionally with GSI authentication
// and authorization enabled.
//
// Usage:
//
//	mcsd -addr :8080
//	mcsd -addr :8080 -owner "/O=Grid/CN=Admin" -authz
//	mcsd -addr :8080 -preload 100000   # benchmark dataset preloaded
//	mcsd -addr :8080 -slow-op 250ms    # log operations slower than 250ms
//	mcsd -addr :8080 -fault-spec "site=dispatch,kind=error,every=10"  # chaos testing
//
// Unless -metrics=false, the server also exposes /metrics (Prometheus text,
// or JSON with ?format=json), /healthz and /statz beside the SOAP endpoint.
//
// With -snapshot, the daemon restores existing state at startup, writes the
// catalog to disk every -snapshot-interval, and — on SIGINT/SIGTERM —
// drains in-flight requests and writes a final snapshot before exiting, so
// a graceful shutdown never loses committed writes. Unless -wal=false, a
// write-ahead log at <snapshot>.wal extends that to per-commit durability:
// every mutation is fsynced (group-committed) before it is acknowledged,
// boot replays the log suffix the snapshot does not cover, and each
// snapshot becomes a checkpoint that truncates the log it covers. A hard
// crash — kill -9, power loss — then loses nothing but a torn final record,
// which recovery truncates.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"mcs"
	"mcs/internal/bench"
)

// restoreOrOpen loads the catalog from an existing snapshot file, or opens
// a fresh one when the file does not exist yet. restored reports whether
// state actually came from the snapshot — callers must not re-run initial
// data loads in that case. A <path>.tmp beside the snapshot is what a
// checkpoint killed mid-write left behind; nothing reads it and only the
// next successful checkpoint would replace it, so boot removes it.
func restoreOrOpen(path string, opts mcs.Options) (cat *mcs.Catalog, restored bool, err error) {
	if path == "" {
		cat, err = mcs.OpenCatalog(opts)
		return cat, false, err
	}
	if err := os.Remove(path + ".tmp"); err == nil {
		log.Printf("mcsd: removed %s.tmp, left by an interrupted checkpoint", path)
	} else if !os.IsNotExist(err) {
		// Housekeeping only: the snapshot and the log are what boot needs,
		// and the next checkpoint's create will report a real problem.
		log.Printf("mcsd: cannot remove the interrupted checkpoint's temp file: %v", err)
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		cat, err = mcs.OpenCatalog(opts)
		return cat, false, err
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	cat, err = mcs.RestoreCatalog(opts, f)
	if err != nil {
		return nil, false, fmt.Errorf("restore %s: %w", path, err)
	}
	log.Printf("mcsd: restored catalog from %s", path)
	return cat, true, nil
}

// snapshotTo writes the catalog atomically and durably: temp file, fsync,
// rename, then fsync of the parent directory. Without the file sync a crash
// shortly after the rename can leave a truncated "complete" snapshot;
// without the directory sync the rename itself may not have reached disk.
// It fills in st's bytes, dump and persist.
func snapshotTo(cat *mcs.Catalog, path string, st *checkpointStats) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	start := time.Now()
	err = cat.Snapshot(f)
	dumped := time.Now()
	st.dump = dumped.Sub(start)
	defer func() { st.persist = time.Since(dumped) }()
	if err == nil {
		st.bytes, _ = f.Seek(0, io.SeekCurrent) // reported only; Sync below is the check that counts
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// checkpoint writes a snapshot and truncates the write-ahead log it covers:
// the log rotates (current file sealed, fresh file takes new appends), the
// snapshot is written durably, and only then — and only if the snapshot's
// LSN actually covers the sealed records — is the sealed file dropped. The
// covering LSN is captured before the dump, so a commit racing the snapshot
// can only make the snapshot newer than claimed, never older: a failed or
// short checkpoint always leaves every uncovered record on disk for the
// next recovery. Each phase is timed; the result is logged on one line and,
// when there is a server, published on its /metrics and /statz.
func checkpoint(cat *mcs.Catalog, w *mcs.WAL, path string, srv *mcs.Server) error {
	var st checkpointStats
	err := func() error {
		if w != nil {
			start := time.Now()
			err := w.Rotate()
			st.rotate = time.Since(start)
			if err != nil {
				return fmt.Errorf("wal rotate: %w", err)
			}
		}
		st.lsn = cat.LastLSN()
		if err := snapshotTo(cat, path, &st); err != nil {
			return err
		}
		if w != nil {
			start := time.Now()
			err := w.DropCovered(st.lsn)
			st.drop = time.Since(start)
			if err != nil {
				return fmt.Errorf("wal truncate: %w", err)
			}
		}
		return nil
	}()
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	log.Printf("mcsd: checkpoint: lsn=%d bytes=%d rotate_ms=%.1f dump_ms=%.1f persist_ms=%.1f drop_ms=%.1f err=%v",
		st.lsn, st.bytes, ms(st.rotate), ms(st.dump), ms(st.persist), ms(st.drop), err)
	if srv != nil {
		srv.RecordCheckpoint(st.lsn, st.bytes, st.rotate+st.dump+st.persist+st.drop, st.dump, err)
	}
	return err
}

// checkpointStats is what checkpoint measures: the LSN the snapshot covers,
// its size on disk, and the phases — rotating the log, Catalog.Snapshot into
// the temp file, making it durable (fsync, rename, directory fsync), dropping
// the log the snapshot covers. A failed checkpoint has the phases it reached.
type checkpointStats struct {
	lsn                         uint64
	bytes                       int64
	rotate, dump, persist, drop time.Duration
}

// config carries mcsd's parsed flags.
type config struct {
	addr          string
	owner         string
	authz         bool
	preload       int
	snapshot      string
	snapshotEvery time.Duration
	// wal enables the write-ahead log beside the snapshot (per-commit
	// durability); walSync selects its fsync policy ("always" or "off").
	wal       bool
	walSync   string
	metrics   bool
	slowOp    time.Duration
	slowOpLog string
	// drainTimeout bounds the graceful-shutdown drain.
	drainTimeout time.Duration
	// faultSpec/faultSeed configure deterministic fault injection — chaos
	// and resilience testing against a real daemon.
	faultSpec string
	faultSeed uint64
}

// run starts the daemon and serves until stop delivers a signal (graceful
// shutdown: drain in-flight requests, write a final snapshot) or the
// listener fails. When ready is non-nil, the bound address is sent on it
// once the server is accepting connections.
func run(cfg config, stop <-chan os.Signal, ready chan<- net.Addr) error {
	catalog, restored, err := restoreOrOpen(cfg.snapshot, mcs.Options{Owner: cfg.owner, EnforceAuthz: cfg.authz})
	if err != nil {
		return err
	}
	var wal *mcs.WAL
	if cfg.snapshot != "" && cfg.wal {
		var walOpts mcs.WALOptions
		switch cfg.walSync {
		case "", "always":
		case "off":
			walOpts.NoSync = true
		default:
			return fmt.Errorf("-wal-sync: unknown policy %q (want \"always\" or \"off\")", cfg.walSync)
		}
		w, stats, err := catalog.OpenWAL(cfg.snapshot+".wal", walOpts)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		wal = w
		defer wal.Close() //nolint:errcheck // commits were individually fsynced
		if stats.Applied > 0 || stats.TornBytes > 0 {
			log.Printf("mcsd: wal: replayed %d of %d records through lsn %d (%d torn bytes truncated)",
				stats.Applied, stats.Records, stats.LastLSN, stats.TornBytes)
		}
		if stats.Applied > 0 && !restored {
			// The log alone rebuilt committed state; -preload must not
			// re-create the dataset on top of it.
			restored = true
		}
	}
	obsOpts := mcs.ObsOptions{
		DisableEndpoints: !cfg.metrics,
		SlowOpThreshold:  cfg.slowOp,
	}
	if cfg.slowOpLog != "" {
		f, err := os.OpenFile(cfg.slowOpLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("slow-op log: %w", err)
		}
		defer f.Close()
		obsOpts.SlowOpLogger = log.New(f, "", log.LstdFlags|log.LUTC)
	}
	srvOpts := mcs.ServerOptions{Catalog: catalog, Obs: obsOpts, WAL: wal}
	if cfg.faultSpec != "" {
		rules, err := mcs.ParseFaultSpec(cfg.faultSpec)
		if err != nil {
			return fmt.Errorf("-fault-spec: %w", err)
		}
		srvOpts.FaultInjector = mcs.NewFaultInjector(cfg.faultSeed, rules...)
		log.Printf("mcsd: FAULT INJECTION ACTIVE: %d rule(s), seed %d — not for production", len(rules), cfg.faultSeed)
	}
	srv, err := mcs.NewServer(srvOpts)
	if err != nil {
		return err
	}
	if cfg.preload > 0 {
		if restored {
			// The snapshot already holds the dataset; loading again would
			// fail on the existing names.
			log.Printf("mcsd: catalog restored from %s, skipping -preload %d", cfg.snapshot, cfg.preload)
		} else {
			log.Printf("mcsd: preloading %d files (collections of 1000, 10 attributes each)", cfg.preload)
			if err := bench.LoadInto(srv.Catalog(), bench.DefaultConfig(cfg.preload)); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// stopCheckpoints ends the periodic checkpoints and waits out one in
	// flight, so the final checkpoint never races one for the temp file.
	stopCheckpoints := func() {}
	if cfg.snapshot != "" && cfg.snapshotEvery > 0 {
		ticker := time.NewTicker(cfg.snapshotEvery)
		tickerDone, tickerStopped := make(chan struct{}), make(chan struct{})
		stopCheckpoints = sync.OnceFunc(func() { close(tickerDone); <-tickerStopped })
		defer stopCheckpoints()
		go func() {
			defer close(tickerStopped)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					checkpoint(catalog, wal, cfg.snapshot, srv) //nolint:errcheck // logged there, and on /statz
				case <-tickerDone:
					return
				}
			}
		}()
	}
	extra := ", JSON API at /api/v1/"
	if cfg.metrics {
		extra += ", metrics at /metrics"
	}
	fmt.Fprintf(os.Stderr, "mcsd: Metadata Catalog Service listening on http://%s (WSDL at /?wsdl%s)\n",
		ln.Addr(), extra)
	if ready != nil {
		ready <- ln.Addr()
	}
	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case sig := <-stop:
		log.Printf("mcsd: %v: draining requests", sig)
	}
	drain := cfg.drainTimeout
	if drain <= 0 {
		drain = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("mcsd: drain: %v", err)
	}
	stopCheckpoints()
	if cfg.snapshot != "" {
		if err := checkpoint(catalog, wal, cfg.snapshot, srv); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		log.Printf("mcsd: final snapshot written to %s", cfg.snapshot)
	}
	return nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.StringVar(&cfg.owner, "owner", "", "DN bootstrapped with service-level rights")
	flag.BoolVar(&cfg.authz, "authz", false, "enforce authorization (requires -owner)")
	flag.IntVar(&cfg.preload, "preload", 0, "preload this many benchmark files before serving")
	flag.StringVar(&cfg.snapshot, "snapshot", "", "snapshot file for restart durability")
	flag.DurationVar(&cfg.snapshotEvery, "snapshot-interval", time.Minute, "interval between periodic snapshots")
	flag.BoolVar(&cfg.wal, "wal", true, "with -snapshot, keep a write-ahead log beside it for per-commit durability")
	flag.StringVar(&cfg.walSync, "wal-sync", "always", "WAL fsync policy: \"always\" (group commit, crash-safe) or \"off\" (OS-paced, loses the unsynced tail on power failure)")
	flag.BoolVar(&cfg.metrics, "metrics", true, "expose the /metrics, /healthz and /statz operational endpoints")
	flag.DurationVar(&cfg.slowOp, "slow-op", 0, "log operations slower than this threshold, with request ID and DN (0 disables)")
	flag.StringVar(&cfg.slowOpLog, "slow-op-log", "", "file receiving slow-op lines (default stderr)")
	flag.StringVar(&cfg.faultSpec, "fault-spec", "", "inject deterministic faults, e.g. \"site=dispatch,kind=error,op=createFile,every=10\"; rules separated by ';' (testing only)")
	flag.Uint64Var(&cfg.faultSeed, "fault-seed", 1, "seed for probabilistic fault rules (same seed = same fault sequence)")
	flag.Parse()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(cfg, stop, nil); err != nil {
		log.Fatalf("mcsd: %v", err)
	}
}
