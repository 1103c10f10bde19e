package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mcs"
	"mcs/internal/core"
	"mcs/internal/shard"
	"mcs/internal/sqldb"
)

// The system under test: one mcs.Server — or two shards behind a router —
// over catalogs restored from the dataset snapshot, authorization enforced,
// WAL attached with fsync on every commit (mcsd's default flush policy),
// each listening on a real loopback TCP socket.
const flushPolicy = "fsync always (group commit)"

var catalogOpts = core.Options{Owner: ownerDN, EnforceAuthz: true}

// node is one catalog server with its own disk directory, as one mcsd.
type node struct {
	dir  string // holds catalog.snap and its .wal generations
	cat  *core.Catalog
	wal  *sqldb.WAL
	srv  *mcs.Server
	http *http.Server
	url  string

	// sealedWAL is the size of the log generations checkpoints have sealed;
	// with the live file's size it gives the bytes ever appended.
	sealedWAL int64
}

func (n *node) snapPath() string { return filepath.Join(n.dir, "catalog.snap") }
func (n *node) walPath() string  { return n.snapPath() + ".wal" }

type sut struct {
	nodes     []*node
	router    *shard.Router
	routerSrv *http.Server
	front     string // URL clients talk to
}

// listen opens n loopback ports, ordered so that their URLs sort like their
// index: the router pages through shards in endpoint order, and the oracle
// expects shard 0's names (s0-) before shard 1's.
func listen(n int) ([]net.Listener, error) {
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
	}
	sort.Slice(lns, func(i, j int) bool { return lns[i].Addr().String() < lns[j].Addr().String() })
	return lns, nil
}

// serve starts an http.Server for h on ln.
func serve(ln net.Listener, h http.Handler) (*http.Server, string) {
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed at shutdown
	return hs, "http://" + ln.Addr().String()
}

// bootNode lays a snapshot down as a node's disk and boots from it the way
// mcsd does: restore, replay and attach the log, serve.
func bootNode(ln net.Listener, dir string, snapshot []byte, tr *tracer, spanName, spanParent string) (*node, error) {
	n := &node{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(n.snapPath(), snapshot, 0o644); err != nil {
		return nil, err
	}
	cat, err := core.Restore(catalogOpts, bytes.NewReader(snapshot))
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	n.cat = cat
	if n.wal, _, err = cat.OpenWAL(n.walPath(), sqldb.WALOptions{}); err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	if n.srv, err = mcs.NewServer(mcs.ServerOptions{Catalog: cat, WAL: n.wal}); err != nil {
		return nil, err
	}
	n.http, n.url = serve(ln, tr.handler(spanName, spanParent, n.srv))
	return n, nil
}

// boot brings up the deployment for a workload from its dataset snapshots:
// one snapshot for a single server, one per shard for the sharded one.
func boot(dir string, snapshots [][]byte, tr *tracer) (*sut, error) {
	s := &sut{}
	lns, err := listen(len(snapshots))
	if err != nil {
		return nil, err
	}
	if len(snapshots) == 1 {
		n, err := bootNode(lns[0], filepath.Join(dir, "node0"), snapshots[0], tr, "server.http", "client.http")
		if err != nil {
			return nil, err
		}
		s.nodes, s.front = []*node{n}, n.url
		return s, nil
	}
	var rules []string
	for i, snap := range snapshots {
		n, err := bootNode(lns[i], filepath.Join(dir, fmt.Sprintf("node%d", i)), snap, tr,
			fmt.Sprintf("shard%d.http", i), "router.http")
		if err != nil {
			s.shutdown()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		rules = append(rules, fmt.Sprintf("s%d-=%s", i, n.url))
	}
	rules = append(rules, "*="+s.nodes[0].url)
	m, err := shard.ParseInline(strings.Join(rules, ","))
	if err != nil {
		s.shutdown()
		return nil, err
	}
	// mcsrouter's defaults: 15 s summary pulls, 1 % bloom false positives.
	s.router, err = shard.NewRouter(shard.Options{Map: m, SummaryInterval: 15 * time.Second})
	if err != nil {
		s.shutdown()
		return nil, err
	}
	s.router.Start()
	front, err := listen(1)
	if err != nil {
		s.shutdown()
		return nil, err
	}
	s.routerSrv, s.front = serve(front[0], tr.handler("router.http", "client.http", s.router))
	return s, nil
}

func (s *sut) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.routerSrv != nil {
		s.routerSrv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	}
	if s.router != nil {
		s.router.Stop()
	}
	for _, n := range s.nodes {
		if n.http != nil {
			n.http.Shutdown(ctx) //nolint:errcheck // best-effort teardown
		}
		if n.wal != nil {
			n.wal.Close() //nolint:errcheck // every commit was fsynced on its own
		}
	}
	s.nodes, s.router = nil, nil // let the catalogs go
}

// ownerIndex is the node a logical name routes to among n nodes (shard map:
// s<i>- prefixes, anything else to node 0).
func ownerIndex(name string, n int) int {
	if n > 1 && strings.HasPrefix(name, "s1-") {
		return 1
	}
	return 0
}

func (s *sut) owner(name string) *node { return s.nodes[ownerIndex(name, len(s.nodes))] }

func (s *sut) fileCount() (int, error) {
	total := 0
	for _, n := range s.nodes {
		st, err := n.cat.Stats()
		if err != nil {
			return 0, err
		}
		total += st.Files
	}
	return total, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// diskBytes is what the deployment holds on disk: snapshots plus both log
// generations.
func (s *sut) diskBytes() int64 {
	var total int64
	for _, n := range s.nodes {
		total += fileSize(n.snapPath()) + fileSize(n.walPath()) + fileSize(n.walPath()+".1")
	}
	return total
}

// walAppended is the number of log bytes ever appended on all nodes.
func (s *sut) walAppended() int64 {
	var total int64
	for _, n := range s.nodes {
		total += n.sealedWAL + fileSize(n.walPath())
	}
	return total
}

// checkpoint is mcsd's sequence: rotate the log, write the snapshot durably
// (temp file, fsync, rename, directory fsync), drop the log it covers.
func (n *node) checkpoint() error {
	n.sealedWAL += fileSize(n.walPath())
	if err := n.wal.Rotate(); err != nil {
		return fmt.Errorf("wal rotate: %w", err)
	}
	lsn := n.cat.LastLSN()
	tmp := n.snapPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := n.cat.Snapshot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, n.snapPath()); err != nil {
		return err
	}
	d, err := os.Open(n.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return err
	}
	if err := n.wal.DropCovered(lsn); err != nil {
		return fmt.Errorf("wal truncate: %w", err)
	}
	return nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// copyDisk copies a node's snapshot and log generations into dir without
// closing the live log: what a crash would leave behind, every acknowledged
// commit having been fsynced before its reply.
func (n *node) copyDisk(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := filepath.Join(dir, "catalog.snap")
	if err := copyFile(snap, n.snapPath()); err != nil {
		return err
	}
	for _, gen := range []string{".wal", ".wal.1"} {
		if _, err := os.Stat(n.snapPath() + gen); err == nil {
			if err := copyFile(snap+gen, n.snapPath()+gen); err != nil {
				return err
			}
		}
	}
	return nil
}

// restarted is a catalog booted from a copy of a node's disk.
type restarted struct {
	cat     *core.Catalog
	wal     *sqldb.WAL
	loadS   float64 // core.Restore
	replayS float64 // OpenWAL: log replay
	replay  sqldb.ReplayStats
}

// bootCopy boots a fresh catalog from a disk copy, as mcsd does at start.
func bootCopy(dir string) (*restarted, error) {
	snap := filepath.Join(dir, "catalog.snap")
	f, err := os.Open(snap)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &restarted{}
	t0 := time.Now()
	if r.cat, err = core.Restore(catalogOpts, f); err != nil {
		return nil, fmt.Errorf("restore copy: %w", err)
	}
	r.loadS = time.Since(t0).Seconds()
	t0 = time.Now()
	if r.wal, r.replay, err = r.cat.OpenWAL(snap+".wal", sqldb.WALOptions{}); err != nil {
		return nil, fmt.Errorf("replay copy: %w", err)
	}
	r.replayS = time.Since(t0).Seconds()
	return r, nil
}

// routerStatz is the part of the router's /statz the shard metrics read.
type routerStatz struct {
	Shards []struct {
		Forwarded int64 `json:"forwarded"`
	} `json:"shards"`
	ScatterOps        int64 `json:"scatter_ops"`
	ScatterSubqueries int64 `json:"scatter_subqueries"`
	BloomFP           int64 `json:"bloom_fp_subqueries"`
}

func (s *sut) routerStatz() (routerStatz, error) {
	var st routerStatz
	resp, err := http.Get(s.front + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
