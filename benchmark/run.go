package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"mcs"
	"mcs/internal/core"
)

// workload is one named traffic mix against one deployment shape.
type workload struct {
	name    string
	why     string
	mix     mix
	wire    mcs.TransportKind
	sharded bool
}

// The names are fixed: later issues cite them.
var workloads = []workload{
	{name: "discover", mix: mixDiscover, wire: mcs.TransportJSON,
		why: "read-only lookups and searches over all 20k names: no commit, so epoch caches and plans stay hot and time goes to sqldb execution and the JSON wire"},
	{name: "ingest", mix: mixIngest, wire: mcs.TransportJSON,
		why: "write-only publishing with checkpoints firing: writer lock, index maintenance, WAL group commit and checkpoint stalls do all the work"},
	{name: "mixed", mix: mixMixed, wire: mcs.TransportJSON,
		why: "70/20/10 lookup/search/write with zipf reads: every commit drops the read caches, so a write-path gain that costs readers shows here"},
	{name: "mixed_soap", mix: mixMixed, wire: mcs.TransportSOAP,
		why: "the mixed op stream over the SOAP wire: a jsonwire change must leave it unmoved and a soap regression cannot pass unseen"},
	{name: "sharded", mix: mixMixed, wire: mcs.TransportJSON, sharded: true,
		why: "the mixed op stream through the router over two shards: router hop, scatter fan-out and dirty bits are the extra work"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's settings. Only seed, seconds, trace and the workload
// vary between invocations; the rest are fixed or derived from the machine.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	clients int
	data    dataset
	outDir  string // benchmark/out: caches, results, trace

	corrupt bool // negative self-test: the oracle expects a wrong count
}

const (
	// maxWarmup is the warm-up before the window; shorter windows (tests)
	// warm up for a quarter of their length.
	maxWarmup = 2 * time.Second
	// refShare is the part of a traced run's window measured with tracing
	// still off: its throughput is the base of trace.overhead_share.
	refShare = 0.3
	// checkpointEvery is how often ingest checkpoints, counted from the
	// window's start; one due exactly at its end is not fired.
	checkpointEvery = 5 * time.Second
)

// result is what one run of one workload measured.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Seconds   float64          `json:"seconds"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Failures  []string         `json:"failures,omitempty"`
	// BuildS is the time spent building dataset snapshots this run because
	// the checkout had none cached yet; it is not part of setup_s.
	BuildS float64 `json:"dataset_build_s,omitempty"`
	spans  []span
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Attempted++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// snapshots returns the dataset snapshot for each node of the deployment,
// building and caching it under outDir the first time a checkout needs it.
// The dataset does not depend on the seed; publishers are the load clients
// plus one for the direct pass.
func snapshots(cfg config, w workload) (snaps [][]byte, buildS float64, err error) {
	shards := []int{-1}
	if w.sharded {
		shards = []int{0, 1}
	}
	dir := filepath.Join(cfg.outDir, "cache")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	for _, sh := range shards {
		path := filepath.Join(dir, fmt.Sprintf("d%d-%d-shard%d-pub%d.snap", cfg.data.files, cfg.data.perLeaf, sh, cfg.clients+1))
		snap, err := os.ReadFile(path)
		if err != nil {
			t := time.Now()
			if snap, err = cfg.data.build(sh, cfg.clients+1); err != nil {
				return nil, 0, fmt.Errorf("build dataset: %w", err)
			}
			buildS += time.Since(t).Seconds()
			tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
			if err := os.WriteFile(tmp, snap, 0o644); err != nil {
				return nil, 0, err
			}
			if err := os.Rename(tmp, path); err != nil {
				return nil, 0, err
			}
		}
		snaps = append(snaps, snap)
	}
	return snaps, buildS, nil
}

// counters is every cumulative count the run reads at both ends of the
// measured interval.
type counters struct {
	rt         rtStats
	epoch      uint64
	walAppends uint64
	walFsyncs  uint64
	walBytes   int64
	replayHits int64
	dispatch   map[string]dispatch
	statz      routerStatz
}

func readCounters(s *sut, scrapeFront bool) (counters, error) {
	c := counters{rt: readRT(), walBytes: s.walAppended()}
	for _, n := range s.nodes {
		st := n.wal.Stats()
		c.epoch += n.cat.DB().Epoch()
		c.walAppends += st.Appends
		c.walFsyncs += st.Fsyncs
		c.replayHits += n.cat.ReplayHits()
	}
	if !scrapeFront {
		return c, nil
	}
	var err error
	if c.dispatch, err = scrape(s.front); err != nil {
		return c, err
	}
	if s.router != nil {
		c.statz, err = s.routerStatz()
	}
	return c, err
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

type interval struct{ a, b time.Time }

// tracedRun is what a traced run hands to layerMetrics.
type tracedRun struct {
	cfg           config
	w             workload
	s             *sut
	tr            *tracer
	clients       []*client
	before, after counters // at both ends of the traced slice
	traced, ref   []sample // calls inside the traced slice, and inside the untraced one before it
	w0, m0        time.Time
	ckpts         []interval
}

// runWorkload sets the deployment up, drives it for the window, checks every
// reply, and measures: end-to-end metrics with tracing off, or — traced —
// a short untraced reference slice followed by the traced slice and the
// per-layer probes.
func runWorkload(cfg config, w workload) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Metrics: map[string]value{}}
	snaps, buildS, err := snapshots(cfg, w)
	if err != nil {
		return nil, err
	}
	res.BuildS = buildS
	runDir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set-up: everything from the dataset snapshot to the window opening.
	setupStart := time.Now()
	tr := newTracer()
	s, err := boot(filepath.Join(runDir, "disk"), snaps, tr)
	if err != nil {
		return nil, err
	}
	defer s.shutdown()
	snaps = nil // the catalogs own the data now; keep it off the heap figure
	clients := make([]*client, cfg.clients)
	for i := range clients {
		clients[i] = newClient(i, cfg.data, len(s.nodes), w.mix, cfg.seed, s.front, w.wire, tr)
		clients[i].corrupt = cfg.corrupt
		defer clients[i].close()
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	w0 := time.Now().Add(min(maxWarmup, window/4))
	w1 := w0.Add(window)
	var wg sync.WaitGroup
	for _, c := range clients {
		c.w0, c.w1 = w0, w1
		wg.Add(1)
		go func(c *client) { defer wg.Done(); c.run() }(c)
	}

	// Ingest checkpoints as mcsd would, on a timer of its own.
	var ckpts []interval
	var ckptErr error
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		if !w.mix.ingest {
			return
		}
		for at := w0.Add(checkpointEvery); at.Before(w1); at = at.Add(checkpointEvery) {
			sleepUntil(at)
			a := time.Now()
			for _, n := range s.nodes {
				if err := n.checkpoint(); err != nil && ckptErr == nil {
					ckptErr = err
				}
			}
			b := time.Now()
			ckpts = append(ckpts, interval{a, b})
			if tr.on.Load() {
				tr.add("ckpt", "", "", a, b)
			}
		}
	}()

	sleepUntil(w0)
	m0 := w0 // start of the measured interval
	before, err := readCounters(s, false)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = value{V: w0.Sub(setupStart).Seconds()}
	if cfg.trace {
		m0 = w0.Add(time.Duration(refShare * float64(window)))
		sleepUntil(m0)
		if before, err = readCounters(s, true); err != nil {
			return nil, err
		}
		tr.on.Store(true)
	}
	sleepUntil(w1)
	tr.on.Store(false)
	after, err := readCounters(s, cfg.trace)
	if err != nil {
		return nil, err
	}
	wg.Wait()
	<-ckptDone
	if ckptErr != nil {
		res.fail("checkpoint: %v", ckptErr)
	}

	// Heap and disk per file, before anything else allocates or writes.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	files, err := s.fileCount()
	if err != nil {
		return nil, err
	}
	res.Metrics["heap_bytes_per_file"] = value{V: float64(mem.HeapAlloc) / float64(files)}
	res.Metrics["disk_bytes_per_file"] = value{V: float64(s.diskBytes()) / float64(files)}

	// Client-side figures over the measured interval [m0, w1].
	var all, ref []sample
	filesAdded := 0
	for _, c := range clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		res.Failures = append(res.Failures, c.errs...)
		filesAdded += c.files
		for _, sm := range c.samples {
			if sm.end-sm.dur >= int64(m0.Sub(w0)) {
				all = append(all, sm)
			} else if sm.end <= int64(m0.Sub(w0)) {
				ref = append(ref, sm)
			}
		}
	}
	measured := w1.Sub(m0).Seconds()
	opsPerS := float64(len(all)) / measured
	res.Metrics["ops_per_s"] = value{V: opsPerS, N: len(all)}
	// files_per_s counts the whole window: batches are too few to split.
	res.Metrics["files_per_s"] = value{V: float64(filesAdded) / window.Seconds(), NA: filesAdded == 0}
	for cls := clsLookup; cls <= clsWrite; cls++ {
		latency(res.Metrics, classNames[cls], sortedDurs(all, func(s sample) bool { return s.cls == cls }))
	}
	single := sortedDurs(all, func(s sample) bool { return s.cls == clsLookup || s.cls == clsWrite })
	res.Metrics["single_p50_ms"] = value{V: ms(percentile(single, 0.50)), N: len(single), NA: len(single) == 0}

	if cfg.trace {
		run := tracedRun{cfg: cfg, w: w, s: s, tr: tr, clients: clients, before: before, after: after,
			traced: all, ref: ref, w0: w0, m0: m0, ckpts: ckpts}
		if err := run.layerMetrics(res); err != nil {
			return nil, err
		}
	}

	// Restart: copy the disk with the logs still open, let the live
	// deployment go, boot fresh catalogs from the copy as a restarted mcsd
	// would, and hold them to everything that was acknowledged.
	nodes := len(s.nodes)
	copied := true
	for i, n := range s.nodes {
		if err := n.copyDisk(filepath.Join(runDir, fmt.Sprintf("copy%d", i))); err != nil {
			res.fail("copy disk of node %d: %v", i, err)
			copied = false
		}
	}
	s.shutdown()
	runtime.GC()
	restartS, loadS, replayRecords, replayS := 0.0, 0.0, 0, 0.0
	restartedCats := make([]*core.Catalog, nodes)
	for i := 0; copied && i < nodes; i++ {
		t := time.Now()
		r, err := bootCopy(filepath.Join(runDir, fmt.Sprintf("copy%d", i)))
		if err != nil {
			res.fail("restart node %d: %v", i, err)
			copied = false
			break
		}
		defer r.wal.Close() //nolint:errcheck // a scratch copy
		restartedCats[i] = r.cat
		// The first correct query: one search whose answer is arithmetic.
		want := cfg.data.onNode(cfg.data.matches(search3Attrs, 7), i, nodes)
		names, err := r.cat.RunQuery(readerDN, core.Query{Predicates: searchPreds(search3Attrs, 7)})
		if err != nil || len(names) != want {
			res.fail("restart node %d: first query returned %d names (%v), want %d", i, len(names), err, want)
		}
		restartS += time.Since(t).Seconds()
		loadS += r.loadS
		replayS += r.replayS
		replayRecords += r.replay.Applied
	}
	res.Metrics["restart_s"] = value{NA: true}
	if copied {
		owner := func(name string) *core.Catalog { return restartedCats[ownerIndex(name, nodes)] }
		verified := true
		for _, c := range clients {
			checked, err := c.verifyRestart(owner)
			res.Attempted += checked
			if err != nil {
				res.fail("after restart: %v", err)
				verified = false
			}
		}
		// restart_s is reported only once every acknowledged name resolved.
		res.Metrics["restart_s"] = value{V: restartS, NA: !verified}
	}
	if cfg.trace {
		res.Metrics["sqldb.load_snapshot_s"] = value{V: loadS}
		rate := 0.0
		if replayRecords > 0 {
			rate = float64(replayRecords) / replayS
		}
		res.Metrics["sqldb.wal_replay_records_per_s"] = value{V: rate, N: replayRecords, NA: replayRecords == 0}
		res.spans = tr.spans
	}
	res.Metrics["failed_share"] = value{V: float64(res.Failed) / float64(res.Attempted)}
	return res, nil
}

// layerMetrics fills in the per-layer metrics of a traced run from the
// spans, the counter deltas over the traced slice, and the direct probes.
func (r tracedRun) layerMetrics(res *result) error {
	cfg, w, s, tr, clients, before, after, traced := r.cfg, r.w, r.s, r.tr, r.clients, r.before, r.after, r.traced
	put := func(name string, v float64) { res.Metrics[name] = value{V: v} }
	na := func(names ...string) {
		for _, n := range names {
			res.Metrics[n] = value{NA: true}
		}
	}
	ops := float64(len(traced))
	per := func(total float64) float64 {
		if ops == 0 {
			return 0
		}
		return total / ops
	}
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	totals := selfTimes(spans)
	get := func(name string) spanTotals {
		if t := totals[name]; t != nil {
			return *t
		}
		return spanTotals{}
	}

	// client: everything outside the front door's handler — request
	// encoding, HTTP client, loopback TCP, net/http server, reply decoding.
	calls := get("client.call")
	if calls.count > 0 {
		put("client.self_us_per_op", float64(calls.self+get("client.http").self)/1e3/float64(calls.count))
	}
	var retries, reqBytes, respBytes int64
	for _, c := range clients {
		retries += c.read.RetryStats().Retries + c.pub.RetryStats().Retries
		reqBytes += c.rt.reqBytes
		respBytes += c.rt.respBytes
	}
	put("client.retries", float64(retries))
	if calls.count > 0 {
		put("wire.req_bytes_per_op", float64(reqBytes)/float64(calls.count))
		put("wire.resp_bytes_per_op", float64(respBytes)/float64(calls.count))
	}

	// wire: the handlers' time minus the dispatch latency they report for
	// themselves, i.e. decoding the request and encoding the reply. Sharded,
	// only the router's handler is the client's wire; the shards' own wire
	// time is inside shard.shard_busy_us_per_op.
	transport := ""
	if w.wire == mcs.TransportJSON {
		transport = "json"
	}
	frontSpan := "server.http"
	if w.sharded {
		frontSpan = "router.http"
	}
	var dispatchNs float64
	for cls := clsLookup; cls < numClasses; cls++ {
		d := classDispatch(before.dispatch, after.dispatch, transport, cls)
		dispatchNs += d.sumS * 1e9
		name := "mcswire.dispatch_us." + classNames[cls]
		if d.count == 0 {
			na(name)
			continue
		}
		res.Metrics[name] = value{V: d.sumS * 1e6 / float64(d.count), N: int(d.count)}
	}
	front := get(frontSpan)
	wireSelf := 0.0
	if front.count > 0 {
		wireSelf = (float64(front.dur) - dispatchNs) / 1e3 / float64(front.count)
	}
	if w.wire == mcs.TransportJSON {
		put("jsonwire.self_us_per_op", wireSelf)
		na("soap.self_us_per_op")
	} else {
		put("soap.self_us_per_op", wireSelf)
		na("jsonwire.self_us_per_op")
	}
	put("mcswire.replayed_writes", float64(after.replayHits-before.replayHits))

	// core: the same op stream straight into the catalog, and the price of
	// an epoch bump to a reader.
	direct, err := runDirectPass(s, cfg.data, w.mix, cfg.seed, cfg.clients, 1500*time.Millisecond, tr)
	if err != nil {
		return err
	}
	for cls := clsLookup; cls < numClasses; cls++ {
		us, st := "core.direct_us."+classNames[cls], "core.stmts_per_op."+classNames[cls]
		if direct.n[cls] == 0 {
			na(us, st)
			continue
		}
		res.Metrics[us] = value{V: direct.us[cls], N: direct.n[cls]}
		res.Metrics[st] = value{V: direct.stmts[cls], N: direct.n[cls]}
	}
	warm, cold, err := coldWarmRead(s, cfg.data)
	if err != nil {
		return err
	}
	put("core.warm_read_us", warm)
	put("core.cold_read_us", cold)

	// sqldb: commits, the log, snapshots and checkpoints.
	commits := float64(after.epoch - before.epoch)
	appends := float64(after.walAppends - before.walAppends)
	fsyncs := float64(after.walFsyncs - before.walFsyncs)
	put("sqldb.commits", commits)
	put("sqldb.wal_appends", appends)
	put("sqldb.wal_fsyncs", fsyncs)
	if fsyncs > 0 {
		put("sqldb.commits_per_fsync", appends/fsyncs)
		put("sqldb.wal_bytes_per_commit", float64(after.walBytes-before.walBytes)/appends)
	} else {
		na("sqldb.commits_per_fsync", "sqldb.wal_bytes_per_commit")
	}
	snapS, snapBytes, err := snapshotCost(s)
	if err != nil {
		return err
	}
	files, err := s.fileCount()
	if err != nil {
		return err
	}
	put("sqldb.snapshot_s", snapS)
	put("sqldb.snapshot_bytes_per_file", float64(snapBytes)/float64(files))
	inCkpt := func(sm sample) bool {
		a, b := r.w0.Add(time.Duration(sm.end-sm.dur)), r.w0.Add(time.Duration(sm.end))
		for _, iv := range r.ckpts {
			if a.Before(iv.b) && b.After(iv.a) {
				return true
			}
		}
		return false
	}
	ckptsMeasured := 0
	for _, iv := range r.ckpts {
		if !iv.a.Before(r.m0) {
			ckptsMeasured++
		}
	}
	put("sqldb.checkpoint_count", float64(ckptsMeasured))
	in := sortedDurs(traced, func(sm sample) bool { return sm.cls == clsWrite && inCkpt(sm) })
	out := sortedDurs(traced, func(sm sample) bool { return sm.cls == clsWrite && !inCkpt(sm) })
	// Checkpoint stalls are few by nature: report the p99 from 100 samples.
	res.Metrics["sqldb.write_p99_ms_in_checkpoint"] = value{V: ms(percentile(in, 0.99)), N: len(in), NA: len(in) < 100}
	res.Metrics["sqldb.write_p99_ms_outside"] = value{V: ms(percentile(out, 0.99)), N: len(out), NA: len(out) < 100}
	batches := sortedDurs(traced, func(sm sample) bool { return sm.cls == clsBatch })
	res.Metrics["batch_p50_ms"] = value{V: ms(percentile(batches, 0.50)), N: len(batches), NA: len(batches) == 0}

	insNs, getNs, insAllocs := btreeCost(cfg.data.files)
	put("btree.insert_ns", insNs)
	put("btree.get_ns", getNs)
	put("btree.insert_allocs", insAllocs)

	// shard: only the sharded deployment has these layers.
	shardNames := []string{"shard.router_self_us_per_op", "shard.shard_busy_us_per_op", "shard.subqueries_per_scatter",
		"shard.bloom_fp_subqueries", "shard.single_route_share", "shard.forwarded_skew"}
	if !w.sharded {
		na(shardNames...)
	} else {
		router := get("router.http")
		busy := int64(0)
		for i := range s.nodes {
			busy += get(fmt.Sprintf("shard%d.http", i)).dur
		}
		if router.count > 0 {
			put("shard.router_self_us_per_op", float64(router.self)/1e3/float64(router.count))
			put("shard.shard_busy_us_per_op", float64(busy)/1e3/float64(router.count))
		}
		scatters := float64(after.statz.ScatterOps - before.statz.ScatterOps)
		subq := float64(after.statz.ScatterSubqueries - before.statz.ScatterSubqueries)
		if scatters > 0 {
			put("shard.subqueries_per_scatter", subq/scatters)
		}
		put("shard.bloom_fp_subqueries", float64(after.statz.BloomFP-before.statz.BloomFP))
		var fwd []float64
		total := 0.0
		for i := range after.statz.Shards {
			f := float64(after.statz.Shards[i].Forwarded - before.statz.Shards[i].Forwarded)
			fwd = append(fwd, f)
			total += f
		}
		if total > 0 {
			put("shard.single_route_share", (total-subq)/(total-subq+scatters))
		}
		sort.Float64s(fwd)
		if len(fwd) > 0 && fwd[0] > 0 {
			put("shard.forwarded_skew", fwd[len(fwd)-1]/fwd[0])
		}
		for _, n := range shardNames {
			if _, ok := res.Metrics[n]; !ok {
				na(n)
			}
		}
	}

	// rt: what the Go runtime and the process spent over the traced slice.
	put("rt.alloc_bytes_per_op", per(float64(after.rt.allocBytes-before.rt.allocBytes)))
	put("rt.allocs_per_op", per(float64(after.rt.mallocs-before.rt.mallocs)))
	put("rt.gc_pause_total_ms", float64(after.rt.gcPauseNs-before.rt.gcPauseNs)/1e6)
	if cpu := after.rt.totalCPU - before.rt.totalCPU; cpu > 0 {
		put("rt.gc_cpu_share", (after.rt.gcCPU-before.rt.gcCPU)/cpu)
	} else {
		na("rt.gc_cpu_share")
	}
	put("rt.cpu_s_per_kop", per(1000*(after.rt.procCPU-before.rt.procCPU)))

	// trace: throughput lost to recording spans, against the untraced slice
	// of this same run.
	if refRate := float64(len(r.ref)) / r.m0.Sub(r.w0).Seconds(); refRate > 0 {
		put("trace.overhead_share", 1-res.Metrics["ops_per_s"].V/refRate)
	} else {
		na("trace.overhead_share")
	}
	return nil
}
