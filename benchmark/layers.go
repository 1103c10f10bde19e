package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mcs/internal/btree"
	"mcs/internal/core"
)

// Per-layer measurements. Nothing here touches product code: a layer is
// timed by calling its exported functions, or read through counters it
// already exports.

// dispatch is the front door's own handler latency for one (transport, op)
// pair, from the mcs_latency_seconds histogram on /metrics.
type dispatch struct {
	sumS  float64
	count int64
}

// wireOps maps each class to the wire operations that carry it. A "name ="
// lookup travels as op query like a k-predicate search, and the server's
// histogram cannot tell them apart, so it is counted with the searches.
var wireOps = [numClasses][]string{
	clsLookup: {"getFile", "getAttributes"},
	clsSearch: {"query", "queryPage"},
	clsWrite:  {"createFile", "setAttribute", "deleteFile"},
	clsBatch:  {"batchWrite"},
}

// scrape reads the front door's /metrics: per (transport, op) dispatch
// latency, keyed "transport:op" with an empty transport for SOAP.
func scrape(front string) (map[string]dispatch, error) {
	resp, err := http.Get(front + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	ops := map[string]dispatch{}
	label := func(labels, key string) string {
		_, rest, ok := strings.Cut(labels, key+`="`)
		if !ok {
			return ""
		}
		v, _, _ := strings.Cut(rest, `"`)
		return v
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		head, num, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			continue
		}
		name, labels, _ := strings.Cut(head, "{")
		if name != "mcs_latency_seconds_sum" && name != "mcs_latency_seconds_count" {
			continue
		}
		key := label(labels, "transport") + ":" + label(labels, "op")
		d := ops[key]
		if name == "mcs_latency_seconds_sum" {
			d.sumS = v
		} else {
			d.count = int64(v)
		}
		ops[key] = d
	}
	return ops, sc.Err()
}

// classDispatch sums, over one wire transport, the dispatch latency of the
// ops carrying a class, as the difference between two scrapes.
func classDispatch(before, after map[string]dispatch, transport string, cls class) dispatch {
	var d dispatch
	for _, op := range wireOps[cls] {
		key := transport + ":" + op
		d.sumS += after[key].sumS - before[key].sumS
		d.count += after[key].count - before[key].count
	}
	return d
}

// rtStats is the Go runtime's and the process's resource use so far.
type rtStats struct {
	allocBytes, mallocs, gcPauseNs uint64
	gcCPU, totalCPU                float64 // seconds, runtime estimate
	procCPU                        float64 // seconds, rusage user+system
}

func readRT() rtStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := rtStats{allocBytes: m.TotalAlloc, mallocs: m.Mallocs, gcPauseNs: m.PauseTotalNs}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		s.procCPU = tv(ru.Utime) + tv(ru.Stime)
	}
	return s
}

// directPass replays a client's op stream, single-threaded, straight into
// core.Catalog methods: the time and the exact statement count each class
// costs below the wire. It uses a publisher of its own (id = the number of
// load clients) so its writes collide with nobody's. Searches in a sharded
// deployment run on every shard, as a scatter would.
type directPass struct {
	us    [numClasses]float64 // mean µs per op
	stmts [numClasses]float64 // mean statements per op
	n     [numClasses]int
}

func runDirectPass(s *sut, d dataset, m mix, seed uint64, id int, budget time.Duration, tr *tracer) (directPass, error) {
	var stmts atomic.Int64
	for _, n := range s.nodes {
		n.cat.DB().SetFaultHook(func(string) error { stmts.Add(1); return nil })
		defer n.cat.DB().SetFaultHook(nil)
	}
	strm := newStream(m, d, seed, id)
	dn := publisherDN(id)
	var sumNs, sumStmts [numClasses]int64
	var out directPass
	all := func(fn func(*core.Catalog) error) error {
		for _, n := range s.nodes {
			if err := fn(n.cat); err != nil {
				return err
			}
		}
		return nil
	}
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		o := strm.nextOp()
		cls := kindClass[o.kind]
		var call func() error
		switch o.kind {
		case opQueryName:
			q := nameQuery(d.fileName(int(o.a)))
			call = func() error {
				return all(func(c *core.Catalog) error { _, err := c.RunQuery(readerDN, q); return err })
			}
		case opGetFile:
			name := d.fileName(int(o.a))
			call = func() error { _, err := s.owner(name).cat.GetFile(readerDN, name, 0); return err }
		case opGetAttrs:
			name := d.fileName(int(o.a))
			call = func() error {
				_, err := s.owner(name).cat.GetAttributes(readerDN, core.ObjectFile, name)
				return err
			}
		case opSearch3, opSearch10:
			attrs := search3Attrs
			if o.kind == opSearch10 {
				attrs = allAttrs
			}
			q := core.Query{Predicates: searchPreds(attrs, int(o.a))}
			want := d.matches(attrs, int(o.a)).n
			call = func() error {
				got := 0
				err := all(func(c *core.Catalog) error { names, err := c.RunQuery(readerDN, q); got += len(names); return err })
				if err == nil && got != want {
					err = fmt.Errorf("direct search returned %d names, want %d", got, want)
				}
				return err
			}
		case opPage:
			q := core.Query{Predicates: searchPreds([]int{0}, int(o.a))}
			call = func() error {
				return all(func(c *core.Catalog) error { _, _, err := c.RunQueryPage(readerDN, q, pageRows, ""); return err })
			}
		case opCreate:
			spec := writtenSpec(id, int(o.a))
			call = func() error { _, err := s.owner(spec.Name).cat.CreateFile(dn, spec); return err }
		case opReadBack:
			name := writtenName(id, int(o.a))
			call = func() error { _, err := s.owner(name).cat.GetAttributes(dn, core.ObjectFile, name); return err }
		case opSetAttr:
			name := writtenName(id, int(o.a))
			attr, v := setAttrTarget(o)
			call = func() error {
				return s.owner(name).cat.SetAttribute(dn, core.ObjectFile, name, attrName(attr), attrValue(attr, v))
			}
		case opDelete:
			name := writtenName(id, int(o.a))
			call = func() error { return s.owner(name).cat.DeleteFile(dn, name, 0) }
		case opBatch:
			ops := writtenBatch(id, int(o.a))
			call = func() error { _, err := s.owner(ops[0].CreateFile.Name).cat.BatchWrite(dn, ops); return err }
		}
		before := stmts.Load()
		start := time.Now()
		err := call()
		end := time.Now()
		if err != nil {
			return out, fmt.Errorf("direct pass, %s op: %w", classNames[cls], err)
		}
		tr.add("core.replay", "", "", start, end)
		sumNs[cls] += int64(end.Sub(start))
		sumStmts[cls] += stmts.Load() - before
		out.n[cls]++
	}
	for c := range out.n {
		if out.n[c] > 0 {
			out.us[c] = float64(sumNs[c]) / 1e3 / float64(out.n[c])
			out.stmts[c] = float64(sumStmts[c]) / float64(out.n[c])
		}
	}
	return out, nil
}

func medianUs(durs []time.Duration) float64 {
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return float64(durs[len(durs)/2]) / 1e3
}

// coldWarmRead times one k=3 search two ways on node 0: repeated at one
// MVCC epoch (core's epoch caches and sqldb's cached plan are warm), and
// first after a commit, which bumps the epoch and drops both.
func coldWarmRead(s *sut, d dataset) (warmUs, coldUs float64, err error) {
	cat := s.nodes[0].cat
	q := core.Query{Predicates: searchPreds(search3Attrs, 7)}
	want := d.onNode(d.matches(search3Attrs, 7), 0, len(s.nodes))
	const probe = "s0-probe"
	if _, err := cat.CreateFile(ownerDN, core.FileSpec{Name: probe, DataType: "binary"}); err != nil {
		return 0, 0, err
	}
	read := func() (time.Duration, error) {
		t := time.Now()
		names, err := cat.RunQuery(readerDN, q)
		el := time.Since(t)
		if err == nil && len(names) != want {
			err = fmt.Errorf("cold/warm probe returned %d names, want %d", len(names), want)
		}
		return el, err
	}
	const rounds = 31
	var cold, warm []time.Duration
	for i := 0; i < rounds; i++ {
		if err := cat.SetAttribute(ownerDN, core.ObjectFile, probe, attrName(3), attrValue(3, writtenBase+i)); err != nil {
			return 0, 0, err
		}
		el, err := read()
		if err != nil {
			return 0, 0, err
		}
		cold = append(cold, el)
		if el, err = read(); err != nil {
			return 0, 0, err
		}
		if el, err = read(); err != nil { // the third read at this epoch
			return 0, 0, err
		}
		warm = append(warm, el)
	}
	return medianUs(warm), medianUs(cold), nil
}

// snapshotCost times one Catalog.Snapshot per node into memory.
func snapshotCost(s *sut) (seconds float64, bytesOut int, err error) {
	for _, n := range s.nodes {
		var buf bytes.Buffer
		t := time.Now()
		if err := n.cat.Snapshot(&buf); err != nil {
			return 0, 0, err
		}
		seconds += time.Since(t).Seconds()
		bytesOut += buf.Len()
	}
	return seconds, bytesOut, nil
}

// btreeCost times the index tree directly, shaped as sqldb uses it: degree
// 8, and every insert made on a fresh Clone so it copies its root-to-leaf
// path as an MVCC writer does. Keys are a fixed permutation of 0..n-1.
func btreeCost(n int) (insertNs, getNs, insertAllocs float64) {
	t := btree.NewDegree[int, int](8, func(a, b int) bool { return a < b })
	key := func(i int) int { return i * 7919 % n } // 7919 is prime and n is not its multiple
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		t = t.Clone()
		t.Set(key(i), i)
	}
	insertNs = float64(time.Since(start)) / float64(n)
	runtime.ReadMemStats(&m1)
	insertAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	start = time.Now()
	hits := 0
	for i := 0; i < n; i++ {
		if _, ok := t.Get(key(i)); ok {
			hits++
		}
	}
	getNs = float64(time.Since(start)) / float64(n)
	if hits != n {
		getNs = 0 // cannot happen; keeps the loop from being optimised away
	}
	return insertNs, getNs, insertAllocs
}
