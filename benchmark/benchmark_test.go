package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mcs/internal/core"
)

// small is D20k's shape at 500 files: 20 leaf collections of 25.
var small = dataset{files: 500, perLeaf: 25}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := streamHash(w.mix, d20k, 1, 2, 5000)
		if b := streamHash(w.mix, d20k, 1, 2, 5000); a != b {
			t.Errorf("%s: seed 1 hashed %s then %s", w.name, a, b)
		}
		if w.mix.ingest {
			// The ingest cycle is fixed; only its setAttribute targets are drawn.
			continue
		}
		if b := streamHash(w.mix, d20k, 2, 2, 5000); a == b {
			t.Errorf("%s: seeds 1 and 2 hash alike (%s)", w.name, a)
		}
	}
	if a, b := streamHash(mixIngest, d20k, 1, 2, 5000), streamHash(mixIngest, d20k, 2, 2, 5000); a == b {
		t.Errorf("ingest: seeds 1 and 2 hash alike (%s)", a)
	}
}

func TestMixedStreamsAreIdentical(t *testing.T) {
	hashes := map[string]string{}
	for _, name := range []string{"mixed", "mixed_soap", "sharded"} {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		hashes[name] = streamHash(w.mix, d20k, 7, 4, 5000)
	}
	if hashes["mixed"] != hashes["mixed_soap"] || hashes["mixed"] != hashes["sharded"] {
		t.Errorf("streams differ for one seed: %v", hashes)
	}
}

func TestStreamKeepsOwnFilesConsistent(t *testing.T) {
	for _, m := range []mix{mixMixed, mixIngest} {
		s := newStream(m, d20k, 3, 0)
		oldest, next := int32(0), int32(0)
		for i := 0; i < 20000; i++ {
			o := s.nextOp()
			switch o.kind {
			case opCreate:
				if o.a != next {
					t.Fatalf("op %d creates serial %d, want %d", i, o.a, next)
				}
				next++
			case opBatch:
				if o.a != next {
					t.Fatalf("op %d batches from serial %d, want %d", i, o.a, next)
				}
				next += batchFiles
			case opDelete:
				if o.a != oldest || oldest >= next {
					t.Fatalf("op %d deletes serial %d with live range [%d,%d)", i, o.a, oldest, next)
				}
				oldest++
			case opSetAttr, opReadBack:
				if o.a < oldest || o.a >= next {
					t.Fatalf("op %d touches serial %d outside live range [%d,%d)", i, o.a, oldest, next)
				}
			}
		}
	}
}

// The oracle's arithmetic against what a real catalog answers.
func TestOracleMatchesCatalog(t *testing.T) {
	snap, err := small.build(-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := core.Restore(catalogOpts, bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 1, 7, 123, 499} {
		for _, attrs := range [][]int{search3Attrs, allAttrs, {0}, {1, 3}} {
			got, err := cat.RunQuery(readerDN, core.Query{Predicates: searchPreds(attrs, j)})
			if err != nil {
				t.Fatal(err)
			}
			want := small.matches(attrs, j)
			if err := small.checkNames(got, want); err != nil {
				t.Errorf("file %d attrs %v: %v", j, attrs, err)
			}
			want.n++
			if small.checkNames(got, want) == nil {
				t.Errorf("file %d attrs %v: a wrong count passed the oracle", j, attrs)
			}
		}
		name := small.fileName(j)
		f, err := cat.GetFile(readerDN, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFile(f, name, ownerDN); err != nil {
			t.Error(err)
		}
		got, err := cat.GetAttributes(readerDN, core.ObjectFile, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAttrs(got, datasetAttrs(j)); err != nil {
			t.Errorf("file %d: %v", j, err)
		}
		if checkAttrs(got, datasetAttrs(j+1)) == nil {
			t.Errorf("file %d: the attributes of file %d passed the oracle", j, j+1)
		}
	}
	// Paging: 250 files hold a00 = 1, which one page of pageRows rows holds.
	q := core.Query{Predicates: searchPreds([]int{0}, 1)}
	want := small.matches([]int{0}, 1)
	names, next, err := cat.RunQueryPage(readerDN, q, pageRows, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := small.checkPage(names, next, want, 1, 0); err != nil {
		t.Error(err)
	}
	if small.checkPage(names, next, want, 1, 1) == nil {
		t.Error("page 0 passed as page 1")
	}
	// D20k's first two pages of a00 = 1, on one server and behind the router.
	for _, nodes := range []int{1, 2} {
		for page, wantLo := range []int{0, pageRows} {
			lo, n, more := d20k.pageOf(d20k.matches([]int{0}, 1), nodes, page)
			if lo != wantLo || n != pageRows || !more {
				t.Errorf("D20k page %d on %d nodes: rows %d+%d more=%v", page, nodes, lo, n, more)
			}
		}
	}
	// A shard that runs dry hands over to the next: 125 rows, then 125.
	if lo, n, more := small.pageOf(want, 2, 1); lo != 125 || n != 125 || more {
		t.Errorf("small page 1 on 2 nodes: rows %d+%d more=%v", lo, n, more)
	}
	// The reader's rights come only through the ancestor chain, and stop at
	// the publisher's subtree.
	if _, err := cat.GetCollection(readerDN, publisherColl(0)); err == nil {
		t.Error("reader can see a publisher's collection")
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	var s []int64
	for i := int64(1); i <= 1000; i++ {
		s = append(s, i)
	}
	for q, want := range map[float64]int64{0.50: 500, 0.95: 950, 0.99: 990, 1: 1000} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", q, got, want)
		}
	}
	if got := percentile([]int64{42}, 0.99); got != 42 {
		t.Errorf("percentile of one sample = %d", got)
	}
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) in Python.
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "client.call", Start: 0, End: 100, Req: "a"},
		{Name: "client.http", Start: 10, End: 90, Parent: "client.call", Req: "a"},
		{Name: "router.http", Start: 20, End: 80, Parent: "client.http", Req: "a"},
		// Two overlapping shard subqueries cover 30..70 of the router's span.
		{Name: "shard0.http", Start: 30, End: 60, Parent: "router.http", Req: "a"},
		{Name: "shard1.http", Start: 40, End: 70, Parent: "router.http", Req: "a"},
		// Another request, and a span with no request at all.
		{Name: "client.call", Start: 200, End: 230, Req: "b"},
		{Name: "ckpt", Start: 0, End: 500},
	}
	got := selfTimes(spans)
	want := map[string]spanTotals{
		"client.call": {count: 2, dur: 130, self: 20 + 30},
		"client.http": {count: 1, dur: 80, self: 20},
		"router.http": {count: 1, dur: 60, self: 20},
		"shard0.http": {count: 1, dur: 30, self: 30},
		"shard1.http": {count: 1, dur: 30, self: 30},
		"ckpt":        {count: 1, dur: 500, self: 500},
	}
	for name, w := range want {
		if g := got[name]; g == nil || *g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func TestTraceFlagForms(t *testing.T) {
	for in, want := range map[string]string{
		"--workload mixed --trace 1 --seed 3": "--workload mixed -trace=1 --seed 3",
		"--trace 0":                           "-trace=0",
		"-trace -seed 3":                      "-trace -seed 3",
		"-seed 1 -trace":                      "-seed 1 -trace",
	} {
		if got := strings.Join(splitTraceArg(strings.Fields(in)), " "); got != want {
			t.Errorf("%q became %q, want %q", in, got, want)
		}
	}
}

// tinyOut is the out directory of every tinyRun, so the small dataset's
// snapshot is built once.
var tinyOut string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		panic(err)
	}
	tinyOut = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyRun drives one workload end to end on the small dataset.
func tinyRun(t *testing.T, name string, trace, corrupt bool) *result {
	t.Helper()
	w, _ := findWorkload(name)
	cfg := config{seed: 1, seconds: 0.5, trace: trace, clients: 1, data: small, outDir: tinyOut, corrupt: corrupt}
	res, err := runWorkload(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The negative self-test: one corrupted expected count must show up both in
// failed_share and in the exit status.
func TestCorruptedOracleFailsTheRun(t *testing.T) {
	good := tinyRun(t, "discover", false, false)
	if good.Failed != 0 || good.Metrics["failed_share"].V != 0 {
		t.Fatalf("clean run failed %d of %d: %v", good.Failed, good.Attempted, good.Failures)
	}
	bad := tinyRun(t, "discover", false, true)
	if bad.Failed == 0 || bad.Metrics["failed_share"].V <= 0 {
		t.Errorf("corrupted oracle: failed %d, failed_share %v", bad.Failed, bad.Metrics["failed_share"].V)
	}
	sp := &spec{EndToEnd: []specMetric{{Name: "ops_per_s", Unit: "1/s"}}}
	line, err := driverLine(sp, bad)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"correct":false`) {
		t.Errorf("driver line of a failed run: %s", line)
	}
}

// A traced run of the sharded workload fills every per-layer metric, and
// the write workloads survive their restart check.
func TestTracedShardedRun(t *testing.T) {
	res := tinyRun(t, "sharded", true, false)
	if res.Failed != 0 {
		t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, res.Failures)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	if v := res.Metrics["shard.subqueries_per_scatter"]; v.NA || v.V < 1 {
		t.Errorf("shard.subqueries_per_scatter = %+v", v)
	}
	if len(res.spans) == 0 {
		t.Error("no spans recorded")
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, setup []float64) string {
		f := resultsFile{}
		for i := range ops {
			f.Runs = append(f.Runs, &runRecord{Results: []*result{{
				Workload: "mixed",
				Metrics: map[string]value{
					"ops_per_s": {V: ops[i]}, "setup_s": {V: setup[i]}, "single_p50_ms": {V: 1 + float64(i%2)},
				},
			}}})
		}
		raw, _ := json.Marshal(f)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sp := &spec{EndToEnd: []specMetric{
		{Name: "ops_per_s", Bound: 0.10}, {Name: "setup_s", Bound: 0.25}, {Name: "single_p50_ms", Bound: 0.10},
	}}
	a := write("a.json", []float64{1000, 1010, 990, 1005}, []float64{5, 5.1, 4.9, 5})
	same := write("same.json", []float64{1002, 995, 1008, 1001}, []float64{5.5, 5.6, 5.4, 5.5})
	slow := write("slow.json", []float64{800, 805, 795, 801}, []float64{5, 5.1, 4.9, 5})
	var out bytes.Buffer
	if err := compareFiles(&out, sp, a, same); err != nil {
		t.Errorf("same code compared worse: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("single_p50_ms alternates 1 and 2 ms, yet no row is unresolved:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, sp, a, slow); err == nil {
		t.Errorf("a 20%% throughput loss compared ok:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no row says worse:\n%s", out.String())
	}
}

// BENCHMARK.json and the program must agree on names, units and directions.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	sp, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
		if pw, ok := findWorkload(w.Name); !ok || pw.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the program disagree on it or its why", w.Name)
		}
	}
	var own []string
	for _, w := range workloads {
		own = append(own, w.name)
	}
	if !reflect.DeepEqual(names, own) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, own)
	}
	check := func(list []specMetric, defs []metricDef, kind string) {
		byName := map[string]metricDef{}
		for _, d := range defs {
			byName[d.name] = d
		}
		for _, m := range list {
			d, ok := byName[m.Name]
			if !ok || d.unit != m.Unit || d.better != m.Better {
				t.Errorf("%s metric %+v does not match the program's %+v", kind, m, d)
			}
		}
	}
	check(sp.EndToEnd, endToEnd, "end_to_end")
	check(sp.PerLayer, perLayer, "per_layer")
}
