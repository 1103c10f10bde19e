// Allocation gates for the add path, the snapshot and the restored heap. The
// write-amplification work (compact Values, batched index maintenance,
// shared-interior btree copies, row-pointer index entries) is easy to
// regress invisibly — throughput benchmarks drift with hardware, but bytes
// allocated per add and bytes live per restored file do not. These tests
// pin hard budgets well above today's measurements and far below the
// pre-optimization numbers, so a change that reintroduces per-row index
// descent, fat value copies or wide index keys fails in CI.
package mcs_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mcs/internal/bench"
	"mcs/internal/core"
	"mcs/internal/sqldb"
)

// allocsPerAdd runs n adds via add and returns (bytes, allocations) per add,
// measured from the heap's monotonic counters so background GC cannot skew
// the numbers downward.
func allocsPerAdd(n int, add func(i int)) (bytesPer, allocsPer float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		add(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n)
}

// Budgets. A direct add (CreateFile with 10 attributes) currently costs
// ~95 KB / ~755 allocations against a 2k-file catalog (it was ~194 KB / ~855
// with 88-byte index keys, ~900 KB / ~1900 before batched index maintenance),
// an add inside a 100-op batch ~21 KB / ~140 (was ~58 KB / ~245), and a
// restored catalog keeps ~3.4 KB of heap per file (it was ~4.1 KB while each
// table kept a unique index on its INTEGER PRIMARY KEY beside the row store
// and five unread indexes stood, ~5.0 KB while indexes held NULL-keyed
// entries, ~31 KB before that). The add gates sit at roughly 2× today's
// numbers: loose enough for tree-depth noise and toolchain drift, tight
// enough that losing any one optimization trips them. The restored-heap gate
// sits ~10 % above today's number, which it repeats to the byte: a return of
// the primary-key indexes (+0.3 KB) or of ua_oid (+0.3 KB) trips it.
const (
	singleAddByteBudget  = 200_000
	singleAddAllocBudget = 1_600
	batchAddByteBudget   = 45_000 // per add inside a 100-op batch
	batchAddAllocBudget  = 330
	restoredHeapBudget   = 3_750 // bytes live per file after core.Restore
	// Catalog.Snapshot allocates its frame buffer and little else (~45 KB
	// measured); the gob encoder it replaced allocated ~16 KB per file.
	snapshotAllocBudget = 256 << 10 // bytes per Snapshot, whatever the catalog's size
)

func gateCatalog(t *testing.T) *core.Catalog {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation gate needs a populated catalog")
	}
	cat, err := bench.Load(bench.DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// BenchmarkAddSingle and BenchmarkAddBatch100 are the testing.B counterparts
// of the gates above: pure adds (no compensating delete), with B/op and
// allocs/op reported beside the rate.
func BenchmarkAddSingle(b *testing.B) {
	cat := loadedCatalog(b)
	cfg := bench.DefaultConfig(benchFiles())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := addSeq.Add(1)
			_, err := cat.CreateFile(bench.LoaderDN, core.FileSpec{
				Name:       fmt.Sprintf("bench-addonly-%d", i),
				DataType:   "binary",
				Attributes: bench.FileAttributes(int(i), cfg.AttrsPerFile),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAddBatch100(b *testing.B) {
	cat := loadedCatalog(b)
	cfg := bench.DefaultConfig(benchFiles())
	const batch = 100
	b.ReportAllocs()
	b.ResetTimer()
	// Each iteration registers one file; whole batches are timed and the
	// per-file cost is what B/op and ns/op report.
	for n := 0; n < b.N; n += batch {
		ops := make([]core.BatchOp, batch)
		for j := range ops {
			i := addSeq.Add(1)
			ops[j] = core.BatchOp{CreateFile: &core.FileSpec{
				Name:       fmt.Sprintf("bench-addonly-%d", i),
				DataType:   "binary",
				Attributes: bench.FileAttributes(int(i), cfg.AttrsPerFile),
			}}
		}
		if _, err := cat.BatchWrite(bench.LoaderDN, ops); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSingleAddAllocBudget(t *testing.T) {
	cat := gateCatalog(t)
	cfg := bench.DefaultConfig(2000)
	add := func(i int) {
		_, err := cat.CreateFile(bench.LoaderDN, core.FileSpec{
			Name:       fmt.Sprintf("alloc-gate-%d", i),
			DataType:   "binary",
			Attributes: bench.FileAttributes(i, cfg.AttrsPerFile),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add(1 << 20) // warm caches and the attribute-definition lookups
	bytesPer, allocsPer := allocsPerAdd(200, add)
	t.Logf("single add: %.0f B / %.0f allocs per add", bytesPer, allocsPer)
	if bytesPer > singleAddByteBudget {
		t.Errorf("single add allocates %.0f B per add, budget %d", bytesPer, singleAddByteBudget)
	}
	if allocsPer > singleAddAllocBudget {
		t.Errorf("single add makes %.0f allocations per add, budget %d", allocsPer, singleAddAllocBudget)
	}
}

func TestBatch100AddAllocBudget(t *testing.T) {
	cat := gateCatalog(t)
	cfg := bench.DefaultConfig(2000)
	const batch = 100
	seq := 0
	addBatch := func(i int) {
		ops := make([]core.BatchOp, batch)
		for j := range ops {
			seq++
			ops[j] = core.BatchOp{CreateFile: &core.FileSpec{
				Name:       fmt.Sprintf("alloc-gate-batch-%d-%d", i, seq),
				DataType:   "binary",
				Attributes: bench.FileAttributes(seq, cfg.AttrsPerFile),
			}}
		}
		if _, err := cat.BatchWrite(bench.LoaderDN, ops); err != nil {
			t.Fatal(err)
		}
	}
	addBatch(1 << 20)
	bytesPerBatch, allocsPerBatch := allocsPerAdd(5, addBatch)
	bytesPer, allocsPer := bytesPerBatch/batch, allocsPerBatch/batch
	t.Logf("batch-100 add: %.0f B / %.0f allocs per add", bytesPer, allocsPer)
	if bytesPer > batchAddByteBudget {
		t.Errorf("batched add allocates %.0f B per add, budget %d", bytesPer, batchAddByteBudget)
	}
	if allocsPer > batchAddAllocBudget {
		t.Errorf("batched add makes %.0f allocations per add, budget %d", allocsPer, batchAddAllocBudget)
	}
}

// datasetSnapshot loads the benchmark dataset into a throwaway catalog and
// returns its snapshot; the catalog itself is garbage by the time the
// caller measures anything.
func datasetSnapshot(tb testing.TB, files int) []byte {
	tb.Helper()
	cat, err := bench.Load(bench.DefaultConfig(files))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cat.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// countingWriter is a sink that keeps the byte count only.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestSnapshotAllocBudget gates the checkpoint's memory: Catalog.Snapshot of
// a catalog five times the size must fit the same fixed budget — O(frame),
// not O(catalog) — so a checkpoint never competes with the working set for
// heap, and never hands the collector a catalog-sized pile to trace while
// writers run.
func TestSnapshotAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs a populated catalog")
	}
	for _, files := range []int{2000, 10000} {
		cat, err := bench.Load(bench.DefaultConfig(files))
		if err != nil {
			t.Fatal(err)
		}
		var out countingWriter
		perSnapshot, _ := allocsPerAdd(1, func(int) {
			if err := cat.Snapshot(&out); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d files: Snapshot writes %d B (%.0f B per file) and allocates %.0f B", files, out.n, float64(out.n)/float64(files), perSnapshot)
		if perSnapshot > snapshotAllocBudget {
			t.Errorf("Snapshot of %d files allocates %.0f B, budget %d at any size", files, perSnapshot, snapshotAllocBudget)
		}
	}
}

// liveHeap is HeapAlloc after two forced collections (the second sweeps
// what the first one's finalizers and deferred frees released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRestoredHeapBudget gates what a booted catalog costs to keep: heap
// bytes per file after core.Restore, the figure that decides how many files
// one mcsd — or one follower or migration target booting through the same
// path — can hold.
func TestRestoredHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("heap gate needs a populated catalog")
	}
	const files = 2000
	snap := datasetSnapshot(t, files)
	before := liveHeap()
	cat, err := core.Restore(core.Options{}, bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	perFile := float64(liveHeap()-before) / files
	runtime.KeepAlive(cat)
	t.Logf("restored heap: %.0f B per file", perFile)
	if perFile > restoredHeapBudget {
		t.Errorf("restored catalog keeps %.0f B of heap per file, budget %d", perFile, restoredHeapBudget)
	}
}

// BenchmarkRestore times core.Restore of the benchmark dataset
// (MCS_BENCH_FILES files, default 10000): files/s is the boot rate of every
// path that starts an instance from "snapshot + log suffix".
func BenchmarkRestore(b *testing.B) {
	files := benchFiles()
	snap := datasetSnapshot(b, files)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Restore(core.Options{}, bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(files)*float64(b.N)/b.Elapsed().Seconds(), "files/s")
}

// replayCycles is the ingest fixture's length: cycles of 23 records each
// (one 100-file BatchWrite, 20 CreateFile, one SetAttribute, one DeleteFile,
// as the benchmark's ingest workload issues them), ~2,500 records in all.
const replayCycles = 109

// replayLog restores snap, opens a WAL beside it, runs write against the
// catalog and returns the log's bytes and how many records write committed.
func replayLog(b *testing.B, snap []byte, write func(cat *core.Catalog)) ([]byte, int) {
	b.Helper()
	cat, err := core.Restore(core.Options{}, bytes.NewReader(snap))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "fixture.wal")
	w, _, err := cat.OpenWAL(path, sqldb.WALOptions{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	base := cat.LastLSN()
	write(cat)
	records := int(cat.LastLSN() - base)
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return log, records
}

// replayName and replaySpec are the fixtures' files.
func replayName(i int) string { return fmt.Sprintf("replay-%d", i) }

func replaySpec(i int) core.FileSpec {
	return core.FileSpec{Name: replayName(i), DataType: "binary", Attributes: bench.FileAttributes(i, bench.DefaultConfig(1).AttrsPerFile)}
}

// ingestLog writes replayCycles ingest cycles.
func ingestLog(b *testing.B) func(cat *core.Catalog) {
	return func(cat *core.Catalog) {
		next, oldest := 0, 0
		for range replayCycles {
			ops := make([]core.BatchOp, 100)
			for j := range ops {
				s := replaySpec(next)
				ops[j], next = core.BatchOp{CreateFile: &s}, next+1
			}
			if _, err := cat.BatchWrite(bench.LoaderDN, ops); err != nil {
				b.Fatal(err)
			}
			for range 20 {
				if _, err := cat.CreateFile(bench.LoaderDN, replaySpec(next)); err != nil {
					b.Fatal(err)
				}
				next++
			}
			a := bench.FileAttributes(next, 1)[0]
			if err := cat.SetAttribute(bench.LoaderDN, core.ObjectFile, replayName(oldest+next%100), a.Name, a.Value); err != nil {
				b.Fatal(err)
			}
			if err := cat.DeleteFile(bench.LoaderDN, replayName(oldest), 0); err != nil {
				b.Fatal(err)
			}
			oldest++
		}
	}
}

// mixedLog writes the mixed workload's write stream until it has committed
// records records: createFile with ten attributes, setAttribute on the
// newest file and deleteFile of the oldest, at 50/30/20 %, each call under
// an idempotency key as a retrying client sends it, so every record also
// carries its replay-cache row and, past ReplayCacheBound keys, the prune.
func mixedLog(b *testing.B, records int) func(cat *core.Catalog) {
	return func(cat *core.Catalog) {
		base := cat.LastLSN()
		next, oldest := 0, 0
		for i := 0; cat.LastLSN()-base < uint64(records); i++ {
			key := core.WithIdempotencyKey(fmt.Sprintf("replay-mixed-%d", i))
			var err error
			switch i % 10 {
			case 0, 2, 4, 6, 8:
				_, err = cat.CreateFile(bench.LoaderDN, replaySpec(next), key)
				next++
			case 1, 5, 9:
				a := bench.FileAttributes(next+i, 3)[2]
				err = cat.SetAttribute(bench.LoaderDN, core.ObjectFile, replayName(next-1), a.Name, a.Value, key)
			default:
				err = cat.DeleteFile(bench.LoaderDN, replayName(oldest), 0, key)
				oldest++
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReplay times Catalog.OpenWAL replaying a log over the restored
// benchmark dataset — the log-suffix half of "snapshot + log suffix". The
// ingest fixture (~2,500 records) is what dominates the ingest workload's
// restart; the mixed fixtures are the write stream of the mixed workloads at
// the record count a 10 s window logs (1,900) and at 2.7 times it (5,000),
// what a doubled read rate would leave behind. Only OpenWAL is timed;
// records/s is the replay rate, B/record the log's size, tables-rebuilt how
// many tables rebuilt their indexes rather than flushed their deltas.
func BenchmarkReplay(b *testing.B) {
	snap := datasetSnapshot(b, benchFiles())
	for _, fx := range []struct {
		name  string
		write func(cat *core.Catalog)
	}{
		{"ingest", ingestLog(b)},
		{"mixed-1900", mixedLog(b, 1900)},
		{"mixed-5000", mixedLog(b, 5000)},
	} {
		b.Run(fx.name, func(b *testing.B) {
			log, records := replayLog(b, snap, fx.write)
			dir := b.TempDir()
			rebuilt := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cat, err := core.Restore(core.Options{}, bytes.NewReader(snap))
				if err != nil {
					b.Fatal(err)
				}
				path := filepath.Join(dir, fmt.Sprintf("%d.wal", i))
				if err := os.WriteFile(path, log, 0o600); err != nil {
					b.Fatal(err)
				}
				runtime.GC() // the restore's garbage is not the replay's to collect
				b.StartTimer()
				w, stats, err := cat.OpenWAL(path, sqldb.WALOptions{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				if stats.Applied != records {
					b.Fatalf("replayed %d records, the fixture logged %d", stats.Applied, records)
				}
				rebuilt = stats.Rebuilt
				b.StopTimer()
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(len(log))/float64(records), "B/record")
			b.ReportMetric(float64(rebuilt), "tables-rebuilt")
		})
	}
}

// BenchmarkQueryPage times one 512-row RunQueryPage as the loader DN over
// 10,000 files, for a conjunction of k = 1, 3 and 10 attribute equalities
// that 200 of them match: the engine's DISTINCT, ORDER BY and LIMIT over an
// intersection plan, then the page's name resolve. allocs/op is the page's
// garbage.
func BenchmarkQueryPage(b *testing.B) {
	const files, matches = 10000, 200
	cat, err := bench.Load(bench.DefaultConfig(files))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 3, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			q := core.Query{Predicates: bench.Predicates(k, 7)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				names, next, err := cat.RunQueryPage(bench.LoaderDN, q, 512, "")
				if err != nil {
					b.Fatal(err)
				}
				if len(names) != matches || next != "" {
					b.Fatalf("page of %d names (next %q), want all %d matches", len(names), next, matches)
				}
			}
		})
	}
}

// BenchmarkSnapshot times Catalog.Snapshot of the same dataset into a sink:
// MB/s of stream written, files/s, and — the point of the framed stream —
// B/op that does not grow with the catalog.
func BenchmarkSnapshot(b *testing.B) {
	cat := loadedCatalog(b)
	var out countingWriter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cat.Snapshot(&out); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(out.n / int64(b.N))
	b.ReportMetric(float64(benchFiles())*float64(b.N)/b.Elapsed().Seconds(), "files/s")
}
