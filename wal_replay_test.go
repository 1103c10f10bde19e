package mcs_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mcs/internal/bench"
	"mcs/internal/core"
	"mcs/internal/sqldb"
)

// TestWALReplayMatchesLive drives a catalog through the live API with its
// log attached — ingest cycles, a mixed stream of reads and writes, a DDL
// statement, and a rotation in the middle, so the log spans two files and
// two dictionaries — then restores a snapshot and replays the files. The
// replayed catalog must dump to exactly the bytes of the live one: from the
// snapshot taken before the log was opened, at the end of the log (a log
// large against the catalog, whose tables rebuild their indexes), with the
// log cut at a record boundary mid-stream, and with the log cut inside the
// DDL record, which defines a dictionary entry; and from the snapshot taken
// at the rotation, with a dozen records of the second file (a log small
// against the catalog, whose tables flush their queued index deltas).
func TestWALReplayMatchesLive(t *testing.T) {
	cfg := bench.DefaultConfig(60)
	cat, err := bench.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := cat.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.snap.wal")
	w, _, err := cat.OpenWAL(path, sqldb.WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}

	dump := func() []byte {
		var buf bytes.Buffer
		if err := cat.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	mustT := func(t *testing.T) func(error) {
		return func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	must := mustT(t)
	next, oldest := 0, 0
	spec := func() core.FileSpec {
		next++
		return core.FileSpec{Name: fmt.Sprintf("live-%d", next), DataType: "binary",
			Attributes: bench.FileAttributes(next, cfg.AttrsPerFile)}
	}
	create := func() {
		_, err := cat.CreateFile(bench.LoaderDN, spec())
		must(err)
	}
	setAttr := func() {
		a := bench.FileAttributes(next+7, 3)[2]
		must(cat.SetAttribute(bench.LoaderDN, core.ObjectFile, fmt.Sprintf("live-%d", next), a.Name, a.Value))
	}
	remove := func() {
		oldest++
		must(cat.DeleteFile(bench.LoaderDN, fmt.Sprintf("live-%d", oldest), 0))
	}
	read := func(i int) {
		if _, err := cat.GetFile(bench.LoaderDN, bench.FileName(i%cfg.Files), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.RunQuery(bench.LoaderDN, core.Query{Predicates: bench.Predicates(1+i%3, i)}); err != nil {
			t.Fatal(err)
		}
	}
	watch := func() {} // runs after every op of the mixed stream
	mixed := func(ops int) {
		for i := range ops {
			switch i % 10 {
			case 0, 3, 6:
				create()
			case 1, 7:
				setAttr()
			case 4:
				remove()
			default:
				read(i)
			}
			watch()
		}
	}

	// The first file: two ingest cycles and a mixed stream.
	for range 2 {
		ops := make([]core.BatchOp, 100)
		for j := range ops {
			s := spec()
			ops[j] = core.BatchOp{CreateFile: &s}
		}
		_, err := cat.BatchWrite(bench.LoaderDN, ops)
		must(err)
		for range 20 {
			create()
		}
		setAttr()
		remove()
	}
	mixed(80)
	must(w.Rotate())

	// The second file, which starts a fresh dictionary: a few hundred records
	// with a DDL statement inside, which defines an entry.
	rotated, atRotation := cat.LastLSN(), dump()
	var early, atBatch []byte
	var earlyEnd, batchEnd int64
	watch = func() {
		if early == nil && cat.LastLSN() == rotated+12 {
			early, earlyEnd = dump(), size()
		}
		if atBatch == nil && cat.LastLSN() == rotated+256 {
			atBatch, batchEnd = dump(), size()
		}
	}
	mixed(150)
	beforeDDL, ddlStart, lastBeforeDDL := dump(), size(), fmt.Sprintf("live-%d", next)
	_, err = cat.DB().Exec("CREATE TABLE wal_probe (k TEXT NOT NULL UNIQUE, v INTEGER)")
	must(err)
	ddlEnd := size()
	_, err = cat.DB().Exec("INSERT INTO wal_probe (k, v) VALUES (?, ?)", sqldb.Text("probe"), sqldb.Int(1))
	must(err)
	mixed(440)
	if early == nil || atBatch == nil {
		t.Fatal("no op of the mixed stream ended at the record boundaries the cuts take")
	}
	final, finalSize := dump(), size()
	must(w.Close())

	// restoreCut restores snapshot from into a new catalog and replays
	// copies of both log files, the current one cut to its first cut bytes.
	restoreCut := func(t *testing.T, from []byte, cut int64) (*core.Catalog, *sqldb.WAL, sqldb.ReplayStats, string) {
		must := mustT(t)
		rpath := filepath.Join(t.TempDir(), "cat.snap.wal")
		sealed, err := os.ReadFile(path + ".1")
		must(err)
		current, err := os.ReadFile(path)
		must(err)
		must(os.WriteFile(rpath+".1", sealed, 0o644))
		must(os.WriteFile(rpath, current[:cut], 0o644))
		cat2, err := core.Restore(core.Options{}, bytes.NewReader(from))
		must(err)
		w2, stats, err := cat2.OpenWAL(rpath, sqldb.WALOptions{NoSync: true})
		must(err)
		return cat2, w2, stats, rpath
	}
	dumpOf := func(t *testing.T, c *core.Catalog) []byte {
		var buf bytes.Buffer
		mustT(t)(c.Snapshot(&buf))
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name    string
		from    []byte
		cut     int64
		want    []byte
		rebuilt bool // some table rebuilt its indexes rather than flushed
	}{
		{"whole", snap.Bytes(), finalSize, final, true},
		{"batch-boundary", snap.Bytes(), batchEnd, atBatch, true},
		{"before-ddl", snap.Bytes(), ddlStart, beforeDDL, true},
		{"flush", atRotation, earlyEnd, early, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat2, w2, stats, _ := restoreCut(t, tc.from, tc.cut)
			defer w2.Close()
			if stats.TornBytes != 0 {
				t.Fatalf("a cut on a record boundary left %d torn bytes", stats.TornBytes)
			}
			if rebuilt := stats.Rebuilt > 0; rebuilt != tc.rebuilt {
				t.Fatalf("replaying %d records rebuilt %d tables", stats.Applied, stats.Rebuilt)
			}
			if got := dumpOf(t, cat2); !bytes.Equal(got, tc.want) {
				t.Fatalf("the replayed catalog (LSN %d) dumps %d bytes that differ from the live catalog's %d",
					cat2.LastLSN(), len(got), len(tc.want))
			}
		})
	}
	// A cut inside the DDL record loses the record: its torn bytes are cut
	// away and the state is the live one before it.
	t.Run("inside-ddl", func(t *testing.T) {
		must := mustT(t)
		cut := (ddlStart + ddlEnd) / 2
		cat2, w2, stats, rpath := restoreCut(t, snap.Bytes(), cut)
		if stats.TornBytes != cut-ddlStart {
			t.Fatalf("TornBytes = %d, want %d", stats.TornBytes, cut-ddlStart)
		}
		if !bytes.Equal(dumpOf(t, cat2), beforeDDL) {
			t.Fatalf("the catalog replayed up to a torn DDL record differs from the live one before it")
		}
		// The recovered log takes new records against the dictionary it
		// was seeded with, and a second recovery reads them back. The
		// setAttribute goes first: its table is not the file's first
		// definition, so a writer that started a fresh dictionary would
		// number it differently from the decoder.
		a := bench.FileAttributes(next+3, 2)[1]
		must(cat2.SetAttribute(bench.LoaderDN, core.ObjectFile, lastBeforeDDL, a.Name, a.Value))
		_, err := cat2.CreateFile(bench.LoaderDN, spec())
		must(err)
		want := dumpOf(t, cat2)
		must(w2.Close())
		cat3, err := core.Restore(core.Options{}, bytes.NewReader(snap.Bytes()))
		must(err)
		w3, _, err := cat3.OpenWAL(rpath, sqldb.WALOptions{NoSync: true})
		must(err)
		defer w3.Close()
		if !bytes.Equal(dumpOf(t, cat3), want) {
			t.Fatal("a record appended after recovery does not replay to the state it committed")
		}
	})
}
