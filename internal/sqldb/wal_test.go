package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// openTestWAL opens a WAL for db at path and attaches it, failing the test
// on error.
func openTestWAL(t *testing.T, path string, db *DB, opts WALOptions) (*WAL, ReplayStats) {
	t.Helper()
	w, stats, err := OpenWAL(path, db, db.LastLSN(), opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	db.AttachWAL(w)
	return w, stats
}

// dumpBytes serializes db deterministically for state-equality assertions.
func dumpBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	return buf.Bytes()
}

func TestWALReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	mustExec(t, db, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w, stats := openTestWAL(t, path, db, WALOptions{})
	if stats.Records != 0 || stats.Applied != 0 {
		t.Fatalf("fresh log replayed %+v", stats)
	}

	// Mixed statement shapes and value types, including one logged via a
	// transaction, one through the statement cache, and a zero-row UPDATE.
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("a"), Int(1))
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("b"), Int(2))
	if err := db.Update(func(tx *Tx) error {
		if _, err := tx.Exec("UPDATE kv SET v = ? WHERE k = ?", Int(10), Text("a")); err != nil {
			return err
		}
		_, err := tx.Exec("DELETE FROM kv WHERE k = ?", Text("b"))
		return err
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	mustExec(t, db, "UPDATE kv SET v = ? WHERE k = ?", Int(99), Text("missing"))

	if got := db.LastLSN(); got != 4 {
		t.Fatalf("LastLSN = %d, want 4", got)
	}
	want := dumpBytes(t, db)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Crash-restart: fresh engine, re-run the (deterministic) bootstrap
	// DDL, replay the log.
	db2 := New()
	mustExec(t, db2, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w2, stats2 := openTestWAL(t, path, db2, WALOptions{})
	defer w2.Close()
	if stats2.Applied != 4 || stats2.LastLSN != 4 {
		t.Fatalf("replay stats = %+v, want 4 applied through lsn 4", stats2)
	}
	if got := dumpBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatalf("replayed state differs from committed state")
	}
	if db2.LastLSN() != 4 {
		t.Fatalf("LastLSN after replay = %d, want 4", db2.LastLSN())
	}
}

func TestWALSnapshotSkipsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	mustExec(t, db, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w, _ := openTestWAL(t, path, db, WALOptions{})
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("a"), Int(1))
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("b"), Int(2))

	var snap bytes.Buffer
	if err := db.Dump(&snap); err != nil {
		t.Fatalf("Dump: %v", err)
	}

	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("c"), Int(3))
	want := dumpBytes(t, db)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restore the snapshot (embeds LSN 2), replay: only record 3 applies.
	db2 := New()
	if err := db2.LoadSnapshot(&snap); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if db2.LastLSN() != 2 {
		t.Fatalf("snapshot LSN = %d, want 2", db2.LastLSN())
	}
	w2, stats := openTestWAL(t, path, db2, WALOptions{})
	defer w2.Close()
	if stats.Records != 3 || stats.Applied != 1 {
		t.Fatalf("replay stats = %+v, want 3 records / 1 applied", stats)
	}
	if got := dumpBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatalf("restored+replayed state differs")
	}
}

func TestWALRotateAndDropCovered(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	mustExec(t, db, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w, _ := openTestWAL(t, path, db, WALOptions{})
	defer w.Close()
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("a"), Int(1))

	if err := w.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if !w.Sealed() {
		t.Fatal("Rotate did not seal a previous generation")
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("sealed file missing: %v", err)
	}

	// A checkpoint that does NOT cover the sealed records must not drop them.
	if err := w.DropCovered(0); err != nil {
		t.Fatalf("DropCovered(0): %v", err)
	}
	if !w.Sealed() {
		t.Fatal("DropCovered(0) dropped an uncovered generation")
	}

	// A second rotation while sealed is a no-op (records keep accumulating).
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("b"), Int(2))
	if err := w.Rotate(); err != nil {
		t.Fatalf("Rotate while sealed: %v", err)
	}

	// Covered: sealed generation goes away.
	if err := w.DropCovered(db.LastLSN()); err != nil {
		t.Fatalf("DropCovered: %v", err)
	}
	if w.Sealed() {
		t.Fatal("DropCovered left the generation sealed")
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Fatalf("sealed file still present: %v", err)
	}

	// Appends keep flowing into the current generation after the drop.
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("c"), Int(3))
	if db.LastLSN() != 3 {
		t.Fatalf("LastLSN = %d, want 3", db.LastLSN())
	}
}

func TestWALCrashMidRotationReplaysBothGenerations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	mustExec(t, db, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w, _ := openTestWAL(t, path, db, WALOptions{})
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("a"), Int(1))
	if err := w.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("b"), Int(2))
	want := dumpBytes(t, db)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Crash before the checkpoint snapshot persisted: both <path>.1 and
	// <path> are on disk and both must replay, in order.
	db2 := New()
	mustExec(t, db2, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w2, stats := openTestWAL(t, path, db2, WALOptions{})
	defer w2.Close()
	if stats.Applied != 2 {
		t.Fatalf("replay stats = %+v, want 2 applied", stats)
	}
	if got := dumpBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatalf("replayed state differs")
	}
	// New appends continue above the recovered high-water mark.
	mustExec(t, db2, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("c"), Int(3))
	if db2.LastLSN() != 3 {
		t.Fatalf("LastLSN = %d, want 3", db2.LastLSN())
	}
}

func TestWALAppendFailureAbortsCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	mustExec(t, db, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w, _ := openTestWAL(t, path, db, WALOptions{})
	defer w.Close()
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("a"), Int(1))

	boom := errors.New("injected append failure")
	w.SetFaultHook(func(op string) *WALFault {
		if op == "append" {
			return &WALFault{Err: boom}
		}
		return nil
	})
	if _, err := db.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", Text("b"), Int(2)); !errors.Is(err, boom) {
		t.Fatalf("Exec with failing append: err = %v, want %v", err, boom)
	}
	w.SetFaultHook(nil)

	// The failed commit published nothing: the row is absent and the LSN
	// did not advance.
	if n, _ := db.RowCount("kv"); n != 1 {
		t.Fatalf("rows after aborted commit = %d, want 1", n)
	}
	if db.LastLSN() != 1 {
		t.Fatalf("LastLSN after aborted commit = %d, want 1", db.LastLSN())
	}
	// And the engine still accepts (and logs) new commits.
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("c"), Int(3))
	if db.LastLSN() != 2 {
		t.Fatalf("LastLSN = %d, want 2", db.LastLSN())
	}
}

func TestWALShortWriteRewindsLiveLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	mustExec(t, db, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w, _ := openTestWAL(t, path, db, WALOptions{})
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("a"), Int(1))
	if err := w.waitDurable(1); err != nil {
		t.Fatalf("waitDurable: %v", err)
	}

	boom := errors.New("injected torn write")
	w.SetFaultHook(func(op string) *WALFault {
		if op == "append" {
			return &WALFault{Err: boom, ShortWrite: 5}
		}
		return nil
	})
	if _, err := db.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", Text("b"), Int(2)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	w.SetFaultHook(nil)

	// The torn prefix was rewound: the next commit lands on a clean
	// boundary and the whole log replays.
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("c"), Int(3))
	want := dumpBytes(t, db)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2 := New()
	mustExec(t, db2, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w2, stats := openTestWAL(t, path, db2, WALOptions{})
	defer w2.Close()
	if stats.TornBytes != 0 {
		t.Fatalf("TornBytes = %d after in-process rewind, want 0", stats.TornBytes)
	}
	if stats.Applied != 2 {
		t.Fatalf("Applied = %d, want 2", stats.Applied)
	}
	if got := dumpBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatalf("replayed state differs")
	}
}

func TestWALFsyncErrorPropagatesToCoveredCommits(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	mustExec(t, db, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w, _ := openTestWAL(t, path, db, WALOptions{})
	defer w.Close()

	boom := errors.New("injected fsync failure")
	w.SetFaultHook(func(op string) *WALFault {
		if op == "fsync" {
			return &WALFault{Err: boom}
		}
		return nil
	})
	if _, err := db.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", Text("a"), Int(1)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	w.SetFaultHook(nil)

	// The record is in the log and the root was published (durability was
	// uncertain, visibility is not); a later successful fsync covers it.
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("b"), Int(2))
	if got := w.DurableLSN(); got != 2 {
		t.Fatalf("DurableLSN = %d, want 2", got)
	}
}

func TestWALGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	mustExec(t, db, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w, _ := openTestWAL(t, path, db, WALOptions{})
	defer w.Close()

	// Make each fsync round slow enough that concurrent committers pile up
	// behind the leader and get covered in batches.
	w.SetFaultHook(func(op string) *WALFault {
		if op == "fsync" {
			return &WALFault{Delay: time.Millisecond}
		}
		return nil
	})

	const (
		goroutines        = 8
		commitsPerRoutine = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < commitsPerRoutine; i++ {
				tx := db.Begin()
				if _, err := tx.Exec("INSERT INTO kv (k, v) VALUES (?, ?)",
					Text(fmt.Sprintf("g%d-%d", g, i)), Int(int64(i))); err != nil {
					tx.Rollback() //nolint:errcheck
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
				// The acknowledgment contract: by the time Commit returns,
				// an fsync covers this commit's LSN.
				if d := w.DurableLSN(); d < tx.LSN() {
					errs <- fmt.Errorf("commit lsn %d acked with durable lsn %d", tx.LSN(), d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := uint64(goroutines * commitsPerRoutine)
	st := w.Stats()
	if st.Appends != total {
		t.Fatalf("Appends = %d, want %d", st.Appends, total)
	}
	if st.Fsyncs >= total/2 {
		t.Fatalf("Fsyncs = %d for %d commits: group commit is not batching", st.Fsyncs, total)
	}
	if n, _ := db.RowCount("kv"); n != int(total) {
		t.Fatalf("rows = %d, want %d", n, total)
	}
}

func TestWALNoSyncStillReplays(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	mustExec(t, db, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w, _ := openTestWAL(t, path, db, WALOptions{NoSync: true})
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("a"), Int(1))
	want := dumpBytes(t, db)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2 := New()
	mustExec(t, db2, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w2, stats := openTestWAL(t, path, db2, WALOptions{NoSync: true})
	defer w2.Close()
	if stats.Applied != 1 {
		t.Fatalf("Applied = %d, want 1", stats.Applied)
	}
	if got := dumpBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatalf("replayed state differs")
	}
}

func TestWALValueRoundTrip(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Second)
	vals := []Value{
		Null(), Int(-42), Int(1 << 60), Float(3.25), Float(-0.0),
		Text(""), Text("héllo\x00world"), Bool(true), Bool(false), Time(now),
	}
	rec := encodeWALRecord(7, []redoStmt{{sql: "INSERT INTO t VALUES (?)", args: vals}})
	lsn, stmts, err := decodeWALRecord(rec[frameHeaderSize:])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if lsn != 7 || len(stmts) != 1 || stmts[0].sql != "INSERT INTO t VALUES (?)" {
		t.Fatalf("decoded %d stmts, lsn %d", len(stmts), lsn)
	}
	for i, v := range vals {
		if Compare(stmts[0].args[i], v) != 0 || stmts[0].args[i].T != v.T {
			t.Fatalf("arg %d: got %v (%v), want %v (%v)",
				i, stmts[0].args[i], stmts[0].args[i].T, v, v.T)
		}
	}
}

// TestWALStatementBackReferences: a record writes each distinct SQL text
// once and every repeat as a back-reference, decodes to exactly the
// statements it was given, and rejects references that do not point at an
// earlier statement.
func TestWALStatementBackReferences(t *testing.T) {
	const insAttr = "INSERT INTO user_attribute (object_type, object_id, attr_id, sval) VALUES (?, ?, ?, ?)"
	const insFile = "INSERT INTO logical_file (name, version) VALUES (?, ?)"
	var stmts []redoStmt
	for f := 0; f < 3; f++ {
		stmts = append(stmts, redoStmt{sql: insFile, args: []Value{Text(fmt.Sprintf("f%d", f)), Int(1)}})
		for a := 0; a < 10; a++ {
			stmts = append(stmts, redoStmt{sql: insAttr, args: []Value{Text("file"), Int(int64(f)), Int(int64(a)), Text("v")}})
		}
	}
	// More distinct texts than the back-reference window remembers: the
	// overflow is written in full, still round-trips, and can still repeat.
	for i := 0; i < walBackrefWindow+4; i++ {
		stmts = append(stmts, redoStmt{sql: fmt.Sprintf("DELETE FROM t%d WHERE id = ?", i), args: []Value{Int(int64(i))}})
	}
	stmts = append(stmts, stmts[len(stmts)-1], stmts[0])

	rec := encodeWALRecord(11, stmts)
	if n := bytes.Count(rec, []byte(insAttr)); n != 1 {
		t.Fatalf("the attribute insert's text appears %d times in the record, want 1", n)
	}
	if n := bytes.Count(rec, []byte(insFile)); n != 1 {
		t.Fatalf("the file insert's text appears %d times in the record, want 1", n)
	}
	lsn, got, err := decodeWALRecord(rec[frameHeaderSize:])
	if err != nil || lsn != 11 {
		t.Fatalf("decode: lsn %d, err %v", lsn, err)
	}
	if len(got) != len(stmts) {
		t.Fatalf("decoded %d statements, want %d", len(got), len(stmts))
	}
	for i := range stmts {
		if got[i].sql != stmts[i].sql || fmt.Sprint(got[i].args) != fmt.Sprint(stmts[i].args) {
			t.Fatalf("statement %d decoded to %q %v, want %q %v", i, got[i].sql, got[i].args, stmts[i].sql, stmts[i].args)
		}
	}

	// A reference to itself, to a later statement, or in the first statement
	// is corruption, not a statement.
	for _, ref := range []uint64{0, 1, 5} {
		payload := make([]byte, 8)
		payload = append(payload, 1) // one statement
		payload = append(payload, 0) // sqlLen 0: back-reference
		payload = append(payload, byte(ref))
		payload = append(payload, 0) // no args
		if _, _, err := decodeWALRecord(payload); err == nil {
			t.Fatalf("back-reference %d from statement 0 decoded without error", ref)
		}
	}
}
