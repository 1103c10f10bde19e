package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	// The failed record is the first to use the DELETE's text, so it
	// defined a dictionary entry that never reached the file.
	if _, err := db.Exec("DELETE FROM kv WHERE k = ?", Text("a")); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	w.SetFaultHook(nil)

	// The torn prefix was rewound and the definition forgotten: the next
	// commits land on a clean boundary, the DELETE spelled in full, and the
	// whole log replays.
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("c"), Int(3))
	mustExec(t, db, "DELETE FROM kv WHERE k = ?", Text("a"))
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
	if stats.Applied != 3 {
		t.Fatalf("Applied = %d, want 3", stats.Applied)
	}
	if got := dumpBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatalf("replayed state differs")
	}
}

// TestWALBackwardsLSNTakesItsDefinitions: a record cut away because its LSN
// went backwards takes the dictionary entries it defined with it, so the
// recovered writer spells the text again instead of referring to an entry
// no longer in the file.
func TestWALBackwardsLSNTakesItsDefinitions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.wal")
	var enc walEncoder
	log := enc.encode(nil, 1, []redoStmt{{sql: "INSERT INTO kv (k, v) VALUES (?, ?)", args: []Value{Text("a"), Int(1)}}})
	log = enc.encode(log, 1, []redoStmt{{sql: "DELETE FROM kv WHERE k = ?", args: []Value{Text("a")}}})
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	db := New()
	mustExec(t, db, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w, stats := openTestWAL(t, path, db, WALOptions{})
	if stats.Applied != 1 || stats.TornBytes == 0 {
		t.Fatalf("replay stats = %+v, want 1 applied and the backwards record cut", stats)
	}
	mustExec(t, db, "DELETE FROM kv WHERE k = ?", Text("a"))
	want := dumpBytes(t, db)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	mustExec(t, db2, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	w2, stats2 := openTestWAL(t, path, db2, WALOptions{})
	defer w2.Close()
	if stats2.Applied != 2 || !bytes.Equal(dumpBytes(t, db2), want) {
		t.Fatalf("second recovery: %+v, or its state differs", stats2)
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
	rec := new(walEncoder).encode(nil, 7, []redoStmt{{sql: "INSERT INTO t VALUES (?)", args: vals}})
	lsn, stmts, err := decodeWALRecord(&walDict{}, rec[frameHeaderSize:])
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

// TestWALStatementBackReferences: a log file spells each distinct SQL text
// once, in the record that first uses it, and every later use as a
// reference to the file's dictionary; a text argument repeated inside a
// record is a tag-7 back-reference. The records decode, in file order, to
// exactly the statements they were given, and references that point at
// nothing are refused.
func TestWALStatementBackReferences(t *testing.T) {
	const insAttr = "INSERT INTO user_attribute (object_type, object_id, attr_id, sval) VALUES (?, ?, ?, ?)"
	const insFile = "INSERT INTO logical_file (name, version) VALUES (?, ?)"
	create := func(f int) []redoStmt {
		stmts := []redoStmt{{sql: insFile, args: []Value{Text(fmt.Sprintf("f%d", f)), Int(1)}}}
		for a := 0; a < 10; a++ {
			stmts = append(stmts, redoStmt{sql: insAttr, args: []Value{Text("file"), Int(int64(f)), Int(int64(a)), Text("a value")}})
		}
		return stmts
	}
	records := [][]redoStmt{
		append(create(0), create(1)...),
		create(2),
		{{sql: "DELETE FROM logical_file WHERE id = ?", args: []Value{Int(1)}}},
	}
	var enc walEncoder
	var log []byte
	for i, stmts := range records {
		log = enc.encode(log, uint64(i+1), stmts)
	}
	for _, text := range []string{insAttr, insFile} {
		if n := bytes.Count(log, []byte(text)); n != 1 {
			t.Fatalf("%q appears %d times in the log, want 1", text, n)
		}
	}
	// One literal "a value" per record that uses it; every repeat is a tag 7.
	if n := bytes.Count(log, []byte("\x03\x07a value")); n != 2 {
		t.Fatalf("the repeated text argument is spelled %d times, want once per record (2)", n)
	}

	var dict walDict
	fr := frameReader{r: bytes.NewReader(log)}
	for i, want := range records {
		payload, err := fr.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		lsn, got, err := decodeWALRecord(&dict, payload)
		if err != nil || lsn != uint64(i+1) {
			t.Fatalf("record %d: lsn %d, err %v", i, lsn, err)
		}
		if len(got) != len(want) {
			t.Fatalf("record %d decoded %d statements, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].sql != want[j].sql || fmt.Sprint(got[j].args) != fmt.Sprint(want[j].args) {
				t.Fatalf("record %d statement %d decoded to %q %v, want %q %v", i, j, got[j].sql, got[j].args, want[j].sql, want[j].args)
			}
		}
	}
	if len(dict.texts) != 3 || !slices.Equal(dict.texts, enc.dict.texts) {
		t.Fatalf("the decoder's dictionary (%d texts) differs from the encoder's (%d)", len(dict.texts), len(enc.dict.texts))
	}

	// A record written before the dictionary names an earlier statement of
	// its own (ref < i); one written since names a dictionary id (i + id).
	// Both forms decode in one record, and neither is read as the other:
	// here id 0 is b and id 1 is a, while statements 0 and 1 are a and b.
	const delA, delB = "DELETE FROM a WHERE id = ?", "DELETE FROM b WHERE id = ?"
	mixed := walDict{}
	mixed.define(delB)
	payload := append(make([]byte, 7), 9, 5) // LSN 9, five statements
	stmt := func(sqlRef []byte, id byte) {
		payload = append(payload, sqlRef...)
		payload = append(payload, 1, walTagInt, id) // one INTEGER argument, zigzag-coded
	}
	stmt(append([]byte{byte(len(delA))}, delA...), 2) // literal: defines id 1
	stmt(append([]byte{byte(len(delB))}, delB...), 4) // literal: already id 0
	stmt([]byte{0, 0}, 6)                             // statement 0's text
	stmt([]byte{0, 1}, 8)                             // statement 1's text
	stmt([]byte{0, 4 + 1}, 10)                        // dictionary id 1
	_, got, err := decodeWALRecord(&mixed, payload)
	if err != nil {
		t.Fatalf("a record mixing both reference forms: %v", err)
	}
	wantSQL := []string{delA, delB, delA, delB, delA}
	for j, s := range got {
		if s.sql != wantSQL[j] || len(s.args) != 1 || s.args[0] != Int(int64(j+1)) {
			t.Fatalf("mixed record statement %d decoded to %q %v, want %q [%d]", j, s.sql, s.args, wantSQL[j], j+1)
		}
	}
	if len(got) != len(wantSQL) || !slices.Equal(mixed.texts, []string{delB, delA}) {
		t.Fatalf("mixed record: %d statements, dictionary %q", len(got), mixed.texts)
	}

	// Statement 0 of a record may name dictionary ids only: with two
	// entries, reference 1 is the second and 2 is out of range; with none,
	// every reference is. A refused record leaves the dictionary alone.
	ref := func(dict *walDict, ref uint64) error {
		payload := append(make([]byte, 8), 1, 0, byte(ref), 0) // one statement, sqlLen 0, ref, no args
		_, _, err := decodeWALRecord(dict, payload)
		return err
	}
	two := walDict{}
	two.define("DELETE FROM a WHERE id = ?")
	two.define("DELETE FROM b WHERE id = ?")
	if err := ref(&two, 1); err != nil {
		t.Fatalf("a reference to dictionary id 1 was refused: %v", err)
	}
	for _, tc := range []struct {
		dict *walDict
		ref  uint64
	}{{&two, 2}, {&walDict{}, 0}, {&walDict{}, 1}, {&walDict{}, 5}} {
		before := slices.Clone(tc.dict.texts)
		if err := ref(tc.dict, tc.ref); err == nil {
			t.Fatalf("reference %d with %d dictionary entries decoded without error", tc.ref, len(tc.dict.texts))
		}
		if !slices.Equal(before, tc.dict.texts) {
			t.Fatal("a refused record changed the dictionary")
		}
	}
}
