package sqldb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMonotonicClockStrippedAtIngest is the regression test for the add-path
// bug this PR sweeps out: a DATETIME built from time.Now() used to carry the
// monotonic clock reading into the stored row, so the same logical timestamp
// read back after a crash + WAL replay compared unequal to the one the
// process committed (replay rebuilds the value from the wire, which never had
// a monotonic part). The compact Value stores a unix offset only, so the
// stored cell must be ==-equal before and after recovery.
func TestMonotonicClockStrippedAtIngest(t *testing.T) {
	now := time.Now() // carries a monotonic reading
	if now.Round(0).Format(time.RFC3339Nano) != now.Format(time.RFC3339Nano) {
		t.Fatal("sanity: Round(0) changed the wall reading")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	mustExec(t, db, "CREATE TABLE ev (id INTEGER NOT NULL, at DATETIME NOT NULL)")
	w, _ := openTestWAL(t, path, db, WALOptions{})
	mustExec(t, db, "INSERT INTO ev (id, at) VALUES (?, ?)", Int(1), Time(now))

	rows := mustQuery(t, db, "SELECT at FROM ev WHERE id = 1")
	stored := rows.Data[0][0]
	// The stored value must already be monotonic-free and comparable.
	if want := Time(now); stored != want {
		t.Fatalf("stored value %#v != re-ingested value %#v", stored, want)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Crash-restart: fresh engine, same DDL, replay the log.
	db2 := New()
	mustExec(t, db2, "CREATE TABLE ev (id INTEGER NOT NULL, at DATETIME NOT NULL)")
	w2, stats := openTestWAL(t, path, db2, WALOptions{})
	defer w2.Close()
	if stats.Applied != 1 {
		t.Fatalf("replay stats = %+v, want 1 applied", stats)
	}
	rows = mustQuery(t, db2, "SELECT at FROM ev WHERE id = 1")
	replayed := rows.Data[0][0]
	if replayed != stored {
		t.Fatalf("replayed value %#v != committed value %#v", replayed, stored)
	}
	if !replayed.Time().Equal(now.Truncate(time.Second)) {
		t.Fatalf("replayed time %v != %v", replayed.Time(), now.Truncate(time.Second))
	}
}

// legacyStmt is one statement of a hand-framed legacy WAL record.
type legacyStmt struct {
	sql  string
	args []any
}

// appendLegacyWALRecord hand-frames one single-statement WAL record in the
// PR 6 format: tag 5 (varint unix seconds) for DATETIME arguments, tags 0-4
// as today.
func appendLegacyWALRecord(t *testing.T, f *os.File, lsn uint64, sql string, args ...any) {
	t.Helper()
	appendLegacyWALRecordStmts(t, f, lsn, legacyStmt{sql, args})
}

// appendLegacyWALRecordStmts hand-frames a record of several statements the
// way every version before statement back-references wrote it: each
// statement's SQL text in full, however often it repeats.
func appendLegacyWALRecordStmts(t *testing.T, f *os.File, lsn uint64, stmts ...legacyStmt) {
	t.Helper()
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, lsn)
	payload = binary.AppendUvarint(payload, uint64(len(stmts)))
	for _, s := range stmts {
		payload = binary.AppendUvarint(payload, uint64(len(s.sql)))
		payload = append(payload, s.sql...)
		payload = binary.AppendUvarint(payload, uint64(len(s.args)))
		for _, a := range s.args {
			switch v := a.(type) {
			case int64:
				payload = append(payload, walTagInt)
				payload = binary.AppendVarint(payload, v)
			case string:
				payload = append(payload, walTagText)
				payload = binary.AppendUvarint(payload, uint64(len(v)))
				payload = append(payload, v...)
			case time.Time:
				payload = append(payload, walTagTimeSec)
				payload = binary.AppendVarint(payload, v.Unix())
			default:
				t.Fatalf("unsupported legacy arg %T", a)
			}
		}
	}
	rec := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	if _, err := f.Write(rec); err != nil {
		t.Fatalf("write legacy record: %v", err)
	}
}

// readV2Fixture returns testdata/v2.snap: a generation-2 (gob) snapshot
// written by the last build whose Dump wrote gob (PR 15's tree), LSN 52. Its
// files table (newTestDB's schema plus an index on size) holds lfn-00..lfn-39
// without lfn-17, size 100·i, score i/4, valid i even, created 2003-11-15
// 09:30 UTC + i hours — plus 123456 µs where i%5 == 0 — all four NULL where
// i%7 == 3, and lfn-20's size updated to -5; its notes table (file, body,
// indexed together) holds one row per fourth file, body NULL per eighth.
func readV2Fixture(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "v2.snap"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestBootFromLegacySnapshotAndWAL boots the engine from files in both
// frozen on-disk contracts — the committed generation-2 gob snapshot, and a
// log tail hand-framed the way PR 6 wrote it (seconds-only DATETIME tag,
// statement texts in full) — verifies rows from both sources decode to
// today's Values, and that the next Dump leaves the gob generation behind.
func TestBootFromLegacySnapshotAndWAL(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "state.wal")
	born := time.Date(2003, 11, 15, 9, 30, 0, 0, time.UTC)

	f, err := os.Create(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// LSN 52 is covered by the snapshot and must be skipped; 53 is the tail.
	const insert = "INSERT INTO files (name, size, created) VALUES (?, ?, ?)"
	appendLegacyWALRecord(t, f, 52, insert, "shadow", int64(7), born)
	appendLegacyWALRecord(t, f, 53, insert, "gamma", int64(2048), born.Add(time.Hour))
	// LSN 54 is a multi-statement commit as written before statement
	// back-references existed: the same INSERT text three times in full.
	appendLegacyWALRecordStmts(t, f, 54,
		legacyStmt{insert, []any{"batch-1", int64(1), born}},
		legacyStmt{insert, []any{"batch-2", int64(2), born}},
		legacyStmt{insert, []any{"batch-3", int64(3), born}})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db := New()
	if err := db.LoadSnapshot(bytes.NewReader(readV2Fixture(t))); err != nil {
		t.Fatalf("LoadSnapshot(v2 gob): %v", err)
	}
	if db.LastLSN() != 52 {
		t.Fatalf("LSN after the legacy snapshot = %d, want 52", db.LastLSN())
	}
	w, stats := openTestWAL(t, walPath, db, WALOptions{})
	defer w.Close()
	if stats.Records != 3 || stats.Applied != 2 {
		t.Fatalf("replay stats = %+v, want 3 records / 2 applied", stats)
	}

	// The same answers from the gob-loaded database and from one reloaded
	// from its own (framed) dump.
	dump := dumpBytes(t, db)
	if !bytes.Equal(dump[9:16], []byte(snapshotMagic)) {
		t.Fatalf("the next Dump is not the framed format: starts %q", dump[:24])
	}
	reloaded := New()
	if err := reloaded.LoadSnapshot(bytes.NewReader(dump)); err != nil {
		t.Fatal(err)
	}
	for _, db := range []*DB{db, reloaded} {
		count := func(q string, args ...Value) int64 { return mustQuery(t, db, q, args...).Data[0][0].Int() }
		if n := count("SELECT COUNT(*) FROM files"); n != 39+4 {
			t.Fatalf("files = %d rows, want the fixture's 39 and the log's 4", n)
		}
		if n := count("SELECT COUNT(*) FROM files WHERE size < 4 AND size > 0"); n != 3 {
			t.Fatalf("old-format multi-statement record replayed %d of its 3 inserts", n)
		}
		if n := count("SELECT COUNT(*) FROM files WHERE score IS NULL AND valid IS NULL AND id < 41"); n != 5 {
			t.Fatalf("NULL-heavy fixture rows = %d, want 5", n)
		}
		if n := count("SELECT COUNT(*) FROM files WHERE name = 'lfn-17' OR name = 'shadow'"); n != 0 {
			t.Fatalf("a deleted or covered row came back (%d)", n)
		}
		if a, b := count("SELECT COUNT(*) FROM notes"), count("SELECT COUNT(*) FROM notes WHERE body IS NULL"); a != 10 || b != 5 {
			t.Fatalf("notes = %d rows, %d without body, want 10 and 5", a, b)
		}
		// Every value type, through the rebuilt index on size.
		rows := mustQuery(t, db, "SELECT id, name, score, valid, created FROM files WHERE size = ?", Int(500))
		want := []Value{Int(6), Text("lfn-05"), Float(1.25), Bool(false), Time(born.Add(5*time.Hour + 123456*time.Microsecond))}
		if len(rows.Data) != 1 || !reflect.DeepEqual([]Value(rows.Data[0]), want) {
			t.Fatalf("fixture row by size = %v, want %v", rows.Data, want)
		}
		if got := mustQuery(t, db, "SELECT size, created FROM files WHERE name = 'lfn-20'").Data[0]; got[0] != Int(-5) || got[1] != Time(born.Add(20*time.Hour+123456*time.Microsecond)) {
			t.Fatalf("updated fixture row = %v", got)
		}
		if got := mustQuery(t, db, "SELECT size, created FROM files WHERE name = 'gamma'").Data[0]; got[0] != Int(2048) || got[1] != Time(born.Add(time.Hour)) {
			t.Fatalf("legacy WAL row decoded to %v", got)
		}
	}
	// The autoincrement counter carries over: 40 ids in the fixture (one
	// covered insert never replayed), 4 from the log, so the next is 45.
	res, err := db.Exec("INSERT INTO files (name) VALUES ('delta')")
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 45 {
		t.Fatalf("autoinc after legacy boot = %d, want 45", res.LastInsertID)
	}
	// Unique index rebuilt from the legacy rows still enforces.
	if _, err := db.Exec("INSERT INTO files (name) VALUES ('lfn-05')"); err == nil {
		t.Fatal("unique constraint lost across legacy boot")
	}
}

// TestGeneration1SnapshotRefused: the wide-cell gob generation is no longer
// read, and the error says which generation the file is.
func TestGeneration1SnapshotRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&gobSnapshot{Version: 1, LSN: 2}); err != nil {
		t.Fatal(err)
	}
	db := New()
	err := db.LoadSnapshot(&buf)
	if err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("LoadSnapshot(v1) = %v, want a refusal naming format version 1", err)
	}
	if len(db.Tables()) != 0 {
		t.Fatal("a refused stream left tables behind")
	}
}

// legacyStream gob-encodes a generation-2 snapshot of one two-row table whose
// second column is declared colType and whose last cell claims cellType.
func legacyStream(tb testing.TB, colType, cellType Type) []byte {
	tb.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&gobSnapshot{Version: 2, LSN: 7, Tables: []gobTable{{
		Name:    "t",
		Cols:    []ColumnDef{{Name: "id", Type: TypeInt}, {Name: "v", Type: colType}},
		NextRow: 2,
		RowIDs:  []int64{1, 2},
		Rows:    [][]gobValue{{{T: TypeInt, N: 1}, {T: TypeText, S: "a"}}, {{T: TypeInt, N: 2}, {T: cellType, N: 3}}},
	}}})
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadSnapshotRefusesUnknownTypes: the gob reader copies type
// numbers off the disk, and the value codec has no tag for one it does not
// know — so a scribbled type must stop the load, not reach the next Dump
// (which FuzzLoadSnapshot once caught writing a stream nothing could read).
func TestLoadSnapshotRefusesUnknownTypes(t *testing.T) {
	loadRefused(t, legacyStream(t, TypeText, Type(14)), `table "t", rowid 2: column 1 holds a value of unknown type Type(14)`)
	loadRefused(t, legacyStream(t, Type(-3), TypeNull), `column "v" is of unknown type Type(-3)`)
	db := New()
	if err := db.LoadSnapshot(bytes.NewReader(legacyStream(t, TypeText, TypeNull))); err != nil {
		t.Fatalf("the same stream with known types: %v", err)
	}
	if again := New(); again.LoadSnapshot(bytes.NewReader(dumpBytes(t, db))) != nil {
		t.Fatal("its framed re-dump does not load")
	}
}
