package sqldb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
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

// Legacy (version 1) snapshot wire structs, as written before the Value
// compaction. gob matches struct fields by name, so these local mirrors
// produce byte streams indistinguishable from what the old code emitted.
type legacyV1Value struct {
	T    Type
	I    int64
	F    float64
	S    string
	B    bool
	Unix int64
}

type legacyV1Index struct {
	Name   string
	Cols   []int
	Unique bool
}

type legacyV1Table struct {
	Name    string
	Cols    []ColumnDef
	Indexes []legacyV1Index
	NextRow int64
	AutoInc int64
	RowIDs  []int64
	Rows    [][]legacyV1Value
}

type legacyV1Snapshot struct {
	Version int
	LSN     uint64
	Tables  []legacyV1Table
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
	rec := make([]byte, walRecordHeaderSize, walRecordHeaderSize+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	if _, err := f.Write(rec); err != nil {
		t.Fatalf("write legacy record: %v", err)
	}
}

// TestBootFromLegacySnapshotAndWAL boots the engine from a fixture built in
// the pre-compaction formats — a version-1 gob snapshot (wide per-cell value
// fields) plus a log tail whose DATETIME arguments use the seconds-only wire
// tag — and verifies rows from both sources decode to today's Values.
func TestBootFromLegacySnapshotAndWAL(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "state.wal")
	born := time.Date(2003, 11, 15, 9, 30, 0, 0, time.UTC)

	snap := legacyV1Snapshot{
		Version: 1,
		LSN:     2,
		Tables: []legacyV1Table{{
			Name: "files",
			Cols: []ColumnDef{
				{Name: "id", Type: TypeInt, AutoIncrement: true, NotNull: true},
				{Name: "name", Type: TypeText, NotNull: true},
				{Name: "size", Type: TypeInt},
				{Name: "score", Type: TypeFloat},
				{Name: "valid", Type: TypeBool},
				{Name: "created", Type: TypeTime},
			},
			Indexes: []legacyV1Index{{Name: "files_name", Cols: []int{1}, Unique: true}},
			NextRow: 3,
			AutoInc: 2,
			RowIDs:  []int64{1, 2},
			Rows: [][]legacyV1Value{
				{
					{T: TypeInt, I: 1},
					{T: TypeText, S: "alpha"},
					{T: TypeInt, I: 1024},
					{T: TypeFloat, F: 0.5},
					{T: TypeBool, B: true},
					{T: TypeTime, Unix: born.Unix()},
				},
				{
					{T: TypeInt, I: 2},
					{T: TypeText, S: "beta"},
					{T: TypeNull},
					{T: TypeNull},
					{T: TypeNull},
					{T: TypeNull},
				},
			},
		}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatalf("encode legacy snapshot: %v", err)
	}

	f, err := os.Create(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// LSN 2 is covered by the snapshot and must be skipped; LSN 3 is the tail.
	appendLegacyWALRecord(t, f, 2,
		"INSERT INTO files (name, size, created) VALUES (?, ?, ?)",
		"beta-shadow", int64(7), born)
	appendLegacyWALRecord(t, f, 3,
		"INSERT INTO files (name, size, created) VALUES (?, ?, ?)",
		"gamma", int64(2048), born.Add(time.Hour))
	// LSN 4 is a multi-statement commit as written before statement
	// back-references existed: the same INSERT text three times in full.
	const insert = "INSERT INTO files (name, size, created) VALUES (?, ?, ?)"
	appendLegacyWALRecordStmts(t, f, 4,
		legacyStmt{insert, []any{"batch-1", int64(1), born}},
		legacyStmt{insert, []any{"batch-2", int64(2), born}},
		legacyStmt{insert, []any{"batch-3", int64(3), born}})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db := New()
	if err := db.LoadSnapshot(&buf); err != nil {
		t.Fatalf("LoadSnapshot(v1): %v", err)
	}
	w, stats := openTestWAL(t, walPath, db, WALOptions{})
	defer w.Close()
	if stats.Records != 3 || stats.Applied != 2 {
		t.Fatalf("replay stats = %+v, want 3 records / 2 applied", stats)
	}
	if n := mustQuery(t, db, "SELECT COUNT(*) FROM files WHERE size < 4 AND size > 0").Data[0][0].Int(); n != 3 {
		t.Fatalf("old-format multi-statement record replayed %d of its 3 inserts", n)
	}

	rows := mustQuery(t, db, "SELECT id, name, size, score, valid, created FROM files WHERE name = ?", Text("alpha"))
	if len(rows.Data) != 1 {
		t.Fatalf("alpha lookup = %v", rows.Data)
	}
	got := rows.Data[0]
	if got[0] != Int(1) || got[1] != Text("alpha") || got[2] != Int(1024) ||
		got[3] != Float(0.5) || got[4] != Bool(true) || got[5] != Time(born) {
		t.Fatalf("legacy snapshot row decoded to %v", got)
	}
	rows = mustQuery(t, db, "SELECT name, size, created FROM files WHERE name = ?", Text("gamma"))
	if len(rows.Data) != 1 {
		t.Fatalf("gamma lookup = %v", rows.Data)
	}
	if got := rows.Data[0]; got[1] != Int(2048) || got[2] != Time(born.Add(time.Hour)) {
		t.Fatalf("legacy WAL row decoded to %v", got)
	}
	// NULL-heavy legacy row survives.
	rows = mustQuery(t, db, "SELECT size FROM files WHERE name = ?", Text("beta"))
	if len(rows.Data) != 1 || !rows.Data[0][0].IsNull() {
		t.Fatalf("beta row = %v", rows.Data)
	}
	// The autoincrement counter carries over: 6 rows exist, next id is 7.
	res, err := db.Exec("INSERT INTO files (name) VALUES ('delta')")
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 7 {
		t.Fatalf("autoinc after legacy boot = %d, want 7", res.LastInsertID)
	}
	// Unique index rebuilt from the legacy rows still enforces.
	if _, err := db.Exec("INSERT INTO files (name) VALUES ('alpha')"); err == nil {
		t.Fatal("unique constraint lost across legacy boot")
	}
}

// TestCurrentSnapshotIsVersion2 pins the write-side format so a future
// refactor can't silently regress to the legacy layout.
func TestCurrentSnapshotIsVersion2(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	var snap gobSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 {
		t.Fatalf("snapshot version = %d, want 2", snap.Version)
	}
}
