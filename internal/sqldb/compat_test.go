package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
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
	appendLegacyWALRecordStmts(t, f, lsn, false, legacyStmt{sql, args})
}

// appendLegacyWALRecordStmts hand-frames a record of several statements the
// way every version before statement back-references wrote it: each
// statement's SQL text in full, however often it repeats. With backrefs it
// writes them the way the versions between back-references and the
// per-file dictionary did: a text already used in the record is a zero
// sqlLen followed by the index of the first statement that used it.
func appendLegacyWALRecordStmts(t *testing.T, f *os.File, lsn uint64, backrefs bool, stmts ...legacyStmt) {
	t.Helper()
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, lsn)
	payload = binary.AppendUvarint(payload, uint64(len(stmts)))
	for i, s := range stmts {
		ref := slices.IndexFunc(stmts[:i], func(p legacyStmt) bool { return p.sql == s.sql })
		if backrefs && ref >= 0 {
			payload = append(payload, 0)
			payload = binary.AppendUvarint(payload, uint64(ref))
		} else {
			payload = binary.AppendUvarint(payload, uint64(len(s.sql)))
			payload = append(payload, s.sql...)
		}
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

// TestBootFromLegacyWALTail boots the engine from a framed snapshot and a
// log tail hand-framed the way older WAL formats wrote it (seconds-only
// DATETIME tag; statement texts in full, however often they repeat, or
// repeats as in-record back-references), and verifies the records the
// snapshot covers are skipped and the rest decode to today's Values.
func TestBootFromLegacyWALTail(t *testing.T) {
	dir := t.TempDir()
	born := time.Date(2003, 11, 15, 9, 30, 0, 0, time.UTC)

	// The snapshot: forty files written with a log attached, so that it
	// embeds the LSN of their last commit, then one deleted and one updated.
	src := newTestDB(t)
	srcWAL, _ := openTestWAL(t, filepath.Join(dir, "src.wal"), src, WALOptions{})
	for i := 0; i < 40; i++ {
		mustExec(t, src, "INSERT INTO files (name, size, created) VALUES (?, ?, ?)",
			Text(fmt.Sprintf("lfn-%02d", i)), Int(int64(100*i)), Time(born.Add(time.Duration(i)*time.Hour)))
	}
	mustExec(t, src, "DELETE FROM files WHERE name = ?", Text("lfn-17"))
	mustExec(t, src, "UPDATE files SET size = ? WHERE name = ?", Int(-5), Text("lfn-20"))
	snap, covered := dumpBytes(t, src), src.LastLSN()
	if err := srcWAL.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "state.wal")
	f, err := os.Create(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// The first record is covered by the snapshot and must be skipped; the
	// next is the tail.
	const insert = "INSERT INTO files (name, size, created) VALUES (?, ?, ?)"
	appendLegacyWALRecord(t, f, covered, insert, "shadow", int64(7), born)
	appendLegacyWALRecord(t, f, covered+1, insert, "gamma", int64(2048), born.Add(time.Hour))
	// A multi-statement commit as written before statement back-references
	// existed: the same INSERT text three times in full.
	appendLegacyWALRecordStmts(t, f, covered+2, false,
		legacyStmt{insert, []any{"batch-1", int64(1), born}},
		legacyStmt{insert, []any{"batch-2", int64(2), born}},
		legacyStmt{insert, []any{"batch-3", int64(3), born}})
	// A multi-statement commit as written with in-record back-references
	// (ref < i): statements 2 and 4 name statement 1's INSERT, statement 3
	// names statement 0's UPDATE. By then the file's dictionary holds the
	// INSERT as id 0 and this record's UPDATE as id 1, so a reference read
	// as a dictionary id would swap the two texts.
	const update = "UPDATE files SET size = ? WHERE name = ?"
	appendLegacyWALRecordStmts(t, f, covered+3, true,
		legacyStmt{update, []any{int64(5), "batch-3"}},
		legacyStmt{insert, []any{"ref-1", int64(11), born}},
		legacyStmt{insert, []any{"ref-2", int64(12), born}},
		legacyStmt{update, []any{int64(13), "ref-1"}},
		legacyStmt{insert, []any{"ref-3", int64(14), born}})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db := New()
	if err := db.LoadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if db.LastLSN() != covered {
		t.Fatalf("LSN after the snapshot = %d, want %d", db.LastLSN(), covered)
	}
	w, stats := openTestWAL(t, walPath, db, WALOptions{})
	defer w.Close()
	if stats.Records != 4 || stats.Applied != 3 {
		t.Fatalf("replay stats = %+v, want 4 records / 3 applied", stats)
	}

	count := func(q string, args ...Value) int64 { return mustQuery(t, db, q, args...).Data[0][0].Int() }
	if n := count("SELECT COUNT(*) FROM files"); n != 39+7 {
		t.Fatalf("files = %d rows, want the snapshot's 39 and the log's 7", n)
	}
	for name, size := range map[string]int64{"batch-1": 1, "batch-2": 2, "batch-3": 5, "ref-1": 13, "ref-2": 12, "ref-3": 14} {
		rows := mustQuery(t, db, "SELECT size FROM files WHERE name = ?", Text(name))
		if len(rows.Data) != 1 || rows.Data[0][0] != Int(size) {
			t.Fatalf("old-format multi-statement records left %s as %v, want size %d", name, rows.Data, size)
		}
	}
	if n := count("SELECT COUNT(*) FROM files WHERE name IN (?, ?)", Text("lfn-17"), Text("shadow")); n != 0 {
		t.Fatalf("a deleted or covered row came back (%d)", n)
	}
	rows := mustQuery(t, db, "SELECT size, created FROM files WHERE name = ?", Text("lfn-20"))
	if got := rows.Data[0]; got[0] != Int(-5) || got[1] != Time(born.Add(20*time.Hour)) {
		t.Fatalf("updated snapshot row = %v", got)
	}
	rows = mustQuery(t, db, "SELECT size, created FROM files WHERE name = ?", Text("gamma"))
	if got := rows.Data[0]; got[0] != Int(2048) || got[1] != Time(born.Add(time.Hour)) {
		t.Fatalf("legacy WAL row decoded to %v", got)
	}
	// The autoincrement counter carries over: 40 ids in the snapshot (one
	// covered insert never replayed), 7 from the log, so the next is 48.
	res, err := db.Exec("INSERT INTO files (name) VALUES (?)", Text("delta"))
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 48 {
		t.Fatalf("autoinc after boot = %d, want 48", res.LastInsertID)
	}
	// The unique index rebuilt from the snapshot's rows still enforces.
	if _, err := db.Exec("INSERT INTO files (name) VALUES (?)", Text("lfn-05")); err == nil {
		t.Fatal("unique constraint lost across boot")
	}
}

// TestGeneration1SnapshotRefused: neither gob generation is read any more.
// A stream that does not open with the framed header is refused at offset 0,
// and the error says which builds still read it.
func TestGeneration1SnapshotRefused(t *testing.T) {
	// The first 24 bytes of a generation-2 file: gob's definition of the
	// snapshot type, which every gob snapshot opens with.
	gobHead := "8\x7f\x03\x01\x01\vgobSnapshot\x01\xff\x80\x00\x01\x03\x01"
	for _, stream := range []string{gobHead, "", "not a snapshot at all"} {
		db := New()
		err := db.LoadSnapshot(strings.NewReader(stream))
		if err == nil || !strings.Contains(err.Error(), "frame at offset 0: no MCSSNAP header") ||
			!strings.Contains(err.Error(), "21c9600..935ee9b") {
			t.Fatalf("LoadSnapshot(%q) = %v, want a refusal at offset 0 naming the builds that read it", stream, err)
		}
		if len(db.root.Load().tables) != 0 {
			t.Fatal("a refused stream left tables behind")
		}
	}
}

// TestWALRecordFormatPinned holds the encoder to the documented record
// layout, byte for byte: a file whose dictionary already holds the DELETE
// (id 0) logs a record that spells the INSERT in full (defining id 1),
// refers to the DELETE and to the INSERT by id, and writes the repeated text
// argument "a" as a tag-7 back-reference. The bytes decode back to the same
// statements from the same dictionary, and a decoder without the dictionary
// — as every build before the dictionary was — refuses them.
func TestWALRecordFormatPinned(t *testing.T) {
	const del, ins = "DELETE FROM kv WHERE k = ?", "INSERT INTO kv (k, v) VALUES (?, ?)"
	stmts := []redoStmt{
		{sql: ins, args: []Value{Text("a"), Int(1)}},
		{sql: del, args: []Value{Text("a")}},
		{sql: ins, args: []Value{Text("b"), Int(2)}},
	}
	golden := []byte{
		0x00, 0x00, 0x00, 0x40, // payload length 64
		0x4d, 0xae, 0x5b, 0x90, // CRC32 of the payload
		0, 0, 0, 0, 0, 0, 0, 2, // LSN 2
		3,    // three statements
		0x23, // statement 0: a 35-byte literal, which defines id 1
	}
	golden = append(golden, ins...)
	golden = append(golden,
		2, walTagText, 1, 'a', walTagInt, 2, // "a" (text argument 0), 1
		0, 1, // statement 1: 1 + id 0, the DELETE
		1, walTagTextRef, 0, // text argument 0 again
		0, 3, // statement 2: 2 + id 1, the INSERT
		2, walTagText, 1, 'b', walTagInt, 4) // "b", 2

	enc := walEncoder{}
	enc.dict.define(del)
	if got := enc.encode(nil, 2, stmts); !bytes.Equal(got, golden) {
		t.Fatalf("encoded record\n% x\nwant\n% x", got, golden)
	}
	if !slices.Equal(enc.dict.texts, []string{del, ins}) {
		t.Fatalf("dictionary after the record = %q", enc.dict.texts)
	}
	dict := walDict{}
	dict.define(del)
	lsn, got, err := decodeWALRecord(&dict, golden[frameHeaderSize:])
	if err != nil || lsn != 2 || len(got) != len(stmts) {
		t.Fatalf("decode: lsn %d, %d statements, err %v", lsn, len(got), err)
	}
	for i := range stmts {
		if got[i].sql != stmts[i].sql || !slices.Equal(got[i].args, stmts[i].args) {
			t.Fatalf("statement %d decoded to %q %v", i, got[i].sql, got[i].args)
		}
	}
	if _, _, err := decodeWALRecord(&walDict{}, golden[frameHeaderSize:]); err == nil ||
		!strings.Contains(err.Error(), "bad sql reference") {
		t.Fatalf("decoding without the dictionary: err = %v, want a bad reference", err)
	}
	// A tag-7 index past the record's literal text arguments is refused.
	bad := slices.Clone(golden[frameHeaderSize:])
	bad[bytes.IndexByte(bad, walTagTextRef)+1] = 1
	if _, _, err := decodeWALRecord(&dict, bad); err == nil || !strings.Contains(err.Error(), "bad text reference 1") {
		t.Fatalf("an out-of-range text back-reference: err = %v", err)
	}
}
