package sqldb

import (
	"bytes"
	"testing"
)

// newEpochDB is newTestDB plus a second table, so a change to one table can
// be seen not to move the other's epoch.
func newEpochDB(t *testing.T) *DB {
	t.Helper()
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE tags (id INTEGER PRIMARY KEY AUTOINCREMENT, tag TEXT)")
	mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, 1)", Text("a"))
	mustExec(t, db, "INSERT INTO tags (tag) VALUES (?)", Text("x"))
	return db
}

func tableEpoch(t *testing.T, db *DB, name string) uint64 {
	t.Helper()
	e, ok := db.TableEpoch(name)
	if !ok {
		t.Fatalf("TableEpoch(%q) reports no such table", name)
	}
	return e
}

// A table's epoch moves to the commit's epoch on every statement that
// changes a row or its schema, and on a snapshot load; the other table's
// epoch stays.
func TestTableEpochMovesOnChange(t *testing.T) {
	for _, tc := range []struct {
		name string
		sql  string
		args []Value
	}{
		{"insert", "INSERT INTO files (name, size) VALUES (?, 2)", []Value{Text("b")}},
		{"update", "UPDATE files SET size = ? WHERE name = ?", []Value{Int(9), Text("a")}},
		{"delete", "DELETE FROM files WHERE name = ?", []Value{Text("a")}},
		{"create index", "CREATE INDEX files_size ON files (size)", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := newEpochDB(t)
			tags := tableEpoch(t, db, "tags")
			mustExec(t, db, tc.sql, tc.args...)
			if got := tableEpoch(t, db, "files"); got != db.Epoch() {
				t.Fatalf("files epoch = %d after %s, want the commit's %d", got, tc.name, db.Epoch())
			}
			if got := tableEpoch(t, db, "tags"); got != tags {
				t.Fatalf("tags epoch moved %d -> %d on a files %s", tags, got, tc.name)
			}
		})
	}
}

func TestTableEpochMovesOnLoadSnapshot(t *testing.T) {
	src := newEpochDB(t)
	var buf bytes.Buffer
	if err := src.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db := New()
	if err := db.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"files", "tags"} {
		if got := tableEpoch(t, db, name); got != db.Epoch() || got == 0 {
			t.Fatalf("%s epoch = %d after load, want the load's %d", name, got, db.Epoch())
		}
	}
}

// A statement that changes no row, and a rolled-back change, leave the
// table's epoch where it was.
func TestTableEpochStaysWithoutChange(t *testing.T) {
	db := newEpochDB(t)
	files := tableEpoch(t, db, "files")
	mustExec(t, db, "DELETE FROM files WHERE name = ?", Text("absent"))
	mustExec(t, db, "UPDATE files SET size = ? WHERE name = ?", Int(3), Text("absent"))
	mustQuery(t, db, "SELECT id FROM files")
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO files (name) VALUES (?)", Text("rolled back")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := tableEpoch(t, db, "files"); got != files {
		t.Fatalf("files epoch moved %d -> %d without a committed change", files, got)
	}
	if _, ok := db.TableEpoch("absent"); ok {
		t.Fatal("TableEpoch of a missing table reports ok")
	}
}

// A transaction's change is seen by no TableEpoch before its commit, which
// publishes it under the commit's epoch. A table the transaction read or
// cloned without changing a row keeps its epoch.
func TestTableEpochInsideTransaction(t *testing.T) {
	db := newEpochDB(t)
	files, tags := tableEpoch(t, db, "files"), tableEpoch(t, db, "tags")
	tx := db.Begin()
	// A zero-row delete clones the table into the transaction but changes
	// nothing.
	if _, err := tx.Exec("DELETE FROM tags WHERE tag = ?", Text("absent")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO files (name) VALUES (?)", Text("new")); err != nil {
		t.Fatal(err)
	}
	if got := tableEpoch(t, db, "files"); got != files {
		t.Fatalf("the database sees files epoch %d before commit, want %d", got, files)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tableEpoch(t, db, "files"); got != db.Epoch() {
		t.Fatalf("files epoch after commit = %d, want %d", got, db.Epoch())
	}
	if got := tableEpoch(t, db, "tags"); got != tags {
		t.Fatalf("tags epoch moved %d -> %d on a commit that changed no tags row", tags, got)
	}
}
