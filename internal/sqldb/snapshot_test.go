package sqldb

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"time"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX files_size ON files (size)")
	base := time.Date(2003, 11, 15, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 500; i++ {
		mustExec(t, db, "INSERT INTO files (name, size, score, valid, created) VALUES (?, ?, ?, ?, ?)",
			Text(strings.Repeat("f", 1+i%7)+Int(int64(i)).String()),
			Int(int64(i)), Float(float64(i)/3), Bool(i%2 == 0), Time(base.Add(time.Duration(i)*time.Hour)))
	}
	mustExec(t, db, "DELETE FROM files WHERE size = 250") // leave a rowid hole

	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Same row count.
	n1, _ := db.RowCount("files")
	n2, _ := db2.RowCount("files")
	if n1 != n2 || n2 != 499 {
		t.Fatalf("counts: %d vs %d", n1, n2)
	}
	// Indexed lookups work (indexes rebuilt).
	rows := mustQuery(t, db2, "SELECT name, score, created FROM files WHERE size = ?", Int(123))
	if len(rows.Data) != 1 {
		t.Fatalf("indexed lookup = %v", rows.Data)
	}
	if rows.Data[0][1].Float() != 41 || rows.Data[0][2].Time().Hour() != (9+123)%24 {
		t.Fatalf("values = %v", rows.Data[0])
	}
	// Unique constraints still enforced.
	name := rows.Data[0][0].S
	if _, err := db2.Exec("INSERT INTO files (name) VALUES (?)", Text(name)); err == nil {
		t.Fatal("unique constraint lost across snapshot")
	}
	// Autoincrement continues past the old values.
	res, err := db2.Exec("INSERT INTO files (name) VALUES ('fresh')")
	if err != nil {
		t.Fatal(err)
	}
	// 500 rows were inserted pre-snapshot, so the next id is 501. The failed
	// unique insert above burns nothing: under MVCC a failed statement's
	// shadow state — autoincrement bump included — is discarded wholesale.
	if res.LastInsertID != 501 {
		t.Fatalf("autoinc after restore = %d, want 501", res.LastInsertID)
	}
	// Deleted row stays deleted.
	rows = mustQuery(t, db2, "SELECT * FROM files WHERE size = 250")
	if len(rows.Data) != 0 {
		t.Fatal("deleted row resurrected")
	}
}

func TestSnapshotEmptyDatabase(t *testing.T) {
	db := New()
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if len(db2.Tables()) != 0 {
		t.Fatalf("tables = %v", db2.Tables())
	}
}

func TestSnapshotCollisionRejected(t *testing.T) {
	db := newTestDB(t)
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	// Loading into a database that already has the table fails cleanly.
	if err := db.LoadSnapshot(&buf); err == nil {
		t.Fatal("colliding load succeeded")
	}
}

func TestSnapshotGarbageRejected(t *testing.T) {
	db := New()
	if err := db.LoadSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

func TestSnapshotNullsPreserved(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (1, NULL), (NULL, 'x')")
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db2, "SELECT COUNT(*) FROM t WHERE b IS NULL")
	if rows.Data[0][0].Int() != 1 {
		t.Fatalf("null b count = %v", rows.Data[0][0])
	}
	rows = mustQuery(t, db2, "SELECT COUNT(*) FROM t WHERE a IS NULL")
	if rows.Data[0][0].Int() != 1 {
		t.Fatalf("null a count = %v", rows.Data[0][0])
	}
}

// TestLoadSnapshotRejectsMalformedStreams: LoadSnapshot trusts nothing in
// its input. Each case is a hand-built gob stream broken in one way; every
// one must come back as a descriptive error — not a panic, not a silent
// last-writer-wins — and leave the database exactly as it was.
func TestLoadSnapshotRejectsMalformedStreams(t *testing.T) {
	cols := []ColumnDef{{Name: "id", Type: TypeInt}, {Name: "name", Type: TypeText}}
	row := func(id int64, name string) []gobValue {
		return []gobValue{toGob(Int(id)), toGob(Text(name))}
	}
	valid := func() gobTable {
		return gobTable{
			Name:    "t",
			Cols:    cols,
			Indexes: []gobIndex{{Name: "t_name", Cols: []int{1}, Unique: true}},
			NextRow: 3,
			RowIDs:  []int64{1, 2, 3},
			Rows:    [][]gobValue{row(1, "a"), row(2, "b"), row(3, "c")},
		}
	}
	cases := []struct {
		name    string
		breakIt func(gt *gobTable)
		want    string // substring of the error
	}{
		{"fewer rows than rowids", func(gt *gobTable) { gt.Rows = gt.Rows[:2] }, "3 rowids for 2 rows"},
		{"more rows than rowids", func(gt *gobTable) { gt.RowIDs = gt.RowIDs[:1] }, "1 rowids for 3 rows"},
		{"descending rowids", func(gt *gobTable) { gt.RowIDs = []int64{1, 3, 2} }, "strictly ascending"},
		{"duplicate rowids", func(gt *gobTable) { gt.RowIDs = []int64{1, 2, 2} }, "strictly ascending"},
		{"NextRow below the largest rowid", func(gt *gobTable) { gt.NextRow = 2 }, "next rowid 2 is below stored rowid 3"},
		{"short row", func(gt *gobTable) { gt.Rows[1] = gt.Rows[1][:1] }, "row width 1"},
		{"UNIQUE violated", func(gt *gobTable) { gt.Rows[2] = row(3, "a") }, `UNIQUE constraint "t_name"`},
		{"index column out of range", func(gt *gobTable) { gt.Indexes[0].Cols = []int{2} }, "references column 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gt := valid()
			tc.breakIt(&gt)
			// A good table ahead of the bad one: the error must discard it too.
			good := valid()
			good.Name, good.Indexes[0].Name = "g", "g_name"
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&gobSnapshot{Version: snapshotVersion, LSN: 9, Tables: []gobTable{good, gt}}); err != nil {
				t.Fatal(err)
			}
			db := New()
			mustExec(t, db, "CREATE TABLE keep (a INTEGER)")
			before := db.root.Load()
			err := db.LoadSnapshot(&buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadSnapshot error = %v, want one mentioning %q", err, tc.want)
			}
			if db.root.Load() != before {
				t.Fatal("a rejected snapshot replaced the root")
			}
		})
	}
	// The unbroken stream loads, and NULL keys do not trip UNIQUE.
	gt := valid()
	gt.Rows[1][1], gt.Rows[2][1] = toGob(Null()), toGob(Null())
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&gobSnapshot{Version: snapshotVersion, Tables: []gobTable{gt}}); err != nil {
		t.Fatal(err)
	}
	db := New()
	if err := db.LoadSnapshot(&buf); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	if n := mustQuery(t, db, "SELECT COUNT(*) FROM t").Data[0][0].Int(); n != 3 {
		t.Fatalf("loaded %d rows, want 3", n)
	}
}
