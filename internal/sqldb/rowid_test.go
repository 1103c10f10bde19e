package sqldb

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// Tests for the INTEGER PRIMARY KEY as the rowid: the row store is the
// key's unique index, so its constraint, its re-keying UPDATE, its keys at
// and below 0 and LastInsertID must behave as the separate index did.

// TestRowidDuplicateIDRefused: a second row with an id the table holds is
// refused with the error text of the unique index the key used to have —
// from a single insert, a multi-row insert, a transaction that inserted
// the first row itself, and an explicit id that an AUTOINCREMENT table
// assigned.
func TestRowidDuplicateIDRefused(t *testing.T) {
	const want = `sqldb: UNIQUE constraint "t_id_key" violated on table "t"`
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL UNIQUE)")
	mustExec(t, db, "INSERT INTO t (name) VALUES (?)", Text("auto"))
	mustExec(t, db, "INSERT INTO t (id, name) VALUES (?, ?)", Int(5), Text("five"))
	refused := func(ctx string, err error) {
		t.Helper()
		if err == nil || err.Error() != want {
			t.Fatalf("%s: error = %v, want %s", ctx, err, want)
		}
	}
	_, err := db.Exec("INSERT INTO t (id, name) VALUES (?, ?)", Int(5), Text("again"))
	refused("explicit id", err)
	_, err = db.Exec("INSERT INTO t (id, name) VALUES (?, ?)", Int(1), Text("auto again"))
	refused("an autoincrement id", err)
	_, err = db.Exec("INSERT INTO t (id, name) VALUES (?, ?), (?, ?)", Int(6), Text("six"), Int(6), Text("six again"))
	refused("multi-row insert", err)
	refused("inside a transaction", db.Update(func(tx *Tx) error {
		if _, err := tx.Exec("INSERT INTO t (id, name) VALUES (?, ?)", Int(9), Text("nine")); err != nil {
			return err
		}
		_, err := tx.Exec("INSERT INTO t (id, name) VALUES (?, ?)", Int(9), Text("nine again"))
		return err
	}))
	// The key is checked before the other UNIQUE columns, as its index
	// was: it came first in the table's index list.
	_, err = db.Exec("INSERT INTO t (id, name) VALUES (?, ?)", Int(5), Text("auto"))
	refused("key and name both taken", err)
	if n := mustQuery(t, db, "SELECT COUNT(*) FROM t").Data[0][0].Int(); n != 2 {
		t.Fatalf("%d rows after the refusals, want 2", n)
	}
	// A refused insert does not advance the autoincrement past the ids the
	// rolled-back statement assigned.
	if id := mustExec(t, db, "INSERT INTO t (name) VALUES (?)", Text("next")).LastInsertID; id != 6 {
		t.Fatalf("next autoincrement id = %d, want 6", id)
	}
}

// TestRowidUpdateRekeys: an UPDATE that sets the key moves the row to the
// new rowid — every index entry follows it, lookups by the old id find
// nothing, and the move survives a snapshot — while a key another row
// holds, or NULL, is refused and leaves the row where it was.
func TestRowidUpdateRekeys(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE k (id INTEGER PRIMARY KEY, g INTEGER NOT NULL, v TEXT)")
	mustExec(t, db, "CREATE INDEX k_g ON k (g)")
	mustExec(t, db, "CREATE INDEX k_vg ON k (v, g)")
	for i := int64(1); i <= 6; i++ {
		mustExec(t, db, "INSERT INTO k (id, g, v) VALUES (?, ?, ?)", Int(i), Int(i%2), Text("x"))
	}
	if n := mustExec(t, db, "UPDATE k SET id = ?, v = ? WHERE id = ?", Int(-4), Text("moved"), Int(4)).RowsAffected; n != 1 {
		t.Fatalf("re-key updated %d rows, want 1", n)
	}
	check := func(db *DB, ctx string) {
		t.Helper()
		checkIndexesPointAtStoredRows(t, db.root.Load(), ctx)
		if got := mustQuery(t, db, "SELECT v FROM k WHERE id = ?", Int(-4)).Data; len(got) != 1 || got[0][0] != Text("moved") {
			t.Fatalf("%s: the row at its new id = %v", ctx, got)
		}
		if got := mustQuery(t, db, "SELECT v FROM k WHERE id = ?", Int(4)).Data; len(got) != 0 {
			t.Fatalf("%s: the old id still finds %v", ctx, got)
		}
		for _, q := range []struct {
			sql  string
			args []Value
		}{
			{"SELECT id FROM k WHERE g = ?", []Value{Int(0)}},
			{"SELECT id FROM k WHERE v = ? AND g = ?", []Value{Text("moved"), Int(0)}},
			{"SELECT id FROM k WHERE id < ?", []Value{Int(3)}},
			{"SELECT a.id FROM k a JOIN k b ON b.id = a.id WHERE a.g = ?", []Value{Int(0)}},
		} {
			checkParity(t, db, q.sql, q.args)
		}
	}
	check(db, "re-keyed")
	const taken = `sqldb: UNIQUE constraint "k_id_key" violated on table "k"`
	if _, err := db.Exec("UPDATE k SET id = ? WHERE id = ?", Int(5), Int(-4)); err == nil || err.Error() != taken {
		t.Fatalf("re-key onto a held id: error = %v, want %s", err, taken)
	}
	if _, err := db.Exec("UPDATE k SET id = ? WHERE id = ?", Null(), Int(-4)); err == nil {
		t.Fatal("re-key to NULL succeeded")
	}
	check(db, "after the refusals")
	var snap bytes.Buffer
	if err := db.Dump(&snap); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	check(restored, "restored")
}

// TestRowidZeroAndNegativeIDs: ids at 0, below it and at both ends of
// int64 are rowids like any other — through insert, every kind of key
// probe, Dump (whose stream numbers such a table's rows from 1) and
// LoadSnapshot, which keys the rows by id again and re-dumps the same bytes.
func TestRowidZeroAndNegativeIDs(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE z (id INTEGER PRIMARY KEY, tag TEXT NOT NULL)")
	mustExec(t, db, "CREATE INDEX z_tag ON z (tag)")
	ids := []int64{0, -1, 7, math.MinInt64, -300, math.MaxInt64, 2}
	for _, id := range ids {
		mustExec(t, db, "INSERT INTO z (id, tag) VALUES (?, ?)", Int(id), Text(Int(id).String()))
	}
	check := func(db *DB, ctx string) {
		t.Helper()
		checkIndexesPointAtStoredRows(t, db.root.Load(), ctx)
		for _, id := range ids {
			got := mustQuery(t, db, "SELECT tag FROM z WHERE id = ?", Int(id)).Data
			if len(got) != 1 || got[0][0] != Text(Int(id).String()) {
				t.Fatalf("%s: id %d finds %v", ctx, id, got)
			}
		}
		for _, q := range []struct {
			sql  string
			args []Value
		}{
			{"SELECT id FROM z WHERE id <= ?", []Value{Int(0)}},
			{"SELECT id FROM z WHERE id > ?", []Value{Int(-1)}},
			{"SELECT id FROM z WHERE id >= ? AND id < ?", []Value{Int(math.MinInt64), Int(-1)}},
			{"SELECT id FROM z WHERE id < ?", []Value{Float(-0.5)}},
			{"SELECT id FROM z WHERE id = ?", []Value{Float(-300)}},
			{"SELECT id FROM z WHERE id = ?", []Value{Text("0")}},
			{"SELECT id FROM z WHERE id IN (?, ?, ?)", []Value{Int(0), Int(-300), Int(5)}},
			{"SELECT a.tag FROM z a JOIN z b ON b.id = a.id WHERE a.tag = ?", []Value{Text("-1")}},
		} {
			checkParity(t, db, q.sql, q.args)
		}
	}
	check(db, "inserted")
	// The filters re-run on whatever a path returns, so parity cannot see a
	// range that over-reads: the walk itself must visit its interval alone.
	tbl := db.root.Load().tables["z"]
	for _, r := range []struct {
		lo, hi       Value
		loInc, hiInc bool
		want         []int64
	}{
		{Int(-300), Int(2), true, false, []int64{-300, -1, 0}},
		{Int(-300), Int(2), false, true, []int64{-1, 0, 2}},
		{Float(-0.5), Float(7.5), true, true, []int64{0, 2, 7}},
		{Int(7), Int(-1), true, true, nil},
	} {
		var got []int64
		tbl.scanRowids(&r.lo, &r.hi, r.loInc, r.hiInc, func(rowid int64, _ Row) bool {
			got = append(got, rowid)
			return true
		})
		if !slices.Equal(got, r.want) {
			t.Fatalf("range %v..%v (inclusive %v, %v) visits %v, want %v", r.lo, r.hi, r.loInc, r.hiInc, got, r.want)
		}
	}
	first := dumpBytes(t, db)
	restored := New()
	if err := restored.LoadSnapshot(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	check(restored, "restored")
	if second := dumpBytes(t, restored); !bytes.Equal(first, second) {
		t.Fatal("the restored table dumps other bytes")
	}
}

// TestRowidLastInsertID: LastInsertID is the AUTOINCREMENT column's value
// in the last row an INSERT stored — assigned or explicit — and 0 for a
// table without one, whatever its INTEGER PRIMARY KEY holds.
func TestRowidLastInsertID(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)")
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, v INTEGER)")
	for _, tc := range []struct {
		sql  string
		args []Value
		want int64
	}{
		{"INSERT INTO a (v) VALUES (?)", []Value{Int(1)}, 1},
		{"INSERT INTO a (v) VALUES (?), (?)", []Value{Int(2), Int(3)}, 3},
		{"INSERT INTO a (id, v) VALUES (?, ?)", []Value{Int(10), Int(4)}, 10},
		{"INSERT INTO a (v) VALUES (?)", []Value{Int(5)}, 11},
		{"INSERT INTO a (id, v) VALUES (?, ?)", []Value{Int(-3), Int(6)}, -3},
		{"INSERT INTO a (v) VALUES (?)", []Value{Int(7)}, 12},
		{"INSERT INTO p (id, v) VALUES (?, ?)", []Value{Int(40), Int(8)}, 0},
	} {
		if got := mustExec(t, db, tc.sql, tc.args...).LastInsertID; got != tc.want {
			t.Fatalf("%s %v: LastInsertID = %d, want %d", tc.sql, tc.args, got, tc.want)
		}
	}
}
