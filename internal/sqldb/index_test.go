package sqldb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// Tests for the row-pointer index entry and the one bulk index-build path
// (table.buildIndexes) that CREATE INDEX backfill and LoadSnapshot share.

// TestIndexEntrySize pins the layout the restored-heap budget rests on: an
// entry is a row pointer and a rowid, whatever the index width.
func TestIndexEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(indexEntry{}); got > 24 {
		t.Fatalf("indexEntry is %d bytes, budget 24", got)
	}
}

// TestIndexProbesDoNotAllocate: building an entry and every kind of index
// probe — equality prefix, prefix range and the UNIQUE check — run without
// a single heap allocation, on a four-column index like the catalog's
// ua_attr_* (the width whose keys used to spill) and, for the UNIQUE check,
// on a column's UNIQUE index; and so do the row store's probes by the
// INTEGER PRIMARY KEY: an equality by INTEGER (a lookup) and by FLOAT (a
// seek), a range, and an intersection stage's key probe.
func TestIndexProbesDoNotAllocate(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, c INTEGER, d INTEGER UNIQUE)")
	mustExec(t, db, "CREATE INDEX p_abcd ON p (a, b, c, d)")
	for i := 0; i < 500; i++ {
		mustExec(t, db, "INSERT INTO p (id, a, b, c, d) VALUES (?, ?, ?, ?, ?)",
			Int(int64(i)), Int(int64(i%5)), Text(fmt.Sprintf("b%d", i%7)), Int(int64(i%11)), Int(int64(i)))
	}
	tbl := db.root.Load().tables["p"]
	ix := db.root.Load().indexes["p_abcd"]
	row, _ := tbl.rows.Get(42)
	fresh := Row{Int(1000), Int(3), Text("b3"), Int(3), Int(1000)}
	prefix := []Value{Int(3), Text("b3")}
	lo, hi := Int(2), Int(9)
	key, fkey := Int(42), Float(42)
	visited := 0
	count := func(int64, Row) bool { visited++; return true }

	cases := map[string]func(){
		"entryOf+compare": func() {
			if ix.compare(entryOf(42, row), entryOf(1000, fresh)) == 0 {
				t.Fatal("distinct rows compare equal")
			}
		},
		"scanEqual":       func() { ix.scanEqual(prefix, count) },
		"scanPrefixRange": func() { ix.scanPrefixRange(prefix, &lo, &hi, true, false, count) },
		"checkUnique": func() {
			if err := db.root.Load().indexes["p_d_key"].checkUnique(1000, fresh); err != nil {
				t.Fatal(err)
			}
		},
		"rowid-eq":        func() { tbl.scanRowids(&key, &key, true, true, count) },
		"rowid-eq(float)": func() { tbl.scanRowids(&fkey, &fkey, true, true, count) },
		"rowid-range":     func() { tbl.scanRowids(&lo, &hi, true, false, count) },
		"key-probe(rowid)": func() {
			if _, ok := tbl.rows.Get(key.N); !ok {
				t.Fatal("key probe missed row 42")
			}
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", name, allocs)
		}
	}
	if visited == 0 {
		t.Fatal("the scans visited nothing; the probes measured an empty path")
	}
}

// keyedRows counts the rows of tbl, ix's table, with no NULL key cell: the
// rows the index holds an entry for.
func keyedRows(tbl *table, ix *index) int {
	n := 0
	tbl.rows.Ascend(func(rowid int64, row Row) bool {
		if !ix.nullKey(entryOf(rowid, row)) {
			n++
		}
		return true
	})
	return n
}

// checkIndexesPointAtStoredRows asserts the retention invariant of one
// committed root: every index holds exactly one entry per stored row with
// no NULL key cell, and that entry points at the very slice the row store
// holds under its rowid — never at a superseded version of the row.
func checkIndexesPointAtStoredRows(t *testing.T, root *dbRoot, ctx string) {
	t.Helper()
	for _, tbl := range root.tables {
		for _, ix := range tbl.indexes {
			if n := keyedRows(tbl, ix); ix.tree.Len() != n {
				t.Fatalf("%s: index %s holds %d entries for %d rows with non-NULL keys", ctx, ix.name, ix.tree.Len(), n)
			}
			ix.tree.Ascend(func(e indexEntry, _ struct{}) bool {
				row, ok := tbl.rows.Get(e.rowid)
				if !ok {
					t.Fatalf("%s: index %s references rowid %d, which the row store no longer holds", ctx, ix.name, e.rowid)
				}
				if &row[0] != e.row {
					t.Fatalf("%s: index %s entry for rowid %d points at a superseded row", ctx, ix.name, e.rowid)
				}
				return true
			})
		}
	}
}

// TestUpdateDoesNotRetainSupersededRows is the sqldb half of the retention
// story (btree's TestDeleteDoesNotRetainValues is the other): an index
// entry is a pointer to its row, and an UPDATE that leaves an index's key
// columns alone re-inserts an entry that orders equal to the old one. If
// the tree kept the old key, every such index would pin — and covered scans
// would read — the superseded row. Every root committed along the way is
// kept and checked, not just the last.
func TestUpdateDoesNotRetainSupersededRows(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE r (id INTEGER PRIMARY KEY, k INTEGER, g TEXT, payload TEXT)")
	mustExec(t, db, "CREATE INDEX r_k ON r (k)")
	mustExec(t, db, "CREATE INDEX r_gk ON r (g, k, id)")
	var roots []*dbRoot
	keep := func() { roots = append(roots, db.root.Load()) }
	for i := 0; i < 300; i++ {
		mustExec(t, db, "INSERT INTO r (id, k, g, payload) VALUES (?, ?, ?, ?)",
			Int(int64(i)), Int(int64(i%17)), Text(fmt.Sprintf("g%d", i%5)), Text("v0"))
	}
	keep()
	rng := rand.New(rand.NewSource(3))
	for round := 1; round <= 60; round++ {
		switch round % 4 {
		case 0: // key columns of every index untouched
			mustExec(t, db, "UPDATE r SET payload = ? WHERE k = ?", Text(fmt.Sprintf("v%d", round)), Int(int64(rng.Intn(17))))
		case 1: // one index's key moves, the others' stay
			mustExec(t, db, "UPDATE r SET k = ? WHERE id = ?", Int(int64(rng.Intn(17))), Int(int64(rng.Intn(300))))
		case 2: // several updates of one row inside one transaction
			id := Int(int64(rng.Intn(300)))
			if err := db.Update(func(tx *Tx) error {
				for j := 0; j < 3; j++ {
					if _, err := tx.Exec("UPDATE r SET payload = ? WHERE id = ?", Text(fmt.Sprintf("v%d.%d", round, j)), id); err != nil {
						return err
					}
				}
				_, err := tx.Exec("UPDATE r SET g = ? WHERE id = ?", Text(fmt.Sprintf("g%d", rng.Intn(5))), id)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		default: // delete and re-insert under the same primary key
			id := Int(int64(rng.Intn(300)))
			mustExec(t, db, "DELETE FROM r WHERE id = ?", id)
			mustExec(t, db, "INSERT INTO r (id, k, g, payload) VALUES (?, ?, ?, ?)", id, Int(1), Text("g1"), Text("back"))
		}
		keep()
	}
	for i, root := range roots {
		checkIndexesPointAtStoredRows(t, root, fmt.Sprintf("root %d", i))
	}
	// A covered read sees the update, not the superseded row.
	mustExec(t, db, "UPDATE r SET payload = ? WHERE k = 4", Text("final"))
	rows := mustQuery(t, db, "SELECT payload FROM r WHERE k = 4")
	for _, r := range rows.Data {
		if r[0] != Text("final") {
			t.Fatalf("index scan returned payload %v after the update", r[0])
		}
	}
}

// TestNullKeysAreNotIndexed pins the index rule: an index holds one entry
// per row whose key cells are all non-NULL. Indexes over a nullable column
// are followed through every way a row enters, changes or leaves them —
// insert, UPDATE from a value to NULL and from NULL to a value, DELETE,
// CREATE INDEX backfill and snapshot restore — and after each the tree
// holds exactly the rows with no NULL key cell and equality probes on the
// column answer as the naive evaluator does.
func TestNullKeysAreNotIndexed(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE n (id INTEGER PRIMARY KEY, g INTEGER NOT NULL, v INTEGER)")
	mustExec(t, db, "CREATE INDEX n_v ON n (v)")
	mustExec(t, db, "CREATE INDEX n_gv ON n (g, v)")
	check := func(db *DB, ctx string) {
		t.Helper()
		root := db.root.Load()
		checkIndexesPointAtStoredRows(t, root, ctx)
		nulls := mustQuery(t, db, "SELECT COUNT(*) FROM n").Data[0][0].Int() -
			int64(keyedRows(root.tables["n"], root.indexes["n_v"]))
		if nulls == 0 {
			t.Fatalf("%s: no row has a NULL v; the check is vacuous", ctx)
		}
		for _, q := range []struct {
			sql  string
			args []Value
		}{
			{"SELECT id FROM n WHERE v = ?", []Value{Int(2)}},
			{"SELECT id FROM n WHERE v = ?", []Value{Int(7)}},
			{"SELECT id FROM n WHERE g = ? AND v = ?", []Value{Int(1), Int(3)}},
			{"SELECT id FROM n WHERE g = ? AND v >= ?", []Value{Int(2), Int(0)}},
			// An intersection whose second stage has no local predicate:
			// n_gv leads with the key column g but lacks the NULL-v rows,
			// so it must not serve as the stage's key-probe index.
			{"SELECT b.id FROM n a JOIN n b ON b.g = a.g WHERE a.id = ?", []Value{Int(5)}},
		} {
			checkParity(t, db, q.sql, q.args)
		}
	}
	for i := 0; i < 60; i++ {
		v := Int(int64(i % 5))
		if i%3 == 0 {
			v = Null()
		}
		mustExec(t, db, "INSERT INTO n (id, g, v) VALUES (?, ?, ?)", Int(int64(i)), Int(int64(i%4)), v)
	}
	check(db, "insert")
	mustExec(t, db, "UPDATE n SET v = ? WHERE g = ? AND v = ?", Null(), Int(1), Int(2))
	check(db, "value to NULL")
	for id := 0; id < 60; id += 6 {
		mustExec(t, db, "UPDATE n SET v = ? WHERE id = ?", Int(7), Int(int64(id)))
	}
	check(db, "NULL to value")
	if err := db.Update(func(tx *Tx) error {
		for _, s := range []struct {
			sql  string
			args []Value
		}{
			{"INSERT INTO n (id, g, v) VALUES (?, ?, ?)", []Value{Int(100), Int(2), Null()}},
			{"UPDATE n SET v = ? WHERE id = ?", []Value{Int(3), Int(100)}},
			{"INSERT INTO n (id, g, v) VALUES (?, ?, ?)", []Value{Int(101), Int(1), Int(3)}},
			{"UPDATE n SET v = ? WHERE id = ?", []Value{Null(), Int(101)}},
		} {
			if _, err := tx.Exec(s.sql, s.args...); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check(db, "insert and update in one transaction")
	for _, id := range []int64{3, 4, 9, 10, 100, 101} {
		mustExec(t, db, "DELETE FROM n WHERE id = ?", Int(id))
	}
	check(db, "delete")
	mustExec(t, db, "CREATE INDEX n_vg ON n (v, g)")
	check(db, "CREATE INDEX backfill")
	var snap bytes.Buffer
	if err := db.Dump(&snap); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	check(restored, "snapshot restore")
}

// indexDump renders an index's entries in tree order as rowid plus key
// column values: two indexes are the same index exactly when their dumps
// are equal.
func indexDump(ix *index) string {
	var b strings.Builder
	ix.tree.Ascend(func(e indexEntry, _ struct{}) bool {
		fmt.Fprintf(&b, "%d:", e.rowid)
		for _, c := range ix.cols {
			v := e.col(c)
			fmt.Fprintf(&b, " %s/%s", v.T, v.String())
		}
		b.WriteByte('\n')
		return true
	})
	return b.String()
}

// TestIndexBuildPathsAgree reaches one random table three ways — indexes
// first and rows by transactional inserts, updates and deletes; rows first
// and indexes by CREATE INDEX backfill; Dump → LoadSnapshot — and requires
// the three to be indistinguishable: identical entry order in every index,
// identical EXPLAIN output, and one entry per row with non-NULL keys. The
// table has NULLs in every indexed column, an INTEGER-valued FLOAT column
// (ints coerce on the way in and compare across types on the way out), a
// UNIQUE index whose NULL keys repeat, and three- and four-column indexes.
func TestIndexBuildPathsAgree(t *testing.T) {
	const createTable = "CREATE TABLE eq (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, c FLOAT, d INTEGER, u INTEGER UNIQUE)"
	indexDDL := []string{
		"CREATE INDEX eq_a ON eq (a)",
		"CREATE INDEX eq_ba ON eq (b, a)",
		"CREATE INDEX eq_cab ON eq (c, a, b)",
		"CREATE INDEX eq_abcd ON eq (a, b, c, d)",
	}
	explains := []string{
		"SELECT id FROM eq WHERE a = 2",
		"SELECT id FROM eq WHERE b = ? AND a = 3",
		"SELECT id FROM eq WHERE a = 1 AND b = ? AND c > ?",
		"SELECT id FROM eq WHERE c = 2 AND a = 1",
		"SELECT id FROM eq WHERE u = 7",
		"SELECT x.id FROM eq x JOIN eq y ON y.id = x.id WHERE x.a = 1 AND y.b = ?",
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maybeNull := func(v Value) Value {
			if rng.Intn(5) == 0 {
				return Null()
			}
			return v
		}
		type stmt struct {
			sql  string
			args []Value
		}
		var stream []stmt
		nextID := int64(0)
		for i := 0; i < 700; i++ {
			switch rng.Intn(8) {
			default:
				nextID++
				c := Float(float64(rng.Intn(6)) / 2)
				if rng.Intn(2) == 0 {
					c = Int(int64(rng.Intn(3))) // coerced to FLOAT on insert
				}
				stream = append(stream, stmt{"INSERT INTO eq (id, a, b, c, d, u) VALUES (?, ?, ?, ?, ?, ?)", []Value{
					Int(nextID), maybeNull(Int(int64(rng.Intn(4)))), maybeNull(Text(fmt.Sprintf("s%d", rng.Intn(3)))),
					maybeNull(c), maybeNull(Int(int64(rng.Intn(50)))), maybeNull(Int(nextID)),
				}})
			case 0:
				stream = append(stream, stmt{"UPDATE eq SET a = ?, d = ? WHERE b = ? AND d < ?", []Value{
					maybeNull(Int(int64(rng.Intn(4)))), Int(int64(rng.Intn(50))), Text(fmt.Sprintf("s%d", rng.Intn(3))), Int(int64(rng.Intn(20))),
				}})
			case 1:
				stream = append(stream, stmt{"DELETE FROM eq WHERE id = ?", []Value{Int(1 + rng.Int63n(nextID+1))}})
			}
		}
		run := func(db *DB) {
			t.Helper()
			for lo := 0; lo < len(stream); lo += 25 { // 25-statement transactions
				if err := db.Update(func(tx *Tx) error {
					for _, s := range stream[lo:min(lo+25, len(stream))] {
						if _, err := tx.Exec(s.sql, s.args...); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		}

		transactional := New()
		mustExec(t, transactional, createTable)
		for _, ddl := range indexDDL {
			mustExec(t, transactional, ddl)
		}
		run(transactional)

		backfilled := New()
		mustExec(t, backfilled, createTable)
		run(backfilled)
		for _, ddl := range indexDDL {
			mustExec(t, backfilled, ddl)
		}

		var snap bytes.Buffer
		if err := transactional.Dump(&snap); err != nil {
			t.Fatal(err)
		}
		restored := New()
		if err := restored.LoadSnapshot(&snap); err != nil {
			t.Fatal(err)
		}

		ref := transactional.root.Load()
		if ref.tables["eq"].rows.Len() < 100 {
			t.Fatalf("seed %d: only %d rows survived; the comparison is too thin", seed, ref.tables["eq"].rows.Len())
		}
		for name, db := range map[string]*DB{"backfilled": backfilled, "restored": restored} {
			ctx := fmt.Sprintf("seed %d, %s", seed, name)
			checkIndexesPointAtStoredRows(t, db.root.Load(), ctx)
			got := db.root.Load()
			for _, want := range ref.tables["eq"].indexes {
				ix := got.indexes[want.name]
				if ix == nil {
					t.Fatalf("%s: index %s missing", ctx, want.name)
				}
				if g, w := indexDump(ix), indexDump(want); g != w {
					t.Fatalf("%s: index %s order differs\ngot:\n%s\nwant:\n%s", ctx, want.name, g, w)
				}
			}
			for _, q := range explains {
				w, err := transactional.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				g, err := db.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				if g != w {
					t.Fatalf("%s: EXPLAIN %q = %q, want %q", ctx, q, g, w)
				}
			}
		}
		checkIndexesPointAtStoredRows(t, ref, fmt.Sprintf("seed %d, transactional", seed))
	}
}

// FuzzIndexBuild holds the bulk build's sort-record path to the comparator
// it replaces: for random rows over every column type — NULLs, ±0, ±Inf,
// the int64 extremes, duplicate text and text sharing long prefixes — and
// random one- to four-column indexes, buildIndexes must give every index
// the entry order slices.SortFunc(entries, ix.compare) gives over the rows
// with no NULL key cell, and a UNIQUE violation exactly where the sorted
// entries hold two equal keys.
func FuzzIndexBuild(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(3))
	f.Add(int64(2), uint16(1), uint8(1))
	f.Add(int64(3), uint16(0), uint8(2))
	f.Add(int64(4), uint16(700), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nrows uint16, nindexes uint8) {
		rng := rand.New(rand.NewSource(seed))
		cols := []ColumnDef{
			{Name: "i", Type: TypeInt}, {Name: "f", Type: TypeFloat}, {Name: "s", Type: TypeText},
			{Name: "b", Type: TypeBool}, {Name: "d", Type: TypeTime}, {Name: "p", Type: TypeText},
		}
		tbl, err := newTable(&CreateTableStmt{Name: "fz", Columns: cols})
		if err != nil {
			t.Fatal(err)
		}
		long := strings.Repeat("prefix/", 12)
		texts := []string{"", "a", "ab", "b", long, long + "a", long + "a\x00", long + "b", long + long}
		floats := []float64{math.Inf(-1), -math.MaxFloat64, -1.5, math.Copysign(0, -1), 0, 5e-324, 0.5, 2, math.Inf(1)}
		ints := []int64{math.MinInt64, -1, 0, 1, 2, math.MaxInt64}
		cell := func(typ Type) Value {
			if rng.Intn(6) == 0 {
				return Null()
			}
			switch typ {
			case TypeInt:
				return Int(ints[rng.Intn(len(ints))])
			case TypeFloat:
				return Float(floats[rng.Intn(len(floats))])
			case TypeText:
				return Text(texts[rng.Intn(len(texts))])
			case TypeBool:
				return Bool(rng.Intn(2) == 0)
			}
			return TimeMicros(ints[rng.Intn(len(ints))] / 2)
		}
		n := int(nrows % 1024)
		rowids, rows := make([]int64, n), make([]Row, n)
		next := int64(0)
		for r := range rows {
			next += 1 + rng.Int63n(3)
			rowids[r], rows[r] = next, make(Row, len(cols))
			for c := range cols {
				rows[r][c] = cell(cols[c].Type)
			}
		}
		var ixs []*index
		for k := range int(nindexes%6) + 1 {
			ixCols := make([]int, 1+rng.Intn(4))
			for j := range ixCols {
				ixCols[j] = rng.Intn(len(cols))
			}
			ixs = append(ixs, newIndex(fmt.Sprintf("fz_%d", k), tbl, ixCols, rng.Intn(4) == 0))
		}

		// The reference: the comparator sort of the NULL-free keys, and
		// UNIQUE read off its neighbours.
		want := make([][]indexEntry, len(ixs))
		dup := false
		for k, ix := range ixs {
			for r := range rows {
				if e := entryOf(rowids[r], rows[r]); !ix.nullKey(e) {
					want[k] = append(want[k], e)
				}
			}
			slices.SortFunc(want[k], ix.compare)
			for r := 1; r < len(want[k]) && ix.unique; r++ {
				if compareKeyCols(ix.cols, want[k][r-1], want[k][r]) == 0 {
					dup = true
				}
			}
		}

		err = tbl.buildIndexes(rowids, rows, ixs)
		if dup {
			if err == nil || !strings.Contains(err.Error(), "UNIQUE constraint") {
				t.Fatalf("build over a duplicate UNIQUE key: err = %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		for k, ix := range ixs {
			var got []indexEntry
			ix.tree.Ascend(func(e indexEntry, _ struct{}) bool {
				got = append(got, e)
				return true
			})
			if !slices.Equal(got, want[k]) {
				t.Fatalf("%s over columns %v: built order differs from the comparator sort", ix.name, ix.cols)
			}
		}
	})
}

// TestUniqueSeesPendingWrites: the UNIQUE check sees every earlier write of
// its own transaction, whether or not the index has applied it yet. Inside
// one transaction a duplicate insert fails, an UPDATE onto a key inserted
// earlier fails, an UPDATE that keeps its own key succeeds, and a key that
// was inserted, deleted and inserted again succeeds.
func TestUniqueSeesPendingWrites(t *testing.T) {
	db := newTestDB(t)
	const ins = "INSERT INTO files (name, size) VALUES (?, ?)"
	tx := db.Begin()
	exec := func(sql string, args ...Value) error {
		_, err := tx.Exec(sql, args...)
		return err
	}
	isUnique := func(err error) bool { return err != nil && strings.Contains(err.Error(), "UNIQUE constraint") }
	if err := exec(ins, Text("a"), Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := exec(ins, Text("a"), Int(2)); !isUnique(err) {
		t.Fatalf("a duplicate of a key inserted in the same transaction: err = %v, want a UNIQUE violation", err)
	}
	if err := exec(ins, Text("b"), Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := exec("UPDATE files SET name = ? WHERE name = ?", Text("b"), Text("a")); !isUnique(err) {
		t.Fatalf("an UPDATE onto a key inserted in the same transaction: err = %v, want a UNIQUE violation", err)
	}
	if err := exec("UPDATE files SET name = ?, size = ? WHERE name = ?", Text("a"), Int(4), Text("a")); err != nil {
		t.Fatalf("an UPDATE that keeps its own key: %v", err)
	}
	for _, step := range []struct {
		sql  string
		args []Value
	}{
		{ins, []Value{Text("c"), Int(5)}},
		{"DELETE FROM files WHERE name = ?", []Value{Text("c")}},
		{ins, []Value{Text("c"), Int(6)}},
	} {
		if err := exec(step.sql, step.args...); err != nil {
			t.Fatalf("insert, delete, insert of one key: %s: %v", step.sql, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, "SELECT name, size FROM files ORDER BY name")
	if got := fmt.Sprint(rows.Data); got != "[[a 4] [b 3] [c 6]]" {
		t.Fatalf("committed rows = %s", got)
	}
	if _, err := db.Exec(ins, Text("c"), Int(7)); !isUnique(err) {
		t.Fatalf("a duplicate after commit: err = %v, want a UNIQUE violation", err)
	}
}
