package sqldb

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// Tests for the row-pointer index entry and the one bulk index-build path
// (index.build) that CREATE INDEX backfill and LoadSnapshot share.

// TestIndexEntrySize pins the layout the restored-heap budget rests on: an
// entry is a row pointer and a rowid, whatever the index width.
func TestIndexEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(indexEntry{}); got > 24 {
		t.Fatalf("indexEntry is %d bytes, budget 24", got)
	}
}

// TestIndexProbesDoNotAllocate: building an entry and every kind of index
// probe — equality prefix, prefix range, the flush path's existence probe
// and the UNIQUE check — run without a single heap allocation, on a
// four-column index like the catalog's ua_attr_* (the width whose keys used
// to spill) and, for the UNIQUE check, on a column's UNIQUE index.
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
		"hasPrefix": func() {
			if !ix.hasPrefix(entryOf(42, row), 3) {
				t.Fatal("hasPrefix missed a stored row's own prefix")
			}
		},
		"checkUnique": func() {
			if err := db.root.Load().indexes["p_d_key"].checkUnique(1000, fresh); err != nil {
				t.Fatal(err)
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

// checkIndexesPointAtStoredRows asserts the retention invariant of one
// committed root: every index holds exactly one entry per stored row, and
// that entry points at the very slice the row store holds under its rowid —
// never at a superseded version of the row.
func checkIndexesPointAtStoredRows(t *testing.T, root *dbRoot, ctx string) {
	t.Helper()
	for _, tbl := range root.tables {
		for _, ix := range tbl.indexes {
			if ix.tree.Len() != tbl.rows.Len() {
				t.Fatalf("%s: index %s holds %d entries for %d rows", ctx, ix.name, ix.tree.Len(), tbl.rows.Len())
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
// identical stored distinct counts (each equal to a from-scratch count),
// identical planner statistics, identical EXPLAIN output. The table has
// NULLs in every indexed column, an INTEGER-valued FLOAT column (ints coerce
// on the way in and compare across types on the way out), a UNIQUE index
// whose NULL keys repeat, and three- and four-column indexes.
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
		var stats statsRegistry
		for name, db := range map[string]*DB{"backfilled": backfilled, "restored": restored} {
			ctx := fmt.Sprintf("seed %d, %s", seed, name)
			verifyStats(t, db, ctx)
			checkIndexesPointAtStoredRows(t, db.root.Load(), ctx)
			got := db.root.Load()
			if g, w := stats.tableRows(got.tables["eq"]), stats.tableRows(ref.tables["eq"]); g != w {
				t.Fatalf("%s: tableRows = %v, want %v", ctx, g, w)
			}
			for _, want := range ref.tables["eq"].indexes {
				ix := got.indexes[want.name]
				if ix == nil {
					t.Fatalf("%s: index %s missing", ctx, want.name)
				}
				if g, w := indexDump(ix), indexDump(want); g != w {
					t.Fatalf("%s: index %s order differs\ngot:\n%s\nwant:\n%s", ctx, want.name, g, w)
				}
				if g, w := fmt.Sprint(ix.stats.distinct), fmt.Sprint(want.stats.distinct); g != w {
					t.Fatalf("%s: index %s distinct = %s, want %s", ctx, want.name, g, w)
				}
				for k := 1; k <= len(want.cols); k++ {
					if g, w := stats.distinct(ix, k), stats.distinct(want, k); g != w {
						t.Fatalf("%s: stats.distinct(%s, %d) = %v, want %v", ctx, want.name, k, g, w)
					}
					if g, w := stats.eqRows(ix, k), stats.eqRows(want, k); g != w {
						t.Fatalf("%s: stats.eqRows(%s, %d) = %v, want %v", ctx, want.name, k, g, w)
					}
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
		verifyStats(t, transactional, fmt.Sprintf("seed %d, transactional", seed))
	}
}
