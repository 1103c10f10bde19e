package sqldb

import (
	"strings"
	"testing"
	"time"
)

func mustExec(t *testing.T, db *DB, sql string, args ...Value) Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, db *DB, sql string, args ...Value) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE files (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL UNIQUE,
		size INTEGER,
		score FLOAT,
		valid BOOLEAN,
		created DATETIME
	)`)
	return db
}

func TestCreateTableAndInsert(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db,
		"INSERT INTO files (name, size, valid) VALUES (?, 100, TRUE)", Text("a.dat"))
	if res.RowsAffected != 1 {
		t.Fatalf("RowsAffected = %d, want 1", res.RowsAffected)
	}
	if res.LastInsertID != 1 {
		t.Fatalf("LastInsertID = %d, want 1", res.LastInsertID)
	}
	res = mustExec(t, db,
		"INSERT INTO files (name, size) VALUES (?, 200), (?, 300)", Text("b.dat"), Text("c.dat"))
	if res.RowsAffected != 2 || res.LastInsertID != 3 {
		t.Fatalf("multi-insert got %+v", res)
	}
}

// TestCreateTableIfNotExists: creating a table that exists is an error, and
// the dialect has no IF NOT EXISTS to turn it into a no-op.
func TestCreateTableIfNotExists(t *testing.T) {
	db := newTestDB(t)
	for _, ddl := range []string{"CREATE TABLE files (id INTEGER)", "CREATE TABLE IF NOT EXISTS files (id INTEGER)"} {
		if _, err := db.Exec(ddl); err == nil {
			t.Fatalf("%q did not fail", ddl)
		}
	}
	if n, _ := db.RowCount("files"); n != 0 {
		t.Fatalf("files has %d rows", n)
	}
}

func TestInsertTypeChecking(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("INSERT INTO files (name, size) VALUES (?, ?)", Text("x"), Text("not a number")); err == nil {
		t.Fatal("type mismatch insert did not fail")
	}
	if _, err := db.Exec("INSERT INTO files (size) VALUES (1)"); err == nil {
		t.Fatal("NOT NULL violation did not fail")
	}
	if _, err := db.Exec("INSERT INTO files (name, nosuch) VALUES (?, 1)", Text("x")); err == nil {
		t.Fatal("unknown column did not fail")
	}
	// int -> float widening is allowed
	mustExec(t, db, "INSERT INTO files (name, score) VALUES (?, 3)", Text("w"))
	rows := mustQuery(t, db, "SELECT score FROM files WHERE name = ?", Text("w"))
	if rows.Data[0][0].T != TypeFloat || rows.Data[0][0].Float() != 3 {
		t.Fatalf("widened value = %v", rows.Data[0][0])
	}
}

func TestUniqueConstraint(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO files (name) VALUES (?)", Text("dup"))
	if _, err := db.Exec("INSERT INTO files (name) VALUES (?)", Text("dup")); err == nil {
		t.Fatal("UNIQUE violation did not fail")
	}
	// After the failure the table must still be consistent.
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM files")
	if rows.Data[0][0].Int() != 1 {
		t.Fatalf("row count after failed insert = %v", rows.Data[0][0])
	}
	mustExec(t, db, "INSERT INTO files (name) VALUES (?)", Text("ok"))
}

func TestSelectWhereOperators(t *testing.T) {
	db := newTestDB(t)
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, ?)",
			Text(name), Int(int64(i*10)))
	}
	cases := []struct {
		where string
		args  []Value
		want  int
	}{
		{"size = 20", nil, 1},
		{"size != 20", nil, 4},
		{"size < 20", nil, 2},
		{"size <= 20", nil, 3},
		{"size > 20", nil, 2},
		{"size >= 20", nil, 3},
		{"size > 10 AND size < 40", nil, 2},
		{"size < 10 OR size > 30", nil, 2},
		{"name IN (?, ?, ?)", []Value{Text("a"), Text("c"), Text("zzz")}, 2},
		{"name LIKE ?", []Value{Text("a%")}, 1},
		{"name LIKE ?", []Value{Text("%")}, 5},
		{"score = ?", []Value{Null()}, 0},
		{"20 = size", nil, 1},
		{"20 <= size", nil, 3},
	}
	for _, c := range cases {
		rows := mustQuery(t, db, "SELECT id FROM files WHERE "+c.where, c.args...)
		if len(rows.Data) != c.want {
			t.Errorf("WHERE %s returned %d rows, want %d", c.where, len(rows.Data), c.want)
		}
	}
}

func TestSelectProjection(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, 7)", Text("x"))
	rows := mustQuery(t, db, "SELECT name, size FROM files")
	if len(rows.Columns) != 2 || rows.Columns[0] != "name" || rows.Columns[1] != "size" {
		t.Fatalf("Columns = %v", rows.Columns)
	}
	if rows.Data[0][0].S != "x" || rows.Data[0][1].Int() != 7 {
		t.Fatalf("Data = %v", rows.Data)
	}
	expr := mustQuery(t, db, "SELECT files.size, size = 7 FROM files")
	if expr.Columns[0] != "size" || expr.Columns[1] != "(size = 7)" || !expr.Data[0][1].Bool() {
		t.Fatalf("expression columns = %v, data = %v", expr.Columns, expr.Data)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := newTestDB(t)
	for _, n := range []int{5, 3, 9, 1, 7} {
		mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, ?)",
			Text(strings.Repeat("x", n)), Int(int64(n)))
	}
	rows := mustQuery(t, db, "SELECT size FROM files ORDER BY size")
	got := []int64{}
	for _, r := range rows.Data {
		got = append(got, r[0].Int())
	}
	want := []int64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ORDER BY ASC = %v", got)
		}
	}
	rows = mustQuery(t, db, "SELECT size FROM files ORDER BY size DESC LIMIT 2")
	if len(rows.Data) != 2 || rows.Data[0][0].Int() != 9 || rows.Data[1][0].Int() != 7 {
		t.Fatalf("ORDER BY DESC LIMIT = %v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT size FROM files ORDER BY size LIMIT 10")
	if len(rows.Data) != 5 {
		t.Fatalf("LIMIT past the end = %v", rows.Data)
	}
	// The catalog pages by key (name > ?), never by offset.
	if _, err := db.Query("SELECT size FROM files ORDER BY size LIMIT 2 OFFSET 1"); err == nil {
		t.Fatal("OFFSET accepted")
	}
}

func TestCountStar(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 4; i++ {
		mustExec(t, db, "INSERT INTO files (name) VALUES (?)", Text(strings.Repeat("a", i+1)))
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM files")
	if rows.Data[0][0].Int() != 4 {
		t.Fatalf("COUNT(*) = %v", rows.Data[0][0])
	}
	rows = mustQuery(t, db, "SELECT COUNT(*) FROM files WHERE name = ?", Text("a"))
	if rows.Columns[0] != "count" || rows.Data[0][0].Int() != 1 {
		t.Fatalf("COUNT(*) WHERE = %v %v", rows.Columns, rows.Data)
	}
}

func TestDistinctValues(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	for _, v := range []int64{1, 2, 2, 3, 3, 3} {
		mustExec(t, db, "INSERT INTO t (a, b) VALUES (?, ?)", Int(v), Text("x"))
	}
	rows := mustQuery(t, db, "SELECT DISTINCT a FROM t ORDER BY a")
	if len(rows.Data) != 3 {
		t.Fatalf("DISTINCT returned %d rows", len(rows.Data))
	}
}

func TestUpdate(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, 1), (?, 2), (?, 3)", Text("a"), Text("b"), Text("c"))
	res := mustExec(t, db, "UPDATE files SET size = 99, valid = TRUE WHERE size >= 2")
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM files WHERE size = 99")
	if rows.Data[0][0].Int() != 2 {
		t.Fatalf("updated count = %v", rows.Data[0][0])
	}
	// Update through an indexed column keeps the index coherent.
	mustExec(t, db, "UPDATE files SET name = ? WHERE name = ?", Text("renamed"), Text("a"))
	rows = mustQuery(t, db, "SELECT size FROM files WHERE name = ?", Text("renamed"))
	if len(rows.Data) != 1 || rows.Data[0][0].Int() != 1 {
		t.Fatalf("post-rename lookup = %v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT id FROM files WHERE name = ?", Text("a"))
	if len(rows.Data) != 0 {
		t.Fatal("old index entry still visible")
	}
}

func TestUpdateUniqueViolation(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO files (name) VALUES (?), (?)", Text("a"), Text("b"))
	if _, err := db.Exec("UPDATE files SET name = ? WHERE name = ?", Text("a"), Text("b")); err == nil {
		t.Fatal("UPDATE causing UNIQUE violation did not fail")
	}
	// b must be intact.
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM files WHERE name = ?", Text("b"))
	if rows.Data[0][0].Int() != 1 {
		t.Fatal("row lost after failed update")
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, 1), (?, 2), (?, 3)", Text("a"), Text("b"), Text("c"))
	res := mustExec(t, db, "DELETE FROM files WHERE size > 1")
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	rows := mustQuery(t, db, "SELECT name FROM files")
	if len(rows.Data) != 1 || rows.Data[0][0].S != "a" {
		t.Fatalf("remaining = %v", rows.Data)
	}
	// Deleting and re-inserting the same unique value must work.
	mustExec(t, db, "DELETE FROM files WHERE name = ?", Text("a"))
	mustExec(t, db, "INSERT INTO files (name) VALUES (?)", Text("a"))
}

func TestParameters(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO files (name, size, created) VALUES (?, ?, ?)",
		Text("p"), Int(42), Time(time.Date(2003, 11, 15, 0, 0, 0, 0, time.UTC)))
	rows := mustQuery(t, db, "SELECT created FROM files WHERE name = ? AND size = ?",
		Text("p"), Int(42))
	if len(rows.Data) != 1 {
		t.Fatalf("param query returned %d rows", len(rows.Data))
	}
	if rows.Data[0][0].Time().Year() != 2003 {
		t.Fatalf("datetime round trip = %v", rows.Data[0][0])
	}
	if _, err := db.Query("SELECT id FROM files WHERE name = ?"); err == nil {
		t.Fatal("missing parameter did not fail")
	}
}

func TestDatetimeCoercionFromText(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO files (name, created) VALUES (?, ?)", Text("t"), Text("2003-11-15 12:30:00"))
	rows := mustQuery(t, db, "SELECT created FROM files WHERE name = ?", Text("t"))
	if got := rows.Data[0][0].Time(); got.Month() != time.November || got.Hour() != 12 {
		t.Fatalf("parsed datetime = %v", got)
	}
	if _, err := db.Exec("INSERT INTO files (name, created) VALUES (?, ?)", Text("u"), Text("not a date")); err == nil {
		t.Fatal("bad datetime literal did not fail")
	}
}

func TestJoinInner(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE c (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT)")
	mustExec(t, db, "CREATE TABLE f (id INTEGER PRIMARY KEY AUTOINCREMENT, cid INTEGER, name TEXT)")
	mustExec(t, db, "CREATE INDEX f_cid ON f (cid)")
	mustExec(t, db, "INSERT INTO c (name) VALUES (?), (?)", Text("col1"), Text("col2"))
	mustExec(t, db, "INSERT INTO f (cid, name) VALUES (1, ?), (1, ?), (2, ?)", Text("a"), Text("b"), Text("c"))
	rows := mustQuery(t, db, `SELECT f.name, c.name FROM f JOIN c ON c.id = f.cid
		WHERE c.name = ? ORDER BY f.name`, Text("col1"))
	if len(rows.Data) != 2 || rows.Data[0][0].S != "a" || rows.Data[1][0].S != "b" {
		t.Fatalf("join result = %v", rows.Data)
	}
}

func TestJoinSelf(t *testing.T) {
	// The EAV complex-query shape: N-way self join on object_id.
	db := New()
	mustExec(t, db, "CREATE TABLE attr (oid INTEGER, k TEXT, v TEXT)")
	mustExec(t, db, "CREATE INDEX attr_kv ON attr (k, v)")
	mustExec(t, db, "CREATE INDEX attr_oid ON attr (oid)")
	for oid := 1; oid <= 50; oid++ {
		for k := 0; k < 5; k++ {
			val := "common"
			if oid%10 == 0 && k == 2 {
				val = "rare"
			}
			mustExec(t, db, "INSERT INTO attr (oid, k, v) VALUES (?, ?, ?)",
				Int(int64(oid)), Text(string(rune('a'+k))), Text(val))
		}
	}
	rows := mustQuery(t, db, `SELECT a0.oid FROM attr a0
		JOIN attr a1 ON a1.oid = a0.oid
		WHERE a0.k = ? AND a0.v = ? AND a1.k = ? AND a1.v = ?
		ORDER BY a0.oid`, Text("c"), Text("rare"), Text("a"), Text("common"))
	if len(rows.Data) != 5 {
		t.Fatalf("self-join returned %d rows, want 5: %v", len(rows.Data), rows.Data)
	}
}

func TestExplainIndexSelection(t *testing.T) {
	db := newTestDB(t)
	plan, err := db.Explain("SELECT id FROM files WHERE name = ?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(plan, "index-eq") {
		t.Fatalf("name equality plan = %s, want index-eq", plan)
	}
	plan, _ = db.Explain("SELECT id FROM files WHERE size = 3")
	if plan != "full-scan(files)" {
		t.Fatalf("unindexed plan = %s", plan)
	}
	mustExec(t, db, "CREATE INDEX files_size ON files (size)")
	plan, _ = db.Explain("SELECT id FROM files WHERE size = 3")
	if !strings.HasPrefix(plan, "index-eq") {
		t.Fatalf("indexed plan = %s", plan)
	}
	plan, _ = db.Explain("SELECT id FROM files WHERE size > 3")
	if !strings.HasPrefix(plan, "index-range") {
		t.Fatalf("range plan = %s", plan)
	}
	plan, _ = db.Explain("SELECT id FROM files WHERE size > 3 AND name = ?")
	if !strings.HasPrefix(plan, "index-eq") {
		t.Fatalf("mixed plan = %s, want equality to win", plan)
	}
}

func TestIndexRangeScanCorrectness(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (v INTEGER)")
	mustExec(t, db, "CREATE INDEX t_v ON t (v)")
	for i := 0; i < 100; i++ {
		mustExec(t, db, "INSERT INTO t (v) VALUES (?)", Int(int64(i)))
	}
	for _, c := range []struct {
		where string
		want  int
	}{
		{"v >= 90", 10},
		{"v > 90", 9},
		{"v <= 9", 10},
		{"v < 9", 9},
		{"v >= 10 AND v < 20", 10},
		{"v > 98 AND v < 1", 0},
	} {
		rows := mustQuery(t, db, "SELECT v FROM t WHERE "+c.where)
		if len(rows.Data) != c.want {
			t.Errorf("WHERE %s: %d rows, want %d", c.where, len(rows.Data), c.want)
		}
	}
}

func TestCompositeIndexPrefix(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a TEXT, b INTEGER, c TEXT)")
	mustExec(t, db, "CREATE INDEX t_ab ON t (a, b)")
	for i := 0; i < 30; i++ {
		mustExec(t, db, "INSERT INTO t (a, b, c) VALUES (?, ?, ?)",
			Text(string(rune('a'+i%3))), Int(int64(i)), Text("z"))
	}
	rows := mustQuery(t, db, "SELECT c FROM t WHERE a = ? AND b = 10", Text("b"))
	if len(rows.Data) != 1 {
		t.Fatalf("(a,b) lookup = %d rows", len(rows.Data))
	}
	// Prefix-only use of the composite index.
	rows = mustQuery(t, db, "SELECT c FROM t WHERE a = ?", Text("b"))
	if len(rows.Data) != 10 {
		t.Fatalf("prefix lookup = %d rows, want 10", len(rows.Data))
	}
	plan, _ := db.Explain("SELECT c FROM t WHERE a = ?")
	if !strings.HasPrefix(plan, "index-eq") {
		t.Fatalf("prefix plan = %s", plan)
	}
}

func TestTransactionCommit(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO files (name) VALUES (?)", Text("in-tx")); err != nil {
		t.Fatal(err)
	}
	rows, err := tx.Query("SELECT COUNT(*) FROM files")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int() != 1 {
		t.Fatal("tx does not see its own write")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows = mustQuery(t, db, "SELECT COUNT(*) FROM files")
	if rows.Data[0][0].Int() != 1 {
		t.Fatal("committed write lost")
	}
	if err := tx.Commit(); err != ErrTxDone {
		t.Fatalf("double commit err = %v", err)
	}
}

func TestTransactionRollback(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, 1)", Text("keep"))
	tx := db.Begin()
	tx.Exec("INSERT INTO files (name) VALUES (?)", Text("tmp"))                //nolint:errcheck
	tx.Exec("UPDATE files SET size = 999 WHERE name = ?", Text("keep"))        //nolint:errcheck
	tx.Exec("DELETE FROM files WHERE name = ?", Text("keep"))                  //nolint:errcheck
	tx.Exec("INSERT INTO files (name, size) VALUES (?, 123)", Text("another")) //nolint:errcheck
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, "SELECT name, size FROM files")
	if len(rows.Data) != 1 || rows.Data[0][0].S != "keep" || rows.Data[0][1].Int() != 1 {
		t.Fatalf("post-rollback state = %v", rows.Data)
	}
	// Indexes must also be restored: lookup by name must work.
	rows = mustQuery(t, db, "SELECT size FROM files WHERE name = ?", Text("keep"))
	if len(rows.Data) != 1 {
		t.Fatal("index entry lost across rollback")
	}
	rows = mustQuery(t, db, "SELECT size FROM files WHERE name = ?", Text("tmp"))
	if len(rows.Data) != 0 {
		t.Fatal("rolled-back insert visible via index")
	}
}

func TestUpdateHelper(t *testing.T) {
	db := newTestDB(t)
	err := db.Update(func(tx *Tx) error {
		_, err := tx.Exec("INSERT INTO files (name) VALUES (?)", Text("u"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	errBoom := db.Update(func(tx *Tx) error {
		tx.Exec("INSERT INTO files (name) VALUES (?)", Text("boom")) //nolint:errcheck
		return ErrTxDone                                             // any error triggers rollback
	})
	if errBoom == nil {
		t.Fatal("Update swallowed the error")
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM files")
	if rows.Data[0][0].Int() != 1 {
		t.Fatalf("rows after mixed Update calls = %v", rows.Data[0][0])
	}
}

func TestDDLInsideTxRejected(t *testing.T) {
	db := New()
	tx := db.Begin()
	defer tx.Rollback() //nolint:errcheck
	if _, err := tx.Exec("CREATE TABLE nope (id INTEGER)"); err == nil {
		t.Fatal("DDL inside tx did not fail")
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, 0)", Text("x"))
	done := make(chan error, 9)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 200; j++ {
				if _, err := db.Query("SELECT size FROM files WHERE name = ?", Text("x")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	go func() {
		for j := 0; j < 200; j++ {
			if _, err := db.Exec("UPDATE files SET size = ? WHERE name = ?", Int(int64(j)), Text("x")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 9; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPreparedStatements: the statement cache is the engine's prepared
// statement, as the JDBC cache was the original server's — a text is parsed
// once and every later Exec or Query of it, with any arguments, reuses the
// parse.
func TestPreparedStatements(t *testing.T) {
	db := newTestDB(t)
	const ins, sel = "INSERT INTO files (name, size) VALUES (?, ?)", "SELECT name FROM files WHERE size = ?"
	for i := 0; i < 10; i++ {
		mustExec(t, db, ins, Text(string(rune('a'+i))), Int(int64(i)))
	}
	cached := func(sql string) Statement {
		db.stmtMu.RLock()
		defer db.stmtMu.RUnlock()
		return db.stmtCache[sql]
	}
	parsed := cached(ins)
	if parsed == nil {
		t.Fatal("INSERT not cached")
	}
	mustExec(t, db, ins, Text("k"), Int(10))
	if cached(ins) != parsed {
		t.Fatal("a repeated INSERT was parsed again")
	}
	rows := mustQuery(t, db, sel, Int(7))
	if len(rows.Data) != 1 || rows.Data[0][0].S != "h" || cached(sel) == nil {
		t.Fatalf("cached query = %v", rows.Data)
	}
}

func TestErrorMessages(t *testing.T) {
	db := New()
	for _, bad := range []string{
		"SELEC a FROM t",
		"SELECT a FROM",
		"INSERT INTO t (a) VALUES",
		"CREATE TABLE t (x NOTATYPE)",
		"SELECT a FROM nosuch",
		"SELECT nosuchcol FROM t2",
	} {
		if _, err := db.Query(bad); err == nil {
			if _, err2 := db.Exec(bad); err2 == nil {
				t.Errorf("statement %q did not fail", bad)
			}
		}
	}
}

func TestQueryRequiresSelect(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Query("DELETE FROM files"); err == nil {
		t.Fatal("Query accepted DELETE")
	}
	// And the converse: Exec would discard a SELECT's rows, so it refuses it.
	if _, err := db.Exec("SELECT id FROM files"); err == nil {
		t.Fatal("Exec accepted SELECT")
	}
	if err := db.Update(func(tx *Tx) error {
		_, err := tx.Exec("SELECT id FROM files")
		return err
	}); err == nil {
		t.Fatal("Tx.Exec accepted SELECT")
	}
}
