package sqldb

import (
	"fmt"
	"testing"
	"time"
)

// Join and planner edge cases beyond the basics in db_test.go.

func setupJoinDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, db, "CREATE TABLE emp (id INTEGER PRIMARY KEY, did INTEGER, name TEXT, salary INTEGER)")
	mustExec(t, db, "CREATE INDEX emp_did ON emp (did)")
	mustExec(t, db, "INSERT INTO dept (id, name) VALUES (1, ?), (2, ?), (3, ?)",
		Text("eng"), Text("ops"), Text("empty"))
	mustExec(t, db, `INSERT INTO emp (id, did, name, salary) VALUES
		(10, 1, ?, 120), (11, 1, ?, 100), (12, 2, ?, 90), (13, ?, ?, 80)`,
		Text("ann"), Text("bob"), Text("cat"), Null(), Text("dee"))
	return db
}

func TestJoinThreeWay(t *testing.T) {
	t.Parallel()
	db := setupJoinDB(t)
	mustExec(t, db, "CREATE TABLE badge (eid INTEGER, code TEXT)")
	mustExec(t, db, "CREATE INDEX badge_eid ON badge (eid)")
	mustExec(t, db, "INSERT INTO badge (eid, code) VALUES (10, ?), (11, ?), (12, ?)",
		Text("A-1"), Text("B-2"), Text("C-3"))
	rows := mustQuery(t, db, `SELECT d.name, e.name, b.code
		FROM dept d JOIN emp e ON e.did = d.id JOIN badge b ON b.eid = e.id
		WHERE d.name = ? ORDER BY e.name`, Text("eng"))
	if len(rows.Data) != 2 {
		t.Fatalf("3-way join rows = %v", rows.Data)
	}
	if rows.Data[0][1].S != "ann" || rows.Data[0][2].S != "A-1" {
		t.Fatalf("3-way join first row = %v", rows.Data[0])
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	t.Parallel()
	db := setupJoinDB(t)
	// dee has NULL did: must not join to any department.
	rows := mustQuery(t, db, "SELECT e.name FROM emp e JOIN dept d ON d.id = e.did")
	if len(rows.Data) != 3 {
		t.Fatalf("null-key join rows = %d, want 3", len(rows.Data))
	}
	// Nor through the nested executor: a TEXT key leaves intersection out.
	mustExec(t, db, "CREATE TABLE nick (name TEXT, nick TEXT)")
	mustExec(t, db, "INSERT INTO nick (name, nick) VALUES (?, ?), (?, ?)", Text("ann"), Text("a"), Null(), Text("nobody"))
	rows = mustQuery(t, db, "SELECT e.name, n.nick FROM emp e JOIN nick n ON n.name = e.name")
	if len(rows.Data) != 1 || rows.Data[0][1].S != "a" {
		t.Fatalf("null-key nested join rows = %v", rows.Data)
	}
}

func TestJoinPredicatePushdown(t *testing.T) {
	t.Parallel()
	// A predicate on the joined table must prune before later stages: with
	// pushdown this query touches few intermediate rows; without it, the
	// cross product would still give the right answer but the per-stage
	// filters are what keeps the EAV self-join tractable. Correctness check:
	db := New()
	mustExec(t, db, "CREATE TABLE kv (oid INTEGER, k TEXT, v INTEGER)")
	mustExec(t, db, "CREATE INDEX kv_oid ON kv (oid)")
	mustExec(t, db, "CREATE INDEX kv_kv ON kv (k, v)")
	for oid := 1; oid <= 30; oid++ {
		for k := 0; k < 4; k++ {
			mustExec(t, db, "INSERT INTO kv (oid, k, v) VALUES (?, ?, ?)",
				Int(int64(oid)), Text(fmt.Sprintf("k%d", k)), Int(int64(oid%5)))
		}
	}
	rows := mustQuery(t, db, `SELECT DISTINCT a.oid FROM kv a
		JOIN kv b ON b.oid = a.oid
		JOIN kv c ON c.oid = a.oid
		WHERE a.k = ? AND a.v = 2 AND b.k = ? AND b.v = 2 AND c.k = ? AND c.v = 2
		ORDER BY a.oid`, Text("k0"), Text("k1"), Text("k2"))
	// oids with oid%5==2: 2,7,12,17,22,27 -> 6 rows.
	if len(rows.Data) != 6 {
		t.Fatalf("EAV 3-way self-join = %d rows: %v", len(rows.Data), rows.Data)
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	t.Parallel()
	db := setupJoinDB(t)
	rows := mustQuery(t, db, "SELECT did, name FROM emp WHERE did > 0 ORDER BY did DESC, name ASC")
	want := [][2]string{{"2", "cat"}, {"1", "ann"}, {"1", "bob"}}
	for i, w := range want {
		if rows.Data[i][0].String() != w[0] || rows.Data[i][1].S != w[1] {
			t.Fatalf("row %d = %v, want %v", i, rows.Data[i], w)
		}
	}
}

func TestOrderByJoinedColumn(t *testing.T) {
	t.Parallel()
	db := setupJoinDB(t)
	rows := mustQuery(t, db,
		"SELECT e.name FROM emp e JOIN dept d ON d.id = e.did ORDER BY d.name DESC, e.salary")
	// ops(cat), then eng by salary asc: bob(100), ann(120).
	got := []string{rows.Data[0][0].S, rows.Data[1][0].S, rows.Data[2][0].S}
	if got[0] != "cat" || got[1] != "bob" || got[2] != "ann" {
		t.Fatalf("order = %v", got)
	}
}

func TestInWithParams(t *testing.T) {
	t.Parallel()
	db := setupJoinDB(t)
	rows := mustQuery(t, db, "SELECT name FROM emp WHERE salary IN (?, ?) ORDER BY name",
		Int(100), Int(90))
	if len(rows.Data) != 2 || rows.Data[0][0].S != "bob" || rows.Data[1][0].S != "cat" {
		t.Fatalf("IN params = %v", rows.Data)
	}
}

func TestSelectExpressionProjection(t *testing.T) {
	t.Parallel()
	db := setupJoinDB(t)
	rows := mustQuery(t, db, "SELECT salary >= 100 FROM emp WHERE name = ?", Text("ann"))
	if rows.Columns[0] != "(salary >= 100)" || !rows.Data[0][0].Bool() {
		t.Fatalf("expr projection = %v %v", rows.Columns, rows.Data)
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	t.Parallel()
	db := setupJoinDB(t)
	if _, err := db.Query("SELECT name FROM dept d JOIN emp e ON e.did = d.id"); err == nil {
		t.Fatal("ambiguous unqualified column accepted")
	}
	if _, err := db.Query("SELECT d.id FROM dept d JOIN dept d ON d.id = d.id"); err == nil {
		t.Fatal("duplicate alias accepted")
	}
	// Names resolve when the statement compiles, so the join is refused
	// over empty tables too, where no row ever reaches the projection.
	empty := New()
	mustExec(t, empty, "CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, empty, "CREATE TABLE emp (id INTEGER PRIMARY KEY, did INTEGER, name TEXT)")
	for _, q := range []string{
		"SELECT name FROM dept d JOIN emp e ON e.did = d.id",
		"SELECT d.id FROM dept d JOIN emp e ON e.did = d.id WHERE name = ?",
	} {
		_, err := empty.Query(q, Text("x"))
		if want := `sqldb: ambiguous column "name"`; err == nil || err.Error() != want {
			t.Fatalf("%s over empty tables: err = %v, want %s", q, err, want)
		}
	}
}

// TestNameErrorsAtCompile holds each unresolvable column name to the error
// it gave when names were looked up row by row, now that it comes when the
// statement compiles: before any row is read, so also where no row would
// ever have reached the name.
func TestNameErrorsAtCompile(t *testing.T) {
	t.Parallel()
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)")
	for _, tc := range []struct{ sql, want string }{
		{"SELECT nosuch FROM t", `sqldb: unknown column "nosuch"`},
		{"SELECT t.nosuch FROM t", `sqldb: no column "nosuch" in table "t"`},
		{"SELECT x.a FROM t", `sqldb: unknown table alias "x"`},
		{"SELECT a FROM t ORDER BY nosuch", `sqldb: unknown column "nosuch"`},
		{"SELECT a FROM t WHERE t.nosuch = ?", `sqldb: no column "nosuch" in table "t"`},
		{"SELECT a FROM t WHERE nosuch = ?", `sqldb: unresolvable predicate (nosuch = ?)`},
		{"SELECT a FROM t WHERE x.a = ?", `sqldb: unresolvable predicate (x.a = ?)`},
	} {
		if _, err := db.Query(tc.sql, Int(1)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.sql, err, tc.want)
		}
	}
	for _, tc := range []struct{ sql, want string }{
		{"UPDATE t SET nosuch = 1 WHERE id = ?", `sqldb: no column "nosuch" in table "t"`},
		{"UPDATE t SET a = nosuch WHERE id = ?", `sqldb: unknown column "nosuch"`},
		{"DELETE FROM t WHERE nosuch = ?", `sqldb: unresolvable predicate (nosuch = ?)`},
		{"INSERT INTO t (id, nosuch) VALUES (?, 1)", `sqldb: no column "nosuch" in table "t"`},
	} {
		if _, err := db.Exec(tc.sql, Int(1)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.sql, err, tc.want)
		}
	}
}

func TestDatetimeRangePlan(t *testing.T) {
	t.Parallel()
	db := New()
	mustExec(t, db, "CREATE TABLE ev (at DATETIME)")
	mustExec(t, db, "CREATE INDEX ev_at ON ev (at)")
	base := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		mustExec(t, db, "INSERT INTO ev (at) VALUES (?)", Time(base.AddDate(0, 0, i)))
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM ev WHERE at >= ? AND at < ?",
		Time(base.AddDate(0, 0, 10)), Time(base.AddDate(0, 0, 20)))
	if rows.Data[0][0].Int() != 10 {
		t.Fatalf("datetime range count = %v", rows.Data[0][0])
	}
	plan, err := db.Explain("SELECT at FROM ev WHERE at >= ?")
	if err != nil {
		t.Fatal(err)
	}
	if plan != "index-range(ev_at)" {
		t.Fatalf("plan = %s", plan)
	}
}

func TestStatementCacheTransparency(t *testing.T) {
	t.Parallel()
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	// Same text, different params: cache must not leak parameter state.
	for i := 0; i < 100; i++ {
		mustExec(t, db, "INSERT INTO t (a) VALUES (?)", Int(int64(i)))
	}
	for i := 0; i < 100; i++ {
		rows := mustQuery(t, db, "SELECT a FROM t WHERE a = ?", Int(int64(i)))
		if len(rows.Data) != 1 || rows.Data[0][0].Int() != int64(i) {
			t.Fatalf("cached statement wrong result at %d: %v", i, rows.Data)
		}
	}
	// DDL after caching: a new index must not serve a stale cached plan.
	mustExec(t, db, "CREATE INDEX t_a ON t (a)")
	rows := mustQuery(t, db, "SELECT a FROM t WHERE a = ?", Int(7))
	if plan, _ := db.Explain("SELECT a FROM t WHERE a = ?"); len(rows.Data) != 1 || plan != "index-eq(t_a)" {
		t.Fatalf("after CREATE INDEX: rows %v, plan %s", rows.Data, plan)
	}
}

func TestUpdateWithExpressionOfOldValue(t *testing.T) {
	t.Parallel()
	db := setupJoinDB(t)
	// SET salary = salary is an identity write; verifies old-row env binding.
	res := mustExec(t, db, "UPDATE emp SET salary = salary WHERE did = 1")
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	rows := mustQuery(t, db, "SELECT salary FROM emp WHERE name = ?", Text("ann"))
	if rows.Data[0][0].Int() != 120 {
		t.Fatalf("identity update changed value: %v", rows.Data)
	}
}
