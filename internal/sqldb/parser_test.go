package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

func TestLexBasic(t *testing.T) {
	toks, err := lex("SELECT a, b FROM t WHERE x = ? AND y >= 35 AND z != TRUE\n LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tok := range toks {
		got = append(got, fmt.Sprintf("%d:%s", tok.kind, tok.text))
	}
	want := fmt.Sprintf("%d:SELECT %d:a %d:, %d:b %d:FROM %d:t %d:WHERE %d:x %d:= %d:? %d:AND %d:y %d:>= %d:35 "+
		"%d:AND %d:z %d:!= %d:TRUE %d:LIMIT %d:2 %d:",
		tokKeyword, tokIdent, tokSymbol, tokIdent, tokKeyword, tokIdent, tokKeyword, tokIdent, tokSymbol, tokParam,
		tokKeyword, tokIdent, tokSymbol, tokNumber, tokKeyword, tokIdent, tokSymbol, tokKeyword, tokKeyword, tokNumber, tokEOF)
	if strings.Join(got, " ") != want {
		t.Fatalf("tokens:\n  got  %s\n  want %s", strings.Join(got, " "), want)
	}
}

func TestLexErrors(t *testing.T) {
	// String literals and line comments are not part of the dialect: the
	// catalog binds every value as a parameter.
	for _, src := range []string{"SELECT @", "SELECT a FROM t WHERE b = 'x'", "SELECT a FROM t -- c", "SELECT a; "} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) did not fail", src)
		}
	}
}

// TestLexNumbers: a number is a run of digits; a dot or an exponent ends it.
func TestLexNumbers(t *testing.T) {
	toks, err := lex("1 25 2.5 1e3")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tok := range toks {
		got = append(got, tok.text)
	}
	if want := "1 25 2 . 5 1 e3 "; strings.Join(got, " ") != want {
		t.Fatalf("tokens %q, want %q", strings.Join(got, " "), want)
	}
	if toks[1].kind != tokNumber || toks[3].kind != tokSymbol || toks[6].kind != tokIdent {
		t.Fatalf("token kinds: %+v", toks)
	}
}

func TestParseSelectShape(t *testing.T) {
	st, err := Parse(`SELECT DISTINCT f.name, f.size FROM files f
		JOIN attrs a ON a.fid = f.id
		JOIN extra e ON e.fid = f.id
		WHERE f.size > 10 AND a.k = ? OR f.valid = TRUE
		ORDER BY f.name DESC, f.size LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if !sel.Distinct || len(sel.Items) != 2 || len(sel.Joins) != 2 {
		t.Fatalf("parsed shape: %+v", sel)
	}
	if sel.Count || exprString(sel.Items[1]) != "f.size" {
		t.Fatalf("items: %+v", sel.Items)
	}
	if sel.Joins[1].Table.Alias != "e" || exprString(sel.Joins[1].On) != "(e.fid = f.id)" {
		t.Fatalf("joins: %+v", sel.Joins)
	}
	if got := exprString(sel.Where); got != "(((f.size > 10) AND (a.k = ?)) OR (f.valid = TRUE))" {
		t.Fatalf("where: %s", got)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("order by: %+v", sel.OrderBy)
	}
	if sel.Limit != 5 {
		t.Fatalf("limit: %d", sel.Limit)
	}
}

func TestParseTableAlias(t *testing.T) {
	st, err := Parse("SELECT f.id FROM files f WHERE f.id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*SelectStmt).From.Alias != "f" {
		t.Fatal("bare alias not applied")
	}
	st, err = Parse("SELECT id FROM files")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*SelectStmt).From.Alias != "files" {
		t.Fatal("an unaliased table is not its own alias")
	}
}

func TestParseParamNumbering(t *testing.T) {
	st, err := Parse("SELECT a FROM t WHERE a = ? AND b = ? AND c IN (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	// Count Param indexes: must be 0..3 in order.
	var idxs []int
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Param:
			idxs = append(idxs, x.Index)
		case *BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *InExpr:
			walk(x.E)
			for _, it := range x.List {
				walk(it)
			}
		}
	}
	walk(st.(*SelectStmt).Where)
	if len(idxs) != 4 {
		t.Fatalf("param count = %d", len(idxs))
	}
	for i, idx := range idxs {
		if idx != i {
			t.Fatalf("param %d numbered %d", i, idx)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	st, err := Parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	// Must parse as a=1 OR (b=2 AND c=3)
	or := st.(*SelectStmt).Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top op = %s", or.Op)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right side = %s", exprString(or.R))
	}
	// Parenthesized override
	st, _ = Parse("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3")
	and2 := st.(*SelectStmt).Where.(*BinaryExpr)
	if and2.Op != "AND" {
		t.Fatalf("paren top op = %s", and2.Op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GARBAGE TRAILING",
		"INSERT INTO t (a VALUES (1)",
		"CREATE UNIQUE TABLE t (a INTEGER)",
		"UPDATE t SET WHERE a = 1",
		"DELETE t WHERE a = 1",
		"CREATE INDEX i ON t ()",
		"SELECT a FROM t LIMIT xyz",
		"SELECT a FROM t WHERE a LIKE",
		"SELECT a FROM t WHERE a = 99999999999999999999",
		"CREATE TABLE t (a TEXT AUTOINCREMENT)",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) did not fail", sql)
		}
	}
}

func TestParseErrorIncludesSQL(t *testing.T) {
	_, err := Parse("SELECT a FROM t WHERE ???")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "SELECT a FROM t") {
		t.Fatalf("error lacks statement context: %v", err)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	st, err := Parse("INSERT INTO t (a, b) VALUES (1, TRUE), (2, ?), (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if len(ins.Rows) != 3 || len(ins.Columns) != 2 {
		t.Fatalf("insert shape: %+v", ins)
	}
}

func TestParseColumnConstraints(t *testing.T) {
	st, err := Parse(`CREATE TABLE t (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL UNIQUE,
		v FLOAT)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if !ct.Columns[0].PrimaryKey || !ct.Columns[0].AutoIncrement || !ct.Columns[0].NotNull {
		t.Fatalf("id constraints: %+v", ct.Columns[0])
	}
	if !ct.Columns[1].NotNull || !ct.Columns[1].Unique {
		t.Fatalf("name constraints: %+v", ct.Columns[1])
	}
}

// TestRemovedSyntaxRefused: the dialect is exactly what the catalog issues.
// Every SQL form outside it — each of which an earlier version of the engine
// accepted — is a parse error, so it can never run and return a result.
func TestRemovedSyntaxRefused(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)")
	mustExec(t, db, "CREATE TABLE u (id INTEGER PRIMARY KEY, tid INTEGER)")
	mustExec(t, db, "CREATE INDEX t_a ON t (a)")
	mustExec(t, db, "INSERT INTO t (id, a, b) VALUES (1, 1, ?), (2, ?, ?)", Text("x"), Null(), Text("y"))
	mustExec(t, db, "INSERT INTO u (id, tid) VALUES (1, 1)")
	for _, sql := range []string{
		"DROP TABLE t",
		"DROP INDEX t_a",
		"CREATE TABLE IF NOT EXISTS t (id INTEGER)",
		"CREATE INDEX IF NOT EXISTS t_a ON t (a)",
		"CREATE UNIQUE INDEX t_b ON t (b)",
		"SELECT t.a FROM t LEFT JOIN u ON u.tid = t.id",
		"SELECT t.a FROM t INNER JOIN u ON u.tid = t.id",
		"SELECT a FROM t ORDER BY a LIMIT 1 OFFSET 1",
		"SELECT * FROM t",
		"SELECT a AS x FROM t",
		"SELECT COUNT(*) AS n FROM t",
		"SELECT a, COUNT(*) FROM t",
		"SELECT a FROM t AS x",
		"SELECT a FROM t WHERE NOT a = 1",
		"SELECT a FROM t WHERE a NOT IN (1)",
		"SELECT a FROM t WHERE b NOT LIKE ?",
		"SELECT a FROM t WHERE a IS NULL",
		"SELECT a FROM t WHERE a IS NOT NULL",
		"SELECT a FROM t WHERE a <> 1",
		"SELECT a FROM t WHERE b = 'x'",
		"SELECT a FROM t WHERE a = 1.5",
		"SELECT a FROM t WHERE a = NULL",
		"SELECT a FROM t WHERE a = FALSE",
		"SELECT a FROM t -- comment",
		"SELECT a FROM t;",
		"INSERT INTO t VALUES (3, 3, ?)",
		"BEGIN",
		"COMMIT",
		"ROLLBACK",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) accepted removed syntax", sql)
		}
		if rows, err := db.Query(sql); err == nil {
			t.Errorf("Query(%q) returned %v", sql, rows.Data)
		}
		if _, err := db.Exec(sql, Text("x")); err == nil {
			t.Errorf("Exec(%q) succeeded", sql)
		}
	}
	if n, _ := db.RowCount("t"); n != 2 {
		t.Fatalf("t has %d rows after the refused statements, want 2", n)
	}
}
