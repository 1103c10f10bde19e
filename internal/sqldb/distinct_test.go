package sqldb

import (
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestDistinctKeepsRowsByValue pins which projected rows DISTINCT counts as
// one: +0 and -0 stay apart, NULLs collapse, INTEGER 1 and FLOAT 1 stay
// apart, and an interned and a non-interned copy of one text collapse. SQL
// coerces a cell to its column's type and interns stored text, so the test
// puts its cells into the row store directly.
func TestDistinctKeepsRowsByValue(t *testing.T) {
	t.Parallel()
	db := New()
	mustExec(t, db, "CREATE TABLE d (id INTEGER PRIMARY KEY, v FLOAT, w TEXT)")
	interned := Intern("distinct-text")
	fresh := strings.Repeat("distinct-", 1) + "text"
	if unsafe.StringData(interned) == unsafe.StringData(fresh) {
		t.Fatal("the two copies of the text share their bytes")
	}
	cells := []Value{
		Float(0), Float(math.Copysign(0, -1)), Float(0),
		Null(), Null(),
		Int(1), Float(1), Int(1),
		Text(interned), Text(fresh),
	}
	tx := db.Begin()
	tbl, err := tx.writable("d")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cells {
		if _, err := tbl.insert(Row{Int(int64(i)), v, Text("w")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	want := []Value{Float(0), Float(math.Copysign(0, -1)), Null(), Int(1), Float(1), Text(interned)}
	check := func(sql string, want []Value) {
		t.Helper()
		rows := mustQuery(t, db, sql)
		if len(rows.Data) != len(want) {
			t.Fatalf("%s: %d rows %v, want %d %v", sql, len(rows.Data), rows.Data, len(want), want)
		}
		for i, r := range rows.Data {
			if r[0] != want[i] {
				t.Fatalf("%s: row %d is %#v, want %#v", sql, i, r[0], want[i])
			}
		}
	}
	check("SELECT DISTINCT v FROM d", want)
	check("SELECT DISTINCT v, w FROM d", want) // a two-column key
	check("SELECT DISTINCT v FROM d ORDER BY id", want)
	check("SELECT DISTINCT v FROM d ORDER BY id LIMIT 4", want[:4])
	check("SELECT DISTINCT v FROM d ORDER BY id DESC LIMIT 2", []Value{Text(fresh), Int(1)})
}
