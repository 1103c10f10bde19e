package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// An IN list whose items are column references is evaluated against each
// row's own cells: every row of a scan, every pair of a join, and every row
// an UPDATE or DELETE matches. The lists are long (20 items) and the rows
// many, so an evaluator that took the items from the first row it saw, or
// from the first pair of a join, returns wrong rows here.
func TestInListOfColumnsIsPerRow(t *testing.T) {
	const items, rows = 20, 12
	cols := make([]string, items)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	db := New()
	mustExec(t, db, "CREATE TABLE w (id INTEGER PRIMARY KEY, a INTEGER, "+strings.Join(cols, " INTEGER, ")+" INTEGER)")
	mustExec(t, db, "CREATE TABLE s (id INTEGER PRIMARY KEY, x INTEGER)")
	cell := func(r, i int) int64 { return int64((r*7 + i*5) % 29) }
	insert := "INSERT INTO w (id, a, " + strings.Join(cols, ", ") + ") VALUES (?, ?" + strings.Repeat(", ?", items) + ")"
	var wantW, wantJoin []int64
	for r := 1; r <= rows; r++ {
		args := []Value{Int(int64(r)), Int(int64(r * 3 % 29))}
		hitW, hitJoin := false, false
		for i := 0; i < items; i++ {
			args = append(args, Int(cell(r, i)))
			hitW = hitW || cell(r, i) == int64(r*3%29)
			hitJoin = hitJoin || cell(r, i) == int64(r*2%29)
		}
		mustExec(t, db, insert, args...)
		mustExec(t, db, "INSERT INTO s (id, x) VALUES (?, ?)", Int(int64(r)), Int(int64(r*2%29)))
		if hitW {
			wantW = append(wantW, int64(r))
		}
		if hitJoin {
			wantJoin = append(wantJoin, int64(r))
		}
	}
	if len(wantW) == 0 || len(wantW) == rows || len(wantJoin) == 0 || len(wantJoin) == rows {
		t.Fatalf("fixture selects %d and %d of %d rows: it must select some, not all", len(wantW), len(wantJoin), rows)
	}
	list := "(" + strings.Join(cols, ", ") + ")"
	ids := func(rs *Rows) []int64 {
		var out []int64
		for _, r := range rs.Data {
			out = append(out, r[0].N)
		}
		slices.Sort(out)
		return out
	}
	if got := ids(mustQuery(t, db, "SELECT id FROM w WHERE a IN "+list)); !slices.Equal(got, wantW) {
		t.Fatalf("scan: a IN (columns) selects %v, want %v", got, wantW)
	}
	wList := "(w." + strings.Join(cols, ", w.") + ")"
	if got := ids(mustQuery(t, db, "SELECT s.id FROM s JOIN w ON w.id = s.id WHERE s.x IN "+wList)); !slices.Equal(got, wantJoin) {
		t.Fatalf("join: s.x IN (w columns) selects %v, want %v", got, wantJoin)
	}
	if res := mustExec(t, db, "UPDATE w SET a = ? WHERE a IN "+list, Int(-1)); res.RowsAffected != len(wantW) {
		t.Fatalf("UPDATE changed %d rows, want %d", res.RowsAffected, len(wantW))
	}
	if got := ids(mustQuery(t, db, "SELECT id FROM w WHERE a = ?", Int(-1))); !slices.Equal(got, wantW) {
		t.Fatalf("UPDATE changed rows %v, want %v", got, wantW)
	}
	mustExec(t, db, "UPDATE w SET a = c7")
	if res := mustExec(t, db, "DELETE FROM w WHERE a IN "+list); res.RowsAffected != rows {
		t.Fatalf("DELETE of rows whose a is one of their own cells removed %d, want %d", res.RowsAffected, rows)
	}
}
