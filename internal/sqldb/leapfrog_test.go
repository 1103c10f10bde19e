package sqldb

import (
	"fmt"
	"slices"
	"testing"
)

// TestPageDriveMatchesSort holds a page that the intersection drives from
// an index (`order(obj_name)`) to the naive evaluator's sort, row for row:
// when the walk fills its LIMIT early (a dense attribute), when it starts
// after a bound, when it runs past its budget and falls back to the
// leapfrog (a sparse attribute), when fewer rows than LIMIT match, and when
// names tie, which both take by rowid.
func TestPageDriveMatchesSort(t *testing.T) {
	t.Parallel()
	db := New()
	mustExec(t, db, "CREATE TABLE obj (id INTEGER PRIMARY KEY, name TEXT NOT NULL)")
	mustExec(t, db, "CREATE INDEX obj_name ON obj (name)")
	mustExec(t, db, "CREATE TABLE kv (oid INTEGER NOT NULL, k TEXT NOT NULL, v INTEGER NOT NULL)")
	mustExec(t, db, "CREATE INDEX kv_kvo ON kv (k, v, oid)")
	const n = 3000
	tx := db.Begin()
	for i := range n {
		name := fmt.Sprintf("n%04d", i*7919%(n/2)) // every name twice
		steps := []struct {
			sql  string
			args []Value
		}{
			{"INSERT INTO obj (id, name) VALUES (?, ?)", []Value{Int(int64(i)), Text(name)}},
			{"INSERT INTO kv (oid, k, v) VALUES (?, ?, ?)", []Value{Int(int64(i)), Text("dense"), Int(int64(i % 2))}},
		}
		if i%600 == 0 {
			steps = append(steps, steps[1])
			steps[2].args = []Value{Int(int64(i)), Text("sparse"), Int(1)}
		}
		for _, st := range steps {
			if _, err := tx.Exec(st.sql, st.args...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		proj  string
		k     string
		after string
		limit int
	}{
		{"DISTINCT o.name", "dense", "", 16},
		{"DISTINCT o.name", "dense", "n0700", 16},
		{"DISTINCT o.name", "dense", "n1490", 16},
		{"DISTINCT o.name", "sparse", "", 16},
		{"DISTINCT o.name", "sparse", "", 2},
		{"DISTINCT o.name", "dense", "", 0},
		{"o.name, o.id", "dense", "n0100", 9},
		{"o.name, o.id", "sparse", "", 40},
	} {
		q := fmt.Sprintf("SELECT %s FROM kv a JOIN obj o ON o.id = a.oid WHERE a.k = ? AND a.v = ? AND o.name > ? ORDER BY o.name LIMIT %d", tc.proj, tc.limit)
		if plan, err := db.Explain(q); err != nil || plan != "intersect[a seek(kv_kvo) & o order(obj_name)]" {
			t.Fatalf("plan %s (%v)", plan, err)
		}
		args := []Value{Text(tc.k), Int(1), Text(tc.after)}
		got, want := mustQuery(t, db, q, args...), mustQueryNaive(t, db, q, args...)
		if !slices.EqualFunc(got.Data, want.Data, slices.Equal) {
			t.Errorf("%s %s after %q limit %d:\n  got  %v\n  want %v", tc.proj, tc.k, tc.after, tc.limit, got.Data, want.Data)
		}
	}
}

func mustQueryNaive(t *testing.T, db *DB, q string, args ...Value) *Rows {
	t.Helper()
	rows, err := db.QueryNaive(q, args...)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}
