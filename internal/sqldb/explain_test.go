package sqldb

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// EXPLAIN golden tests. The one-line plan rendering (selectPlan.String) is
// deliberately load-bearing test surface: a planner change that flips an
// access path or a stage order fails these goldens loudly instead of only
// showing up as a slow benchmark. The schema mirrors the MCS EAV shape —
// an object table with a rowid primary key and an attribute table with a
// covering (key, type-discriminated value, object) index — plus a table r
// whose indexes separate the steps of planSpec's rule. The attribute
// table's columns are NOT NULL, so its indexes serve any predicate shape;
// doc's title is nullable, so its index serves only a stage that compares
// title (index.serves). Plans read the schema alone, so every golden is
// checked against an empty database and against one holding rows.

func setupExplainDB(t *testing.T, rows bool) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE obj (id INTEGER PRIMARY KEY, name TEXT NOT NULL)")
	mustExec(t, db, "CREATE INDEX obj_name ON obj (name)")
	mustExec(t, db, "CREATE TABLE kv (oid INTEGER NOT NULL, k TEXT NOT NULL, v INTEGER NOT NULL)")
	mustExec(t, db, "CREATE INDEX kv_oid ON kv (oid)")
	mustExec(t, db, "CREATE INDEX kv_kvo ON kv (k, v, oid)")
	mustExec(t, db, "CREATE TABLE doc (id INTEGER PRIMARY KEY, owner INTEGER NOT NULL, title TEXT)")
	mustExec(t, db, "CREATE INDEX doc_owner_title ON doc (owner, title)")
	mustExec(t, db, "CREATE TABLE r (id INTEGER PRIMARY KEY, a INTEGER NOT NULL, b INTEGER NOT NULL, c INTEGER NOT NULL, u INTEGER NOT NULL UNIQUE)")
	for _, ddl := range []string{
		"CREATE INDEX r_a ON r (a)",
		"CREATE INDEX r_ab ON r (a, b)",
		"CREATE INDEX r_b ON r (b)",
		"CREATE INDEX r_bc ON r (b, c)",
	} {
		mustExec(t, db, ddl)
	}
	if !rows {
		return db
	}
	for oid := 1; oid <= 40; oid++ {
		mustExec(t, db, "INSERT INTO obj (id, name) VALUES (?, ?)",
			Int(int64(oid)), Text(fmt.Sprintf("o%02d", oid)))
		for k := 0; k < 4; k++ {
			mustExec(t, db, "INSERT INTO kv (oid, k, v) VALUES (?, ?, ?)",
				Int(int64(oid)), Text(fmt.Sprintf("k%d", k)), Int(int64(oid%5)))
		}
		mustExec(t, db, "INSERT INTO r (id, a, b, c, u) VALUES (?, ?, ?, ?, ?)",
			Int(int64(oid)), Int(int64(oid%2)), Int(int64(oid%3)), Int(int64(oid)), Int(int64(oid)))
	}
	return db
}

func TestExplainGoldens(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		sql  string
		want string
	}{
		{"eq prefix", "SELECT oid FROM kv WHERE k = ?", "index-eq(kv_kvo)"},
		{"prefix range", "SELECT oid FROM kv WHERE k = ? AND v < 3", "index-range(kv_kvo)"},
		{"in list", "SELECT oid FROM kv WHERE k IN (?, ?)", "index-in(kv_kvo)"},
		{"no leading column", "SELECT oid FROM kv WHERE v = 1", "full-scan(kv)"},

		// planSpec's rule, step by step, over r's indexes: r_u_key (from
		// the UNIQUE column), then r_a, r_ab, r_b, r_bc in declaration order.
		{
			// Step 1: a unique key bound whole by = beats two bound columns.
			"unique whole key beats a longer prefix",
			"SELECT id FROM r WHERE a = ? AND b = ? AND u = ?",
			"index-eq(r_u_key)",
		},
		{
			// An IN list does not bind a unique key whole: it counts one.
			"unique key under IN counts one column",
			"SELECT id FROM r WHERE a = ? AND b = ? AND u IN (?, ?)",
			"index-eq(r_ab)",
		},
		{
			// Step 2: r_ab binds two columns, r_a and r_b one each.
			"more bound columns win",
			"SELECT id FROM r WHERE b = ? AND a = ?",
			"index-eq(r_ab)",
		},
		{"IN counts one bound column", "SELECT id FROM r WHERE a = ? AND b IN (?, ?)", "index-in(r_ab)"},
		{"range counts one bound column", "SELECT id FROM r WHERE b = ? AND c > ?", "index-range(r_bc)"},
		{
			// The IN on a ends r_ab's prefix: b = ? after it binds nothing
			// there, so r_bc's two equalities win.
			"IN ends the prefix",
			"SELECT id FROM r WHERE a IN (?, ?) AND b = ? AND c = ?",
			"index-eq(r_bc)",
		},
		{
			// Step 3: r_b and r_bc both bind b; r_b is declared first.
			"ties go to declaration order",
			"SELECT id FROM r WHERE b = ?",
			"index-eq(r_b)",
		},
		{
			// Within r_ab an IN and a range on b both count two columns;
			// the IN is enumerated first.
			"IN before range within one index",
			"SELECT id FROM r WHERE a = ? AND b >= ? AND b IN (?, ?)",
			"index-in(r_ab)",
		},

		// An INTEGER PRIMARY KEY is the rowid: the row store is its index,
		// a one-column unique one that enumerates before every other.
		{"key equality", "SELECT name FROM obj WHERE id = ?", "rowid-eq(obj)"},
		{"key IN list", "SELECT name FROM obj WHERE id IN (?, ?)", "rowid-in(obj)"},
		{"key range", "SELECT name FROM obj WHERE id <= ?", "rowid-range(obj)"},
		{"key ties go to the row store", "SELECT a FROM r WHERE u = ? AND id = ?", "rowid-eq(r)"},
		{"a bound index prefix beats a key range", "SELECT id FROM r WHERE id > ? AND a = ? AND b = ?", "index-eq(r_ab)"},

		// planIntersect's rule (classify): every stage is a cursor over its
		// keys, listed in statement order. An equality run of an index that
		// is ordered by the key column seeks; a stage keyed by its table's
		// rowid with no selective access of its own seeks the row store; a
		// stage with no access of its own seeks the index its key column
		// leads; anything else is scanned once and sorted.
		{
			// The Fig. 11 shape: the attribute stages are covered runs of
			// kv_kvo, and the object table, with no predicate of its own,
			// seeks its row store.
			"EAV intersection of cursors",
			`SELECT DISTINCT o.name FROM kv a0
				JOIN obj o ON o.id = a0.oid
				JOIN kv a1 ON a1.oid = a0.oid
				WHERE a0.k = ? AND a0.v = 2 AND a1.k = ? AND a1.v = 2`,
			"intersect[a0 seek(kv_kvo) & o seek(rowid) & a1 seek(kv_kvo)]",
		},
		{
			// a0's run of kv_kvo binds k alone, so it is ordered by v first.
			"a run not ordered by the key is sorted",
			"SELECT a0.oid FROM kv a0 JOIN kv a1 ON a1.oid = a0.oid WHERE a0.k = ? AND a1.k = ? AND a1.v = ?",
			"intersect[a0 sort(index-eq(kv_kvo)) & a1 seek(kv_kvo)]",
		},
		{
			"a rowid equality is sorted",
			"SELECT a.oid FROM kv a JOIN obj o ON o.id = a.oid WHERE a.k = ? AND a.v = ? AND o.id = ?",
			"intersect[a seek(kv_kvo) & o sort(rowid-eq(obj))]",
		},
		{
			"the row store seeks",
			"SELECT a.k FROM obj o JOIN kv a ON a.oid = o.id WHERE a.k = ?",
			"intersect[o seek(rowid) & a sort(index-eq(kv_kvo))]",
		},
		{
			// o's key is the rowid, but its own access is an equality: the
			// few rows it finds are sorted.
			"an equality on another index is sorted",
			"SELECT o.name FROM kv a JOIN obj o ON o.id = a.oid WHERE a.k = ? AND a.v = ? AND o.name = ?",
			"intersect[a seek(kv_kvo) & o sort(index-eq(obj_name))]",
		},
		{
			"a unique key index is no shortcut",
			"SELECT r.b FROM kv a JOIN r ON r.u = a.oid WHERE a.k = ? AND a.v = ? AND r.a = ?",
			"intersect[a seek(kv_kvo) & r sort(index-eq(r_a))]",
		},
		{
			// a's own access would be a full scan: it seeks kv_oid, the
			// index its key column leads.
			"the key index instead of a full scan",
			"SELECT a.k FROM obj o JOIN kv a ON a.oid = o.id WHERE o.name = ?",
			"intersect[o sort(index-eq(obj_name)) & a seek(kv_oid)]",
		},
		{
			"no predicates at all",
			"SELECT a.k FROM kv a JOIN obj o ON o.id = a.oid",
			"intersect[a seek(kv_oid) & o seek(rowid)]",
		},
		{
			// The page shape: ORDER BY a column of a row-store stage that
			// leads an index, with a LIMIT, walks that index.
			"a page driven by its order",
			"SELECT DISTINCT o.name FROM kv a JOIN obj o ON o.id = a.oid WHERE a.k = ? AND a.v = ? AND o.name > ? ORDER BY o.name LIMIT 16",
			"intersect[a seek(kv_kvo) & o order(obj_name)]",
		},
		{
			"no drive without a LIMIT",
			"SELECT DISTINCT o.name FROM kv a JOIN obj o ON o.id = a.oid WHERE a.k = ? AND a.v = ? ORDER BY o.name",
			"intersect[a seek(kv_kvo) & o seek(rowid)]",
		},
		{
			"no drive in descending order",
			"SELECT o.name FROM kv a JOIN obj o ON o.id = a.oid WHERE a.k = ? AND a.v = ? ORDER BY o.name DESC LIMIT 3",
			"intersect[a seek(kv_kvo) & o seek(rowid)]",
		},
		{
			// A TEXT join key disqualifies intersection; the nested executor
			// keeps the first stage's access path and scans the rest.
			"non-integer key stays nested",
			"SELECT a.oid FROM obj o JOIN kv a ON a.k = o.name WHERE o.id = ?",
			"nested[o rowid-eq(obj) -> a scan(kv)]",
		},
		{
			// A cross-stage residual (inequality) cannot be consumed by the
			// key grouping but must not disqualify the intersection.
			"intersection with residual",
			`SELECT o.name FROM kv a0 JOIN obj o ON o.id = a0.oid
				WHERE a0.k = ? AND a0.v = 2 AND o.name >= ?`,
			"intersect[a0 seek(kv_kvo) & o seek(rowid)]",
		},
		{
			// doc_owner_title has no entry for a NULL title, so a probe on
			// owner alone would miss rows the query returns.
			"nullable key column unconstrained",
			"SELECT id FROM doc WHERE owner = ?",
			"full-scan(doc)",
		},
		{
			// A comparison on title rejects every NULL title, so the index
			// serves the stage even though the probe binds only owner.
			"nullable key column compared",
			"SELECT id FROM doc WHERE owner = ? AND title != ?",
			"index-eq(doc_owner_title)",
		},
		{
			// Under OR the comparison is not a conjunct: a NULL title may
			// still pass the other branch.
			"nullable key column compared under OR",
			"SELECT id FROM doc WHERE owner = ? AND (title = ? OR id = ?)",
			"full-scan(doc)",
		},
	}
	for _, rows := range []bool{false, true} {
		db := setupExplainDB(t, rows)
		for _, tc := range cases {
			plan, err := db.Explain(tc.sql)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if plan != tc.want {
				t.Errorf("%s (rows %v):\n  got  %s\n  want %s", tc.name, rows, plan, tc.want)
			}
		}
	}
}

// cachedPlan returns the plan the statement cache holds for sql, or nil.
func cachedPlan(db *DB, sql string) *selectPlan {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	return db.stmtCache[sql].plan
}

// TestExplainPlanCacheSchema pins the rule the EXPLAIN surface and the
// statement cache share: a plan is cached per schema generation, so a
// data-only commit keeps it and a schema change — CREATE INDEX,
// DropIndexesExcept, a snapshot load — recompiles, and can flip, it. Query,
// Tx.Query and Explain all read the one cached plan.
func TestExplainPlanCacheSchema(t *testing.T) {
	t.Parallel()
	db := New()
	mustExec(t, db, "CREATE TABLE kv (oid INTEGER NOT NULL, k TEXT NOT NULL, v INTEGER NOT NULL)")
	const q, ins = "SELECT oid FROM kv WHERE k = ?", "INSERT INTO kv (oid, k, v) VALUES (?, ?, ?)"
	oids := func(rows *Rows) []int64 {
		var out []int64
		for _, r := range rows.Data {
			out = append(out, r[0].Int())
		}
		slices.Sort(out)
		return out
	}
	check := func(ctx, wantPlan string, want ...int64) *selectPlan {
		t.Helper()
		if got := oids(mustQuery(t, db, q, Text("a"))); !slices.Equal(got, want) {
			t.Fatalf("%s: rows %v, want %v", ctx, got, want)
		}
		p := cachedPlan(db, q)
		if plan, err := db.Explain(q); err != nil || plan != wantPlan {
			t.Fatalf("%s: plan %s (%v), want %s", ctx, plan, err, wantPlan)
		}
		if cachedPlan(db, q) != p {
			t.Fatalf("%s: Explain compiled a plan of its own", ctx)
		}
		return p
	}

	// (a) A commit that changes the rows the plan reads keeps the plan.
	p := check("empty", "full-scan(kv)")
	mustExec(t, db, ins, Int(1), Text("a"), Int(1))
	if check("after an insert", "full-scan(kv)", 1) != p {
		t.Fatal("a data-only commit recompiled the plan")
	}

	// (b) CREATE INDEX recompiles, and flips, it.
	mustExec(t, db, "CREATE INDEX kv_kvo ON kv (k, v, oid)")
	p = check("after CREATE INDEX", "index-eq(kv_kvo)", 1)

	// (c) So do DropIndexesExcept and a snapshot load, even of other tables.
	db.DropIndexesExcept(nil)
	if check("after DropIndexesExcept", "full-scan(kv)", 1) == p {
		t.Fatal("DropIndexesExcept kept the plan")
	}
	mustExec(t, db, "CREATE INDEX kv_k ON kv (k)")
	p = check("after a second CREATE INDEX", "index-eq(kv_k)", 1)
	src := New()
	mustExec(t, src, "CREATE TABLE other (id INTEGER PRIMARY KEY)")
	var snap bytes.Buffer
	if err := src.Dump(&snap); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if check("after LoadSnapshot", "index-eq(kv_k)", 1) == p {
		t.Fatal("a snapshot load kept the plan")
	}

	// (d) A transaction runs the cached plan against its shadow root and
	// sees its own insert through the index probe; a rollback leaves the
	// cache serving committed rows.
	p = cachedPlan(db, q)
	tx := db.Begin()
	if _, err := tx.Exec(ins, Int(2), Text("a"), Int(2)); err != nil {
		t.Fatal(err)
	}
	rows, err := tx.Query(q, Text("a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := oids(rows); !slices.Equal(got, []int64{1, 2}) {
		t.Fatalf("transaction rows %v, want [1 2]", got)
	}
	if cachedPlan(db, q) != p {
		t.Fatal("Tx.Query compiled a plan of its own")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if check("after a rollback", "index-eq(kv_k)", 1) != p {
		t.Fatal("a rollback recompiled the plan")
	}
}
