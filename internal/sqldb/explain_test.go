package sqldb

import (
	"fmt"
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

		// planIntersect's rule: stages by descending rank, ties in statement
		// order, and a later stage key-probed when its key index is a
		// one-column unique index or its own access would be a full scan.
		{
			// The Fig. 11 shape: the attribute stages tie and keep statement
			// order, and the object table — no local predicates, so its own
			// access would be a full scan — goes last, reached by key probes
			// into its PK index. a1's key index kv_oid is not unique and its
			// own access is an index, so it is materialized.
			"EAV intersection with key probe",
			`SELECT DISTINCT o.name FROM kv a0
				JOIN obj o ON o.id = a0.oid
				JOIN kv a1 ON a1.oid = a0.oid
				WHERE a0.k = ? AND a0.v = 2 AND a1.k = ? AND a1.v = 2`,
			"intersect[a0 index-eq(kv_kvo) & a1 index-eq(kv_kvo) & o key-probe(obj_id_key)]",
		},
		{
			"more bound columns run first",
			"SELECT a0.oid FROM kv a0 JOIN kv a1 ON a1.oid = a0.oid WHERE a0.k = ? AND a1.k = ? AND a1.v = ?",
			"intersect[a1 index-eq(kv_kvo) & a0 index-eq(kv_kvo)]",
		},
		{
			"a unique key stage runs first",
			"SELECT a.oid FROM kv a JOIN obj o ON o.id = a.oid WHERE a.k = ? AND a.v = ? AND o.id = ?",
			"intersect[o index-eq(obj_id_key) & a index-eq(kv_kvo)]",
		},
		{
			"full scans run last",
			"SELECT a.k FROM obj o JOIN kv a ON a.oid = o.id WHERE a.k = ?",
			"intersect[a index-eq(kv_kvo) & o key-probe(obj_id_key)]",
		},
		{
			// o's own access would be index-eq(obj_name), but its key index
			// is a one-column unique index: one descent per surviving key.
			"key probe through a unique key index",
			"SELECT o.name FROM kv a JOIN obj o ON o.id = a.oid WHERE a.k = ? AND a.v = ? AND o.name = ?",
			"intersect[a index-eq(kv_kvo) & o key-probe(obj_id_key)]",
		},
		{
			// kv_oid is not unique, but a's own access would be a full scan.
			"key probe instead of a full scan",
			"SELECT a.k FROM obj o JOIN kv a ON a.oid = o.id WHERE o.name = ?",
			"intersect[o index-eq(obj_name) & a key-probe(kv_oid)]",
		},
		{
			"the first stage is never probed",
			"SELECT a.k FROM kv a JOIN obj o ON o.id = a.oid",
			"intersect[a full-scan(kv) & o key-probe(obj_id_key)]",
		},
		{
			// A TEXT join key disqualifies intersection; the nested executor
			// keeps the first stage's access path and scans the rest.
			"non-integer key stays nested",
			"SELECT a.oid FROM obj o JOIN kv a ON a.k = o.name WHERE o.id = ?",
			"nested[o index-eq(obj_id_key) -> a scan(kv)]",
		},
		{
			// A cross-stage residual (inequality) cannot be consumed by the
			// key grouping but must not disqualify the intersection.
			"intersection with residual",
			`SELECT o.name FROM kv a0 JOIN obj o ON o.id = a0.oid
				WHERE a0.k = ? AND a0.v = 2 AND o.name >= ?`,
			"intersect[a0 index-eq(kv_kvo) & o key-probe(obj_id_key)]",
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

// TestExplainPlanCacheEpoch pins the contract the EXPLAIN surface and plan
// cache share: plans are cached per MVCC epoch, so a schema change, which
// advances the epoch, must recompile — and can flip — the plan.
func TestExplainPlanCacheEpoch(t *testing.T) {
	t.Parallel()
	db := New()
	mustExec(t, db, "CREATE TABLE kv (oid INTEGER NOT NULL, k TEXT NOT NULL, v INTEGER NOT NULL)")
	const q = "SELECT oid FROM kv WHERE k = ?"
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan != "full-scan(kv)" {
		t.Fatalf("pre-index plan = %s", plan)
	}
	mustExec(t, db, "CREATE INDEX kv_kvo ON kv (k, v, oid)")
	plan, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan != "index-eq(kv_kvo)" {
		t.Fatalf("post-index plan = %s (stale cached plan?)", plan)
	}
}
