package sqldb

import (
	"fmt"
	"testing"
)

// EXPLAIN golden tests. The one-line plan rendering (selectPlan.String) is
// deliberately load-bearing test surface: a stats or planner regression
// that flips an access path fails these goldens loudly instead of only
// showing up as a slow benchmark. The schema mirrors the MCS EAV shape —
// an object table with a rowid primary key and an attribute table with a
// covering (key, type-discriminated value, object) index.

func setupExplainDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE obj (id INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, db, "CREATE TABLE kv (oid INTEGER, k TEXT, v INTEGER)")
	mustExec(t, db, "CREATE INDEX kv_oid ON kv (oid)")
	mustExec(t, db, "CREATE INDEX kv_kvo ON kv (k, v, oid)")
	for oid := 1; oid <= 40; oid++ {
		mustExec(t, db, "INSERT INTO obj (id, name) VALUES (?, ?)",
			Int(int64(oid)), Text(fmt.Sprintf("o%02d", oid)))
		for k := 0; k < 4; k++ {
			mustExec(t, db, "INSERT INTO kv (oid, k, v) VALUES (?, ?, ?)",
				Int(int64(oid)), Text(fmt.Sprintf("k%d", k)), Int(int64(oid%5)))
		}
	}
	return db
}

func TestExplainGoldens(t *testing.T) {
	t.Parallel()
	db := setupExplainDB(t)
	cases := []struct {
		name string
		sql  string
		want string
	}{
		{"eq prefix", "SELECT oid FROM kv WHERE k = ?", "index-eq(kv_kvo)"},
		{"prefix range", "SELECT oid FROM kv WHERE k = ? AND v < 3", "index-range(kv_kvo)"},
		{"in list", "SELECT oid FROM kv WHERE k IN (?, ?)", "index-in(kv_kvo)"},
		{"no leading column", "SELECT oid FROM kv WHERE v = 1", "full-scan(kv)"},
		{
			// The Fig. 11 shape: attribute stages intersect on oid, and the
			// object table — no local predicates, so its own access would be
			// a full scan — is reached by key probes into its PK index.
			"EAV intersection with key probe",
			`SELECT DISTINCT o.name FROM kv a0
				JOIN obj o ON o.id = a0.oid
				JOIN kv a1 ON a1.oid = a0.oid
				WHERE a0.k = ? AND a0.v = 2 AND a1.k = ? AND a1.v = 2`,
			"intersect[a0 index-eq(kv_kvo) & a1 index-eq(kv_kvo) & o key-probe(obj_id_key)]",
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
	}
	for _, tc := range cases {
		plan, err := db.Explain(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if plan != tc.want {
			t.Errorf("%s:\n  got  %s\n  want %s", tc.name, plan, tc.want)
		}
	}
}

// TestExplainPlanCacheEpoch pins the contract the EXPLAIN surface and plan
// cache share: plans are cached per MVCC epoch, so a schema or data change
// that advances the epoch must recompile — and can flip — the plan.
func TestExplainPlanCacheEpoch(t *testing.T) {
	t.Parallel()
	db := New()
	mustExec(t, db, "CREATE TABLE kv (oid INTEGER, k TEXT, v INTEGER)")
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
