package core

import (
	"fmt"
	"strings"
	"testing"
)

// EXPLAIN goldens for the catalog's own hot statements. These pin the
// access paths of the query shapes the paper's workload leans on — the
// authz ancestor-chain ACL check, the multi-attribute (Fig. 11) query, the
// IN-list batch hydration and a name lookup narrowed by an attribute — so a
// planner change flips a test, not just a benchmark curve. Plans read the
// schema and the statement, never the rows, so the catalogs here hold no
// files; sqldb's TestPlanCensus pins every statement the catalog issues.

// explainPlan compiles sql against the catalog's database and returns the
// one-line plan rendering. Plans are value-free, so no arguments are bound.
func explainPlan(t *testing.T, c *Catalog, sql string) string {
	t.Helper()
	plan, err := c.DB().Explain(sql)
	if err != nil {
		t.Fatalf("explain %q: %v", sql, err)
	}
	return plan
}

// defineExplainAttrs defines string attributes x0 … x(n-1): compiling a
// query resolves each predicate's attribute type.
func defineExplainAttrs(t *testing.T, c *Catalog, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.DefineAttribute(alice, fmt.Sprintf("x%d", i), AttrString, ""); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExplainAuthzAncestorChain(t *testing.T) {
	c := openCatalog(t)
	// The batched ancestor-chain ACL check from authz.go: one IN-list probe
	// across the whole collection chain. acl_object binds object_type by =
	// and object_id by the IN list.
	plan := explainPlan(t, c,
		"SELECT id FROM acl WHERE object_type = ? AND principal = ? AND permission = ? AND object_id IN (?, ?, ?)")
	if plan != "index-in(acl_object)" {
		t.Fatalf("authz chain plan = %s", plan)
	}
}

func TestExplainAttributeBatchHydration(t *testing.T) {
	c := openCatalog(t)
	// attributesBatch's statement (query.go): per-object attribute fetch for
	// a page of query results, batched through one IN list on ua_object. The
	// join to attribute_def intersects on attr_id; attribute_def has no
	// local predicate, so it goes last and is reached by key probes into its
	// primary key.
	plan := explainPlan(t, c,
		"SELECT ua.object_id, ad.name, ad.attr_type, ua.sval, ua.ival, ua.fval, ua.tval "+
			"FROM user_attribute ua JOIN attribute_def ad ON ad.id = ua.attr_id "+
			"WHERE ua.object_type = ? AND ua.object_id IN (?, ?, ?)")
	want := "intersect[ua index-in(ua_object) & ad key-probe(rowid)]"
	if plan != want {
		t.Fatalf("attribute batch plan:\n  got  %s\n  want %s", plan, want)
	}
}

func TestExplainEightAttributeQuery(t *testing.T) {
	c := openCatalog(t)
	defineExplainAttrs(t, c, 8)
	preds := make([]Predicate, 8)
	for i := range preds {
		preds[i] = Predicate{fmt.Sprintf("x%d", i), OpEq, String("g2")}
	}
	q := Query{Predicates: preds}
	sql, err := c.ExplainQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	plan := explainPlan(t, c, sql)
	// All eight predicates are string-typed, so every attribute stage is a
	// covered equality probe of ua_attr_s and the file table is reached by
	// key probes — the flat Fig. 11 shape. The attribute stages bind three
	// columns each, so they keep statement order.
	want := "intersect[" + strings.Repeat("a%d index-eq(ua_attr_s) & ", 8) +
		"t key-probe(rowid)]"
	wantArgs := make([]interface{}, 8)
	for i := range wantArgs {
		wantArgs[i] = i
	}
	want = fmt.Sprintf(want, wantArgs...)
	if plan != want {
		t.Fatalf("8-attribute plan:\n  got  %s\n  want %s", plan, want)
	}
}

// TestExplainNameAndAttribute pins the plan's known cost. A static `name =`
// predicate binds one column of lf_name, and the attribute stage binds three
// of ua_attr_s, so the attribute stage runs first: the query materializes
// the attribute's whole value run and then key-probes logical_file for each
// object in it. Ranked by data, the name would go first and find one row;
// at 20,000 files, with a two-valued attribute, this statement takes 2.2 ms
// instead of 0.005 ms on 2 vCPUs (EXPERIMENTS.md, "Plans from the schema
// alone"). A seekable intersection
// that can start from the name wins it back without statistics.
func TestExplainNameAndAttribute(t *testing.T) {
	c := openCatalog(t)
	defineExplainAttrs(t, c, 1)
	sql, err := c.ExplainQuery(Query{Predicates: []Predicate{
		{"name", OpEq, String("f1")},
		{"x0", OpEq, String("g2")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	plan := explainPlan(t, c, sql)
	want := "intersect[a0 index-eq(ua_attr_s) & t key-probe(rowid)]"
	if plan != want {
		t.Fatalf("name + attribute plan:\n  got  %s\n  want %s", plan, want)
	}
}
