package core

import (
	"fmt"
	"strings"
	"testing"
)

// EXPLAIN goldens for the catalog's own hot statements. These pin the
// access paths of the query shapes the paper's workload leans on — the
// authorization grants and tree loads, the multi-attribute (Fig. 11)
// query, the IN-list batch hydration and a name lookup narrowed by an
// attribute — so a planner change flips a test, not just a benchmark curve.
// Plans read the schema and the statement, never the rows, so the catalogs
// here hold no files; sqldb's TestPlanCensus pins every statement the
// catalog issues.

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

func TestExplainAuthzGrantsAndTree(t *testing.T) {
	c := openCatalog(t)
	// The two statements authorization issues (authz.go, collections.go),
	// each once per change of its table and never per object: a DN's
	// grants, and the whole collection tree. Both scan their table, which
	// holds tens of rows where the catalog holds thousands of files; the
	// grants statement has no index on principal, and needs none.
	for _, pin := range []struct{ sql, want string }{
		{"SELECT object_type, object_id, permission FROM acl WHERE principal = ?", "full-scan(acl)"},
		{"SELECT id, parent_id, creator FROM logical_collection", "full-scan(logical_collection)"},
	} {
		if plan := explainPlan(t, c, pin.sql); plan != pin.want {
			t.Fatalf("%s:\n  got  %s\n  want %s", pin.sql, plan, pin.want)
		}
	}
}

func TestExplainAttributeBatchHydration(t *testing.T) {
	c := openCatalog(t)
	// attributesBatch's statement (query.go): per-object attribute fetch for
	// a page of query results, batched through one IN list on ua_object. The
	// join to attribute_def intersects on attr_id: the IN list's rows are
	// sorted by it, and attribute_def, with no local predicate, seeks its
	// row store.
	plan := explainPlan(t, c,
		"SELECT ua.object_id, ad.name, ad.type, ua.sval, ua.ival, ua.fval, ua.tval "+
			"FROM user_attribute ua JOIN attribute_def ad ON ad.id = ua.attr_id "+
			"WHERE ua.object_type = ? AND ua.object_id IN (?, ?, ?)")
	want := "intersect[ua sort(index-in(ua_object)) & ad seek(rowid)]"
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
	// cursor over a covered run of ua_attr_s, and the file table seeks its
	// row store — the flat Fig. 11 shape.
	want := "intersect[a0 seek(ua_attr_s) & t seek(rowid)" +
		strings.Repeat(" & a%d seek(ua_attr_s)", 7) + "]"
	wantArgs := make([]interface{}, 7)
	for i := range wantArgs {
		wantArgs[i] = i + 1
	}
	want = fmt.Sprintf(want, wantArgs...)
	if plan != want {
		t.Fatalf("8-attribute plan:\n  got  %s\n  want %s", plan, want)
	}
}

// TestExplainNameAndAttribute pins the plan that makes a static `name =`
// predicate cheap without statistics: the name's one row of lf_name is
// sorted into a one-key array, and the attribute's cursor seeks that key
// alone instead of walking its whole value run (2.2 ms at 20,000 files when
// the run was materialized, EXPERIMENTS.md "Plans from the schema alone").
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
	want := "intersect[a0 seek(ua_attr_s) & t sort(index-eq(lf_name))]"
	if plan != want {
		t.Fatalf("name + attribute plan:\n  got  %s\n  want %s", plan, want)
	}
}
