package core

import (
	"fmt"
	"strings"
	"testing"
)

// EXPLAIN goldens for the catalog's own hot statements. These pin the
// access paths of the three query shapes the paper's workload leans on —
// the authz ancestor-chain ACL check, the multi-attribute (Fig. 11) query,
// and the IN-list batch hydration — so a cardinality-stats or planner
// regression flips a test, not just a benchmark curve.

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

// populateExplainCatalog creates enough files and attribute rows that the
// stats registry has real cardinalities to rank indexes with.
func populateExplainCatalog(t *testing.T, c *Catalog, attrs int) {
	t.Helper()
	for i := 0; i < attrs; i++ {
		name := fmt.Sprintf("x%d", i)
		if _, err := c.DefineAttribute(alice, name, AttrString, ""); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < 30; f++ {
		fname := fmt.Sprintf("ef%02d", f)
		if _, err := c.CreateFile(alice, FileSpec{Name: fname, DataType: "raw"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < attrs; i++ {
			attr := fmt.Sprintf("x%d", i)
			if err := c.SetAttribute(alice, ObjectFile, fname, attr,
				String(fmt.Sprintf("g%d", f%5))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestExplainAuthzAncestorChain(t *testing.T) {
	c := openCatalog(t)
	// The batched ancestor-chain ACL check from authz.go: one IN-list probe
	// across the whole collection chain. acl_object leads with object_type,
	// so the probe is an equality prefix extended by the IN list.
	plan := explainPlan(t, c,
		"SELECT id FROM acl WHERE object_type = ? AND principal = ? AND permission = ? AND object_id IN (?, ?, ?)")
	if plan != "index-in(acl_object)" {
		t.Fatalf("authz chain plan = %s", plan)
	}
}

func TestExplainAttributeBatchHydration(t *testing.T) {
	c := openCatalog(t)
	populateExplainCatalog(t, c, 4)
	// attributesBatch's statement (query.go): per-object attribute fetch for
	// a page of query results, batched through one IN list on ua_object. The
	// join to attribute_def intersects on attr_id; the def table is a handful
	// of rows, so scanning it outright ranks ahead of the IN probe.
	plan := explainPlan(t, c,
		"SELECT ua.object_id, ad.name, ad.attr_type, ua.sval, ua.ival, ua.fval, ua.tval "+
			"FROM user_attribute ua JOIN attribute_def ad ON ad.id = ua.attr_id "+
			"WHERE ua.object_type = ? AND ua.object_id IN (?, ?, ?)")
	want := "intersect[ad full-scan(attribute_def) & ua index-in(ua_object)]"
	if plan != want {
		t.Fatalf("attribute batch plan:\n  got  %s\n  want %s", plan, want)
	}
}

func TestExplainEightAttributeQuery(t *testing.T) {
	c := openCatalog(t)
	populateExplainCatalog(t, c, 8)
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
	// key probes — the flat Fig. 11 shape. Stage order among equal
	// estimates is statement order (stable sort).
	want := "intersect[" + strings.Repeat("a%d index-eq(ua_attr_s) & ", 8) +
		"t key-probe(logical_file_id_key)]"
	wantArgs := make([]interface{}, 8)
	for i := range wantArgs {
		wantArgs[i] = i
	}
	want = fmt.Sprintf(want, wantArgs...)
	if plan != want {
		t.Fatalf("8-attribute plan:\n  got  %s\n  want %s", plan, want)
	}
}
