package sqldb_test

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"mcs/internal/core"
	"mcs/internal/sqldb"
)

// The catalog's plan census. A core catalog is driven through every kind of
// operation the service performs — creates, a batch, attribute writes,
// deletes, grants, lookups, searches over 1, 3 and 10 attributes, two
// pages, searches returning attributes and files, the statistics and the
// discovery summary, and once each the rarer kinds (driveCensusRest) — and
// then every statement it issued is explained twice: against an empty
// catalog and against the driven one. A SELECT is explained as it stands;
// an UPDATE or DELETE as the SELECT of its WHERE, which is the statement
// it compiles to. Plans are a function of the schema and the statement
// alone (planSpec), so the two must agree, and both must match
// testdata/plan_census.golden. A planner change that moves any
// catalog plan fails here, naming the statement.

const (
	censusOwner     = "/O=Grid/CN=census-owner"
	censusReader    = "/O=Grid/CN=census-reader"
	censusPublisher = "/O=Grid/CN=census-publisher"
	censusGolden    = "testdata/plan_census.golden"
)

// censusAttrTypes are the ten attributes' types, cycling as in the
// benchmark's dataset.
var censusAttrTypes = []core.AttrType{core.AttrString, core.AttrString, core.AttrFloat, core.AttrInt, core.AttrDateTime}

func censusAttr(j int) string { return fmt.Sprintf("attr_%02d", j) }

// censusValue is attribute j's value for value index x; attribute j takes
// j+2 distinct values over the files.
func censusValue(j, x int) core.AttrValue {
	x %= j + 2
	switch censusAttrTypes[j%len(censusAttrTypes)] {
	case core.AttrFloat:
		return core.Float(float64(x) + 0.5)
	case core.AttrInt:
		return core.Int(int64(x))
	case core.AttrDateTime:
		return core.DateTime(time.Date(2003, 11, 15, x, 0, 0, 0, time.UTC))
	}
	return core.String(fmt.Sprintf("v%d", x))
}

func censusFile(i int) core.FileSpec {
	attrs := make([]core.Attribute, 10)
	for j := range attrs {
		attrs[j] = core.Attribute{Name: censusAttr(j), Value: censusValue(j, i)}
	}
	return core.FileSpec{Name: fmt.Sprintf("f-%05d", i), DataType: "binary", Collection: "leaf", Attributes: attrs}
}

// driveCensusCatalog runs every operation kind against cat, with the files
// numbered [lo, hi) created by one create and then batches of 100.
func driveCensusCatalog(t *testing.T, cat *core.Catalog, lo, hi int) {
	t.Helper()
	// The wire passes every write a request ID and, from a retrying
	// client, an idempotency key; the key adds the replay cache's reads.
	key := func(op string, i int) []core.OpOption {
		id := fmt.Sprintf("%s-%d", op, i)
		return []core.OpOption{core.WithRequestID(id), core.WithIdempotencyKey(id)}
	}
	_, err := cat.CreateFile(censusPublisher, censusFile(lo), key("create", lo)...)
	censusMust(t, err)
	for start := lo + 1; start < hi; start += 100 {
		var ops []core.BatchOp
		for i := start; i < min(start+100, hi); i++ {
			spec := censusFile(i)
			ops = append(ops, core.BatchOp{CreateFile: &spec})
		}
		_, err := cat.BatchWrite(censusPublisher, ops, key("batch", start)...)
		censusMust(t, err)
	}
	name := censusFile(lo).Name
	censusMust(t, cat.SetAttribute(censusPublisher, core.ObjectFile, name, censusAttr(0), censusValue(0, lo+1), key("set", lo)...))
	_, err = cat.GetFile(censusReader, name, 0)
	censusMust(t, err)
	_, err = cat.GetAttributes(censusReader, core.ObjectFile, name)
	censusMust(t, err)
	for _, q := range []core.Query{
		{Predicates: []core.Predicate{{Attribute: "name", Op: core.OpEq, Value: core.String(name)}}},
		censusSearch(1),
		censusSearch(3),
		censusSearch(10),
	} {
		_, err := cat.RunQuery(censusReader, q)
		censusMust(t, err)
	}
	_, next, err := cat.RunQueryPage(censusReader, censusSearch(1), 16, "")
	censusMust(t, err)
	if next != "" {
		_, _, err = cat.RunQueryPage(censusReader, censusSearch(1), 16, next)
		censusMust(t, err)
	}
	_, err = cat.RunQueryAttrs(censusReader, censusSearch(3), []string{censusAttr(0), censusAttr(4)})
	censusMust(t, err)
	_, err = cat.QueryFiles(censusReader, censusSearch(3))
	censusMust(t, err)
	// The daemon's /statz and the router's discovery summary.
	_, err = cat.Stats()
	censusMust(t, err)
	censusMust(t, cat.AttributePairs(core.ObjectFile, func(string, string) bool { return true }))
	censusMust(t, cat.DeleteFile(censusPublisher, censusFile(hi-1).Name, 0, key("delete", hi-1)...))
}

// driveCensusRest runs, once, every operation kind driveCensusCatalog
// leaves out: file updates, versions, invalidation and moves, collection
// and view maintenance, annotations, provenance, the audit log, writers,
// external catalogs, revocation, attribute removal and definitions, and
// enough keyed writes to fill the replay cache and prune it.
func driveCensusRest(t *testing.T, cat *core.Catalog) {
	t.Helper()
	o := censusOwner
	spec := censusFile(0)
	spec.Name, spec.Audited = "f-audited", true
	_, err := cat.CreateFile(o, spec)
	censusMust(t, err)
	dataType := "text"
	_, err = cat.UpdateFile(o, spec.Name, 0, core.FileUpdate{DataType: &dataType})
	censusMust(t, err)
	_, err = cat.FileVersions(o, spec.Name)
	censusMust(t, err)
	censusMust(t, cat.InvalidateFile(o, spec.Name, 0))
	_, err = cat.CreateCollection(o, core.CollectionSpec{Name: "side"})
	censusMust(t, err)
	censusMust(t, cat.MoveFile(o, spec.Name, 0, "side"))
	censusMust(t, cat.SetCollectionParent(o, "side", "top"))
	_, err = cat.GetCollection(o, "side")
	censusMust(t, err)
	_, _, err = cat.CollectionContents(o, "top")
	censusMust(t, err)
	_, _, _, err = cat.CollectionContentsPage(o, "leaf", 16, "")
	censusMust(t, err)
	for _, pattern := range []string{"", "s%"} {
		_, err = cat.ListCollections(o, pattern)
		censusMust(t, err)
	}
	_, err = cat.CreateView(o, core.ViewSpec{Name: "picks"})
	censusMust(t, err)
	censusMust(t, cat.AddToView(o, "picks", core.ObjectFile, spec.Name))
	_, err = cat.GetView(o, "picks")
	censusMust(t, err)
	_, err = cat.ViewContents(o, "picks")
	censusMust(t, err)
	_, err = cat.ExpandView(o, "picks")
	censusMust(t, err)
	censusMust(t, cat.RemoveFromView(o, "picks", core.ObjectFile, spec.Name))
	censusMust(t, cat.AddToView(o, "picks", core.ObjectFile, spec.Name))
	_, err = cat.Annotate(o, core.ObjectFile, spec.Name, "checked")
	censusMust(t, err)
	_, err = cat.Annotations(o, core.ObjectFile, spec.Name)
	censusMust(t, err)
	censusMust(t, cat.AddProvenance(o, spec.Name, 0, "derived"))
	_, err = cat.Provenance(o, spec.Name, 0)
	censusMust(t, err)
	_, err = cat.AuditLog(o, core.ObjectFile, spec.Name)
	censusMust(t, err)
	censusMust(t, cat.RegisterWriter(o, core.Writer{DN: censusPublisher}))
	_, err = cat.GetWriter(o, censusPublisher)
	censusMust(t, err)
	_, err = cat.RegisterExternalCatalog(o, core.ExternalCatalog{Name: "rls", Type: "relational"})
	censusMust(t, err)
	_, err = cat.ExternalCatalogs(o)
	censusMust(t, err)
	_, err = cat.Permissions(o, core.ObjectCollection, "top")
	censusMust(t, err)
	censusMust(t, cat.Revoke(o, core.ObjectCollection, "top", censusReader, core.PermRead))
	censusMust(t, cat.UnsetAttribute(o, core.ObjectFile, spec.Name, censusAttr(1)))
	_, err = cat.GetAttributeDef(censusAttr(1))
	censusMust(t, err)
	_, err = cat.ListAttributeDefs()
	censusMust(t, err)
	_, _, err = cat.QueryFilesPage(o, censusSearch(1), 16, "")
	censusMust(t, err)
	censusMust(t, cat.DeleteFile(o, spec.Name, 0))
	censusMust(t, cat.DeleteView(o, "picks"))
	censusMust(t, cat.DeleteCollection(o, "side"))
	// The replay cache prunes once a keyed write takes it past its bound.
	for i := 0; i <= core.ReplayCacheBound; i++ {
		censusMust(t, cat.SetAttribute(o, core.ObjectCollection, "top", censusAttr(0), censusValue(0, i),
			core.WithIdempotencyKey(fmt.Sprintf("fill-%d", i))))
	}
}

func censusMust(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// censusSearch is an equality search over the first k attributes, for the
// values of file 0.
func censusSearch(k int) core.Query {
	var q core.Query
	for j := 0; j < k; j++ {
		q.Predicates = append(q.Predicates, core.Predicate{Attribute: censusAttr(j), Op: core.OpEq, Value: censusValue(j, 0)})
	}
	return q
}

// openCensusCatalog opens an authorizing catalog with the ten attributes,
// a two-level collection tree, the reader's grant on its top and the
// publisher's create, read, write and delete rights.
func openCensusCatalog(t *testing.T) *core.Catalog {
	t.Helper()
	cat, err := core.Open(core.Options{Owner: censusOwner, EnforceAuthz: true})
	censusMust(t, err)
	for j := 0; j < 10; j++ {
		_, err := cat.DefineAttribute(censusOwner, censusAttr(j), censusAttrTypes[j%len(censusAttrTypes)], "")
		censusMust(t, err)
	}
	_, err = cat.CreateCollection(censusOwner, core.CollectionSpec{Name: "top"})
	censusMust(t, err)
	_, err = cat.CreateCollection(censusOwner, core.CollectionSpec{Name: "leaf", Parent: "top"})
	censusMust(t, err)
	censusMust(t, cat.Grant(censusOwner, core.ObjectCollection, "top", censusReader, core.PermRead))
	censusMust(t, cat.Grant(censusOwner, core.ObjectService, "", censusPublisher, core.PermCreate))
	for _, perm := range []core.Permission{core.PermRead, core.PermWrite, core.PermDelete} {
		censusMust(t, cat.Grant(censusOwner, core.ObjectCollection, "top", censusPublisher, perm))
	}
	return cat
}

// placeholderRun matches an IN list of two or more parameters.
var placeholderRun = regexp.MustCompile(`\?(, \?)+`)

// censusKey is the golden's spelling of a statement: its text on one line,
// with an IN list of n parameters written ?×n.
func censusKey(sql string) string {
	return placeholderRun.ReplaceAllStringFunc(strings.Join(strings.Fields(sql), " "), func(run string) string {
		return fmt.Sprintf("?×%d", strings.Count(run, "?"))
	})
}

// whereSelect returns the SELECT whose plan is the access path of a
// statement's rows: the statement itself for a SELECT, the COUNT(*) of an
// UPDATE's or DELETE's table under its WHERE, and "" for anything else.
func whereSelect(t *testing.T, sql string) string {
	t.Helper()
	st, err := sqldb.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	var table string
	switch s := st.(type) {
	case *sqldb.SelectStmt:
		return sql
	case *sqldb.UpdateStmt:
		table = s.Table
	case *sqldb.DeleteStmt:
		table = s.Table
	default:
		return ""
	}
	where := ""
	if i := strings.Index(sql, " WHERE "); i >= 0 {
		where = sql[i:]
	}
	return "SELECT COUNT(*) FROM " + table + where
}

// explainAll explains every SELECT, UPDATE and DELETE of texts against db
// (see whereSelect), keyed by censusKey.
func explainAll(t *testing.T, db *sqldb.DB, texts []string) map[string]string {
	t.Helper()
	plans := map[string]string{}
	for _, sql := range texts {
		sel := whereSelect(t, sql)
		if sel == "" {
			continue
		}
		plan, err := db.Explain(sel)
		if err != nil {
			t.Fatalf("explain %q: %v", sql, err)
		}
		plans[censusKey(sql)] = plan
	}
	return plans
}

// formatCensus renders plans as the golden file holds them: statements in
// sorted order, each followed by its plan on an indented line.
func formatCensus(plans map[string]string) string {
	keys := make([]string, 0, len(plans))
	for k := range plans {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\n\t%s\n", k, plans[k])
	}
	return b.String()
}

// parseCensus reads the golden file back into statement → plan.
func parseCensus(t *testing.T, text string) map[string]string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines)%2 != 0 {
		t.Fatalf("%s: %d lines, want statement and plan pairs", censusGolden, len(lines))
	}
	plans := map[string]string{}
	for i := 0; i < len(lines); i += 2 {
		plan, ok := strings.CutPrefix(lines[i+1], "\t")
		if !ok {
			t.Fatalf("%s:%d: want a tab-indented plan, got %q", censusGolden, i+2, lines[i+1])
		}
		plans[lines[i]] = plan
	}
	return plans
}

// drivenCensusCatalog is the census's subject: a catalog driven through
// every operation kind, its files created over two ranges.
func drivenCensusCatalog(t *testing.T) *core.Catalog {
	t.Helper()
	cat := openCensusCatalog(t)
	driveCensusCatalog(t, cat, 0, 8)
	driveCensusCatalog(t, cat, 8, 400)
	driveCensusRest(t, cat)
	return cat
}

func TestPlanCensus(t *testing.T) {
	cat := drivenCensusCatalog(t)
	texts := cat.DB().StmtTexts()

	golden, err := os.ReadFile(censusGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := parseCensus(t, string(golden))
	for _, size := range []struct {
		name string
		db   *sqldb.DB
	}{
		{"an empty catalog", openCensusCatalog(t).DB()},
		{"the driven catalog", cat.DB()},
	} {
		got := explainAll(t, size.db, texts)
		failed := false
		for k, plan := range got {
			switch w, ok := want[k]; {
			case !ok:
				t.Errorf("on %s, a statement %s does not list:\n  %s\n  plan %s", size.name, censusGolden, k, plan)
				failed = true
			case plan != w:
				t.Errorf("plan changed on %s:\n  %s\n  got  %s\n  want %s", size.name, k, plan, w)
				failed = true
			}
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("the catalog no longer issues a statement %s lists:\n  %s", censusGolden, k)
				failed = true
			}
		}
		if failed {
			t.Logf("the census on %s:\n%s", size.name, formatCensus(got))
		}
	}
}

// indexRef matches an index a plan reads: its access path, the index an
// intersection cursor seeks or the index a page is driven by.
var indexRef = regexp.MustCompile(`(?:index-(?:eq|in|range)|seek|order)\(([^)]+)\)`)

// TestEveryCatalogIndexEarnsItsPlace: an index costs heap, restore time and
// a tree update on every write of its table, so each one the catalog keeps
// must be read by some census plan — as the access path of a SELECT, or of
// the WHERE of an UPDATE or DELETE, or as an intersection's cursor — or back a
// UNIQUE constraint.
func TestEveryCatalogIndexEarnsItsPlace(t *testing.T) {
	cat := drivenCensusCatalog(t)
	read := map[string]bool{}
	for _, plan := range explainAll(t, cat.DB(), cat.DB().StmtTexts()) {
		for _, m := range indexRef.FindAllStringSubmatch(plan, -1) {
			read[m[1]] = true
		}
	}
	indexes := cat.DB().Indexes()
	if len(indexes) == 0 {
		t.Fatal("the catalog has no indexes; the check is vacuous")
	}
	var idle []string
	for name, unique := range indexes {
		if !unique && !read[name] {
			idle = append(idle, name)
		}
	}
	sort.Strings(idle)
	if len(idle) > 0 {
		t.Errorf("no statement the catalog issues reads these indexes, and none backs a UNIQUE constraint: %s",
			strings.Join(idle, ", "))
	}
}
