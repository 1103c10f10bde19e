package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

const (
	alice = "/O=Grid/CN=Alice"
	bob   = "/O=Grid/CN=Bob"
	admin = "/O=Grid/CN=Admin"
)

func openCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func openAuthzCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := Open(Options{Owner: admin, EnforceAuthz: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCreateAndGetFile(t *testing.T) {
	c := openCatalog(t)
	f, err := c.CreateFile(alice, FileSpec{Name: "run1.gwf", DataType: "binary"})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID == 0 || f.Version != 1 || !f.Valid || f.Creator != alice {
		t.Fatalf("created file = %+v", f)
	}
	got, err := c.GetFile(alice, "run1.gwf", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != f.ID || got.DataType != "binary" {
		t.Fatalf("got = %+v", got)
	}
	if _, err := c.GetFile(alice, "nosuch", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file err = %v", err)
	}
}

func TestFileVersioning(t *testing.T) {
	c := openCatalog(t)
	f1, _ := c.CreateFile(alice, FileSpec{Name: "data"})
	f2, err := c.CreateFile(alice, FileSpec{Name: "data"})
	if err != nil {
		t.Fatal(err)
	}
	if f1.Version != 1 || f2.Version != 2 {
		t.Fatalf("versions = %d, %d", f1.Version, f2.Version)
	}
	// With multiple versions, an unversioned get must fail.
	if _, err := c.GetFile(alice, "data", 0); !errors.Is(err, ErrAmbiguousFile) {
		t.Fatalf("unversioned get err = %v", err)
	}
	got, err := c.GetFile(alice, "data", 2)
	if err != nil || got.ID != f2.ID {
		t.Fatalf("versioned get = %+v, %v", got, err)
	}
	vs, err := c.FileVersions(alice, "data")
	if err != nil || len(vs) != 2 {
		t.Fatalf("FileVersions = %v, %v", vs, err)
	}
	// Explicit duplicate version must fail.
	if _, err := c.CreateFile(alice, FileSpec{Name: "data", Version: 2}); !errors.Is(err, ErrExists) {
		t.Fatalf("dup version err = %v", err)
	}
}

func TestCreateFileWithAttributesAtomic(t *testing.T) {
	c := openCatalog(t)
	if _, err := c.DefineAttribute(alice, "frequency", AttrFloat, "band Hz"); err != nil {
		t.Fatal(err)
	}
	_, err := c.CreateFile(alice, FileSpec{
		Name: "f1",
		Attributes: []Attribute{
			{Name: "frequency", Value: Float(40.5)},
			{Name: "undefined-attr", Value: String("x")},
		},
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Nothing must have been created (atomicity).
	if _, err := c.GetFile(alice, "f1", 0); !errors.Is(err, ErrNotFound) {
		t.Fatal("partial file survived failed create")
	}
	st, _ := c.Stats()
	if st.Attributes != 0 {
		t.Fatalf("dangling attributes: %+v", st)
	}
	// Successful path.
	f, err := c.CreateFile(alice, FileSpec{
		Name:       "f1",
		Attributes: []Attribute{{Name: "frequency", Value: Float(40.5)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := c.GetAttributes(alice, ObjectFile, "f1")
	if err != nil || len(attrs) != 1 || attrs[0].Value.F != 40.5 {
		t.Fatalf("attrs = %v, %v", attrs, err)
	}
	_ = f
}

func TestUpdateFileStaticAttributes(t *testing.T) {
	c := openCatalog(t)
	c.CreateFile(alice, FileSpec{Name: "f", DataType: "binary"}) //nolint:errcheck
	dt := "xml"
	mc := "gsiftp://host/path"
	f, err := c.UpdateFile(alice, "f", 0, FileUpdate{DataType: &dt, MasterCopy: &mc})
	if err != nil {
		t.Fatal(err)
	}
	if f.DataType != "xml" || f.MasterCopy != mc {
		t.Fatalf("updated = %+v", f)
	}
	got, _ := c.GetFile(alice, "f", 0)
	if got.DataType != "xml" || got.MasterCopy != mc || got.LastModifier != alice {
		t.Fatalf("persisted = %+v", got)
	}
}

func TestInvalidateFile(t *testing.T) {
	c := openCatalog(t)
	c.CreateFile(alice, FileSpec{Name: "bad-data"}) //nolint:errcheck
	if err := c.InvalidateFile(alice, "bad-data", 0); err != nil {
		t.Fatal(err)
	}
	f, _ := c.GetFile(alice, "bad-data", 0)
	if f.Valid {
		t.Fatal("file still valid after invalidation")
	}
	// Invalid files are excluded by a valid=1 predicate.
	names, err := c.RunQuery(alice, Query{Predicates: []Predicate{
		{Attribute: "valid", Op: OpEq, Value: Int(1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("invalid file matched valid=1: %v", names)
	}
}

func TestDeleteFileCleansUp(t *testing.T) {
	c := openCatalog(t)
	c.DefineAttribute(alice, "k", AttrString, "")                                        //nolint:errcheck
	c.CreateFile(alice, FileSpec{Name: "f", Attributes: []Attribute{{"k", String("v")}}, //nolint:errcheck
		Provenance: "created by test"})
	c.Annotate(alice, ObjectFile, "f", "a note") //nolint:errcheck
	v, _ := c.CreateView(alice, ViewSpec{Name: "view1"})
	_ = v
	c.AddToView(alice, "view1", ObjectFile, "f") //nolint:errcheck
	if err := c.DeleteFile(alice, "f", 0); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Stats()
	if st.Files != 0 || st.Attributes != 0 {
		t.Fatalf("leftovers: %+v", st)
	}
	members, _ := c.ViewContents(alice, "view1")
	if len(members) != 0 {
		t.Fatalf("view still references deleted file: %v", members)
	}
	// Name can be reused.
	if _, err := c.CreateFile(alice, FileSpec{Name: "f"}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionsHierarchy(t *testing.T) {
	c := openCatalog(t)
	root, err := c.CreateCollection(alice, CollectionSpec{Name: "ligo", Description: "LIGO data"})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.CreateCollection(alice, CollectionSpec{Name: "ligo-s2", Parent: "ligo"})
	if err != nil {
		t.Fatal(err)
	}
	if s2.ParentID != root.ID {
		t.Fatalf("parent = %d, want %d", s2.ParentID, root.ID)
	}
	c.CreateFile(alice, FileSpec{Name: "a.gwf", Collection: "ligo-s2"}) //nolint:errcheck
	c.CreateFile(alice, FileSpec{Name: "b.gwf", Collection: "ligo-s2"}) //nolint:errcheck
	files, subs, err := c.CollectionContents(alice, "ligo-s2")
	if err != nil || len(files) != 2 || len(subs) != 0 {
		t.Fatalf("contents = %v, %v, %v", files, subs, err)
	}
	_, subs, _ = c.CollectionContents(alice, "ligo")
	if len(subs) != 1 || subs[0].Name != "ligo-s2" {
		t.Fatalf("root subs = %v", subs)
	}
}

func TestCollectionCycleRejected(t *testing.T) {
	c := openCatalog(t)
	c.CreateCollection(alice, CollectionSpec{Name: "a"})              //nolint:errcheck
	c.CreateCollection(alice, CollectionSpec{Name: "b", Parent: "a"}) //nolint:errcheck
	c.CreateCollection(alice, CollectionSpec{Name: "c", Parent: "b"}) //nolint:errcheck
	if err := c.SetCollectionParent(alice, "a", "c"); !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle err = %v", err)
	}
	// Legitimate re-parent still works.
	if err := c.SetCollectionParent(alice, "c", "a"); err != nil {
		t.Fatal(err)
	}
	// Self-parent is a cycle.
	if err := c.SetCollectionParent(alice, "a", "a"); !errors.Is(err, ErrCycle) {
		t.Fatalf("self-parent err = %v", err)
	}
}

func TestDeleteCollectionRequiresEmpty(t *testing.T) {
	c := openCatalog(t)
	c.CreateCollection(alice, CollectionSpec{Name: "col"})      //nolint:errcheck
	c.CreateFile(alice, FileSpec{Name: "f", Collection: "col"}) //nolint:errcheck
	if err := c.DeleteCollection(alice, "col"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v", err)
	}
	c.DeleteFile(alice, "f", 0) //nolint:errcheck
	if err := c.DeleteCollection(alice, "col"); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateCollectionName(t *testing.T) {
	c := openCatalog(t)
	c.CreateCollection(alice, CollectionSpec{Name: "dup"}) //nolint:errcheck
	if _, err := c.CreateCollection(alice, CollectionSpec{Name: "dup"}); err == nil {
		t.Fatal("duplicate collection name accepted")
	}
}

func TestFileInAtMostOneCollection(t *testing.T) {
	c := openCatalog(t)
	c.CreateCollection(alice, CollectionSpec{Name: "c1"})      //nolint:errcheck
	c.CreateCollection(alice, CollectionSpec{Name: "c2"})      //nolint:errcheck
	c.CreateFile(alice, FileSpec{Name: "f", Collection: "c1"}) //nolint:errcheck
	if err := c.MoveFile(alice, "f", 0, "c2"); err != nil {
		t.Fatal(err)
	}
	files, _, _ := c.CollectionContents(alice, "c1")
	if len(files) != 0 {
		t.Fatal("file still in old collection after move")
	}
	files, _, _ = c.CollectionContents(alice, "c2")
	if len(files) != 1 {
		t.Fatal("file not in new collection")
	}
	// Remove from all collections.
	if err := c.MoveFile(alice, "f", 0, ""); err != nil {
		t.Fatal(err)
	}
	files, _, _ = c.CollectionContents(alice, "c2")
	if len(files) != 0 {
		t.Fatal("file still in collection after removal")
	}
}

func TestViewsAggregation(t *testing.T) {
	c := openCatalog(t)
	c.CreateCollection(alice, CollectionSpec{Name: "col"})        //nolint:errcheck
	c.CreateFile(alice, FileSpec{Name: "f1", Collection: "col"})  //nolint:errcheck
	c.CreateFile(alice, FileSpec{Name: "f2"})                     //nolint:errcheck
	c.CreateView(alice, ViewSpec{Name: "v1", Description: "sel"}) //nolint:errcheck
	if err := c.AddToView(alice, "v1", ObjectFile, "f2"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddToView(alice, "v1", ObjectCollection, "col"); err != nil {
		t.Fatal(err)
	}
	members, err := c.ViewContents(alice, "v1")
	if err != nil || len(members) != 2 {
		t.Fatalf("members = %v, %v", members, err)
	}
	names, err := c.ExpandView(alice, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 { // f2 directly, f1 via collection
		t.Fatalf("expanded = %v", names)
	}
	// Duplicate membership rejected.
	if err := c.AddToView(alice, "v1", ObjectFile, "f2"); !errors.Is(err, ErrExists) {
		t.Fatalf("dup member err = %v", err)
	}
	// A file may belong to many views (unlike collections).
	c.CreateView(alice, ViewSpec{Name: "v2"}) //nolint:errcheck
	if err := c.AddToView(alice, "v2", ObjectFile, "f2"); err != nil {
		t.Fatal(err)
	}
}

func TestViewCycleRejected(t *testing.T) {
	c := openCatalog(t)
	c.CreateView(alice, ViewSpec{Name: "a"}) //nolint:errcheck
	c.CreateView(alice, ViewSpec{Name: "b"}) //nolint:errcheck
	c.CreateView(alice, ViewSpec{Name: "c"}) //nolint:errcheck
	c.AddToView(alice, "a", ObjectView, "b") //nolint:errcheck
	c.AddToView(alice, "b", ObjectView, "c") //nolint:errcheck
	if err := c.AddToView(alice, "c", ObjectView, "a"); !errors.Is(err, ErrCycle) {
		t.Fatalf("view cycle err = %v", err)
	}
	if err := c.AddToView(alice, "a", ObjectView, "a"); !errors.Is(err, ErrCycle) {
		t.Fatalf("self view err = %v", err)
	}
	// Nested expansion works.
	c.CreateFile(alice, FileSpec{Name: "deep"}) //nolint:errcheck
	c.AddToView(alice, "c", ObjectFile, "deep") //nolint:errcheck
	names, err := c.ExpandView(alice, "a")
	if err != nil || len(names) != 1 || names[0] != "deep" {
		t.Fatalf("nested expansion = %v, %v", names, err)
	}
}

func TestRemoveFromView(t *testing.T) {
	c := openCatalog(t)
	c.CreateView(alice, ViewSpec{Name: "v"}) //nolint:errcheck
	c.CreateFile(alice, FileSpec{Name: "f"}) //nolint:errcheck
	c.AddToView(alice, "v", ObjectFile, "f") //nolint:errcheck
	if err := c.RemoveFromView(alice, "v", ObjectFile, "f"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveFromView(alice, "v", ObjectFile, "f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestUserAttributeLifecycle(t *testing.T) {
	c := openCatalog(t)
	def, err := c.DefineAttribute(alice, "channel", AttrString, "LIGO channel name")
	if err != nil {
		t.Fatal(err)
	}
	if def.Type != AttrString {
		t.Fatalf("def = %+v", def)
	}
	// Redefinition fails.
	if _, err := c.DefineAttribute(alice, "channel", AttrInt, ""); !errors.Is(err, ErrExists) {
		t.Fatalf("redefine err = %v", err)
	}
	// Shadowing a static attribute fails.
	if _, err := c.DefineAttribute(alice, "dataType", AttrString, ""); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("shadow err = %v", err)
	}
	c.CreateFile(alice, FileSpec{Name: "f"}) //nolint:errcheck
	if err := c.SetAttribute(alice, ObjectFile, "f", "channel", String("H1")); err != nil {
		t.Fatal(err)
	}
	// Type mismatch.
	if err := c.SetAttribute(alice, ObjectFile, "f", "channel", Int(2)); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("type mismatch err = %v", err)
	}
	// Replacement semantics.
	if err := c.SetAttribute(alice, ObjectFile, "f", "channel", String("L1")); err != nil {
		t.Fatal(err)
	}
	attrs, _ := c.GetAttributes(alice, ObjectFile, "f")
	if len(attrs) != 1 || attrs[0].Value.S != "L1" {
		t.Fatalf("attrs = %v", attrs)
	}
	// Unset.
	if err := c.UnsetAttribute(alice, ObjectFile, "f", "channel"); err != nil {
		t.Fatal(err)
	}
	if err := c.UnsetAttribute(alice, ObjectFile, "f", "channel"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double unset err = %v", err)
	}
}

func TestAttributesOnCollectionsAndViews(t *testing.T) {
	c := openCatalog(t)
	c.DefineAttribute(alice, "project", AttrString, "") //nolint:errcheck
	c.CreateCollection(alice, CollectionSpec{Name: "col",
		Attributes: []Attribute{{"project", String("esg")}}}) //nolint:errcheck
	c.CreateView(alice, ViewSpec{Name: "v",
		Attributes: []Attribute{{"project", String("ligo")}}}) //nolint:errcheck
	ca, err := c.GetAttributes(alice, ObjectCollection, "col")
	if err != nil || len(ca) != 1 || ca[0].Value.S != "esg" {
		t.Fatalf("collection attrs = %v, %v", ca, err)
	}
	va, err := c.GetAttributes(alice, ObjectView, "v")
	if err != nil || len(va) != 1 || va[0].Value.S != "ligo" {
		t.Fatalf("view attrs = %v, %v", va, err)
	}
	// Collection query by attribute.
	names, err := c.RunQuery(alice, Query{
		Target:     ObjectCollection,
		Predicates: []Predicate{{Attribute: "project", Op: OpEq, Value: String("esg")}},
	})
	if err != nil || len(names) != 1 || names[0] != "col" {
		t.Fatalf("collection query = %v, %v", names, err)
	}
}

func TestAllAttributeTypes(t *testing.T) {
	c := openCatalog(t)
	now := time.Date(2003, 11, 15, 10, 30, 0, 0, time.UTC)
	c.DefineAttribute(alice, "s", AttrString, "")    //nolint:errcheck
	c.DefineAttribute(alice, "i", AttrInt, "")       //nolint:errcheck
	c.DefineAttribute(alice, "fl", AttrFloat, "")    //nolint:errcheck
	c.DefineAttribute(alice, "d", AttrDate, "")      //nolint:errcheck
	c.DefineAttribute(alice, "tm", AttrTime, "")     //nolint:errcheck
	c.DefineAttribute(alice, "dt", AttrDateTime, "") //nolint:errcheck
	c.CreateFile(alice, FileSpec{Name: "f", Attributes: []Attribute{
		{"s", String("str")}, {"i", Int(-7)}, {"fl", Float(2.5)},
		{"d", Date(now)}, {"tm", TimeOfDay(now)}, {"dt", DateTime(now)},
	}}) //nolint:errcheck
	attrs, err := c.GetAttributes(alice, ObjectFile, "f")
	if err != nil || len(attrs) != 6 {
		t.Fatalf("attrs = %v, %v", attrs, err)
	}
	byName := map[string]AttrValue{}
	for _, a := range attrs {
		byName[a.Name] = a.Value
	}
	if byName["s"].S != "str" || byName["i"].I != -7 || byName["fl"].F != 2.5 {
		t.Fatalf("scalar values = %v", byName)
	}
	if byName["d"].T.Hour() != 0 || byName["d"].T.Day() != 15 {
		t.Fatalf("date = %v", byName["d"].T)
	}
	if byName["tm"].T.Hour() != 10 || byName["tm"].T.Minute() != 30 {
		t.Fatalf("time = %v", byName["tm"].T)
	}
	if !byName["dt"].T.Equal(now) {
		t.Fatalf("datetime = %v", byName["dt"].T)
	}
	// Each type is queryable.
	for _, p := range []Predicate{
		{"s", OpEq, String("str")},
		{"i", OpEq, Int(-7)},
		{"fl", OpGt, Float(2.0)},
		{"d", OpEq, Date(now)},
		{"dt", OpLe, DateTime(now)},
	} {
		names, err := c.RunQuery(alice, Query{Predicates: []Predicate{p}})
		if err != nil || len(names) != 1 {
			t.Fatalf("query on %s: %v, %v", p.Attribute, names, err)
		}
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	now := time.Date(2003, 11, 15, 10, 30, 45, 0, time.UTC)
	vals := []AttrValue{
		String("hello world"), Int(-42), Float(3.25), Float(math.Inf(1)), Float(math.Inf(-1)),
		Date(now), TimeOfDay(now), DateTime(now),
	}
	for _, v := range vals {
		parsed, err := ParseAttrValue(v.Type, v.Render())
		if err != nil {
			t.Fatalf("parse %s %q: %v", v.Type, v.Render(), err)
		}
		if parsed.Render() != v.Render() {
			t.Fatalf("round trip %s: %q != %q", v.Type, parsed.Render(), v.Render())
		}
	}
	if _, err := ParseAttrValue(AttrInt, "not a number"); err == nil {
		t.Fatal("bad int parse accepted")
	}
	if _, err := ParseAttrValue(AttrDate, "15/11/2003"); err == nil {
		t.Fatal("bad date parse accepted")
	}
	// NaN is unordered: both wires and the CLI parse through here, so it
	// is refused as invalid input at the one door.
	for _, s := range []string{"NaN", "nan"} {
		if _, err := ParseAttrValue(AttrFloat, s); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("ParseAttrValue(float, %q) = %v, want ErrInvalidInput", s, err)
		}
	}
}

func TestQueryStaticAndUserMix(t *testing.T) {
	c := openCatalog(t)
	c.DefineAttribute(alice, "band", AttrString, "") //nolint:errcheck
	c.DefineAttribute(alice, "dur", AttrInt, "")     //nolint:errcheck
	for i := 0; i < 20; i++ {
		band := "low"
		if i%2 == 0 {
			band = "high"
		}
		c.CreateFile(alice, FileSpec{
			Name:     fmt.Sprintf("f%02d", i),
			DataType: "binary",
			Attributes: []Attribute{
				{"band", String(band)},
				{"dur", Int(int64(i * 10))},
			},
		}) //nolint:errcheck
	}
	// Single user attribute.
	names, err := c.RunQuery(alice, Query{Predicates: []Predicate{
		{"band", OpEq, String("high")},
	}})
	if err != nil || len(names) != 10 {
		t.Fatalf("band query = %d, %v", len(names), err)
	}
	// Conjunction of two user attributes.
	names, err = c.RunQuery(alice, Query{Predicates: []Predicate{
		{"band", OpEq, String("high")},
		{"dur", OpGe, Int(100)},
	}})
	if err != nil || len(names) != 5 {
		t.Fatalf("band+dur query = %v, %v", names, err)
	}
	// Static + user mix.
	names, err = c.RunQuery(alice, Query{Predicates: []Predicate{
		{"dataType", OpEq, String("binary")},
		{"band", OpEq, String("low")},
		{"dur", OpLt, Int(50)},
	}})
	if err != nil || len(names) != 3 { // f01, f03 -> dur 10,30 ... wait: odd i => low; dur<50 => i in {1,3} -> 2? recompute below
		// odd i: 1,3,5,... dur = i*10 => dur<50 => i in {1,3} => 2 files.
		if len(names) != 2 {
			t.Fatalf("mixed query = %v, %v", names, err)
		}
	}
	// LIKE on the static name.
	names, err = c.RunQuery(alice, Query{Predicates: []Predicate{
		{"name", OpLike, String("f1%")},
	}})
	if err != nil || len(names) != 10 {
		t.Fatalf("LIKE query = %d, %v", len(names), err)
	}
	// Limit.
	names, _ = c.RunQuery(alice, Query{
		Predicates: []Predicate{{"dataType", OpEq, String("binary")}},
		Limit:      5,
	})
	if len(names) != 5 {
		t.Fatalf("limited query = %d", len(names))
	}
	// No match.
	names, _ = c.RunQuery(alice, Query{Predicates: []Predicate{
		{"band", OpEq, String("none")},
	}})
	if len(names) != 0 {
		t.Fatalf("no-match query = %v", names)
	}
}

func TestQueryUsesAttributeIndex(t *testing.T) {
	c := openCatalog(t)
	c.DefineAttribute(alice, "x", AttrString, "") //nolint:errcheck
	sql, err := c.ExplainQuery(Query{Predicates: []Predicate{{"x", OpEq, String("v")}}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.DB().Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if plan == "full-scan(user_attribute)" {
		t.Fatalf("complex query plans a full scan: %s", plan)
	}
}

func TestQueryFiles(t *testing.T) {
	c := openCatalog(t)
	c.CreateFile(alice, FileSpec{Name: "qf", DataType: "xml"}) //nolint:errcheck
	files, err := c.QueryFiles(alice, Query{Predicates: []Predicate{
		{"dataType", OpEq, String("xml")},
	}})
	if err != nil || len(files) != 1 || files[0].Name != "qf" {
		t.Fatalf("QueryFiles = %v, %v", files, err)
	}
}

func TestAnnotations(t *testing.T) {
	c := openCatalog(t)
	c.CreateFile(alice, FileSpec{Name: "f"}) //nolint:errcheck
	a, err := c.Annotate(bob, ObjectFile, "f", "looks suspicious around t=1500")
	if err != nil {
		t.Fatal(err)
	}
	if a.Creator != bob {
		t.Fatalf("annotation = %+v", a)
	}
	c.Annotate(alice, ObjectFile, "f", "recalibrated") //nolint:errcheck
	anns, err := c.Annotations(alice, ObjectFile, "f")
	if err != nil || len(anns) != 2 {
		t.Fatalf("annotations = %v, %v", anns, err)
	}
	if anns[0].Text != "looks suspicious around t=1500" {
		t.Fatalf("order wrong: %v", anns)
	}
	if _, err := c.Annotate(alice, ObjectFile, "f", ""); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("empty annotation err = %v", err)
	}
}

func TestProvenance(t *testing.T) {
	c := openCatalog(t)
	c.CreateFile(alice, FileSpec{Name: "derived", Provenance: "created by pulsar-search v1.2"}) //nolint:errcheck
	c.AddProvenance(alice, "derived", 0, "recalibrated with v1.3")                              //nolint:errcheck
	recs, err := c.Provenance(alice, "derived", 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("provenance = %v, %v", recs, err)
	}
	if recs[0].Description != "created by pulsar-search v1.2" {
		t.Fatalf("order: %v", recs)
	}
}

func TestAuditTrail(t *testing.T) {
	c := openCatalog(t)
	c.CreateFile(alice, FileSpec{Name: "f", Audited: true}) //nolint:errcheck
	dt := "xml"
	c.UpdateFile(bob, "f", 0, FileUpdate{DataType: &dt}) //nolint:errcheck
	recs, err := c.AuditLog(alice, ObjectFile, "f")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Action != "create" || recs[1].Action != "update" {
		t.Fatalf("audit = %v", recs)
	}
	if recs[0].DN != alice || recs[1].DN != bob {
		t.Fatalf("audit DNs = %v", recs)
	}
	// Unaudited file records nothing.
	c.CreateFile(alice, FileSpec{Name: "quiet"})               //nolint:errcheck
	c.UpdateFile(alice, "quiet", 0, FileUpdate{DataType: &dt}) //nolint:errcheck
	recs, _ = c.AuditLog(alice, ObjectFile, "quiet")
	if len(recs) != 0 {
		t.Fatalf("unaudited file has audit records: %v", recs)
	}
}

func TestWriters(t *testing.T) {
	c := openCatalog(t)
	w := Writer{DN: alice, Institution: "ISI", Email: "alice@isi.edu"}
	if err := c.RegisterWriter(alice, w); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetWriter(alice, alice)
	if err != nil || got.Institution != "ISI" {
		t.Fatalf("writer = %+v, %v", got, err)
	}
	// Upsert.
	w.Institution = "USC/ISI"
	c.RegisterWriter(alice, w) //nolint:errcheck
	got, _ = c.GetWriter(alice, alice)
	if got.Institution != "USC/ISI" {
		t.Fatalf("updated writer = %+v", got)
	}
	if _, err := c.GetWriter(alice, "/CN=nobody"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing writer err = %v", err)
	}
}

func TestExternalCatalogs(t *testing.T) {
	c := openCatalog(t)
	ec, err := c.RegisterExternalCatalog(alice, ExternalCatalog{
		Name: "esg-xml", Type: "xml", Host: "esg.llnl.gov", IP: "198.128.0.1",
	})
	if err != nil || ec.ID == 0 {
		t.Fatalf("register = %+v, %v", ec, err)
	}
	list, err := c.ExternalCatalogs(alice)
	if err != nil || len(list) != 1 || list[0].Name != "esg-xml" {
		t.Fatalf("list = %v, %v", list, err)
	}
	if _, err := c.RegisterExternalCatalog(alice, ExternalCatalog{Name: "esg-xml", Type: "x"}); !errors.Is(err, ErrExists) {
		t.Fatalf("dup err = %v", err)
	}
}

// TestDuplicateCollectionIsExists: a second collection under a name in use
// is ErrExists, and the first stays as it was.
func TestDuplicateCollectionIsExists(t *testing.T) {
	c := openCatalog(t)
	first, err := c.CreateCollection(alice, CollectionSpec{Name: "runs", Description: "first"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateCollection(bob, CollectionSpec{Name: "runs", Description: "second"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate collection: err = %v, want ErrExists", err)
	}
	if got, err := c.GetCollection(alice, "runs"); err != nil || got.ID != first.ID || got.Description != "first" {
		t.Fatalf("the collection after the refused duplicate = %+v, %v", got, err)
	}
}

// TestDuplicateViewIsExists: a second view under a name in use is
// ErrExists, and the first stays as it was.
func TestDuplicateViewIsExists(t *testing.T) {
	c := openCatalog(t)
	first, err := c.CreateView(alice, ViewSpec{Name: "best", Description: "first"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateView(bob, ViewSpec{Name: "best", Description: "second"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate view: err = %v, want ErrExists", err)
	}
	if got, err := c.GetView(alice, "best"); err != nil || got.ID != first.ID || got.Description != "first" {
		t.Fatalf("the view after the refused duplicate = %+v, %v", got, err)
	}
}
