package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// countStatements runs fn with a fault hook that tallies statements per
// verb, returning the tally. The hook is removed afterwards.
func countStatements(c *Catalog, fn func()) map[string]int {
	var selects, writes atomic.Int64
	c.db.SetFaultHook(func(verb string) error {
		if verb == "select" {
			selects.Add(1)
		} else {
			writes.Add(1)
		}
		return nil
	})
	defer c.db.SetFaultHook(nil)
	fn()
	return map[string]int{"select": int(selects.Load()), "other": int(writes.Load())}
}

// deepCatalog builds a collection chain root -> c1 -> ... -> c<depth> with
// one file in the deepest collection, owned by admin, and grants bob read
// on the root so authorization must walk the entire chain.
func deepCatalog(t *testing.T, depth int) (*Catalog, string) {
	t.Helper()
	c := openAuthzCatalog(t)
	parent := ""
	for i := 0; i <= depth; i++ {
		name := fmt.Sprintf("c%d", i)
		if _, err := c.CreateCollection(admin, CollectionSpec{Name: name, Parent: parent}); err != nil {
			t.Fatal(err)
		}
		parent = name
	}
	if _, err := c.CreateFile(admin, FileSpec{Name: "deep.dat", Collection: parent}); err != nil {
		t.Fatal(err)
	}
	if err := c.Grant(admin, ObjectCollection, "c0", bob, PermRead); err != nil {
		t.Fatal(err)
	}
	return c, "deep.dat"
}

// TestAuthzChainStatementCountIsDepthIndependent asserts the satellite fix
// for the authorization N+1: resolving a read through an inherited grant on
// the hierarchy root must issue the same number of statements regardless of
// how deep the hierarchy is (the old walk issued three per level: the
// parent lookup, the creator lookup and the grant probe).
func TestAuthzChainStatementCountIsDepthIndependent(t *testing.T) {
	counts := make([]int, 0, 2)
	for _, depth := range []int{3, 12} {
		c, name := deepCatalog(t, depth)
		stmts := countStatements(c, func() {
			if _, err := c.GetFile(bob, name, 1); err != nil {
				t.Fatalf("depth %d: %v", depth, err)
			}
		})
		if stmts["other"] != 0 {
			t.Fatalf("depth %d: read issued %d write statements", depth, stmts["other"])
		}
		counts = append(counts, stmts["select"])
	}
	if counts[0] != counts[1] {
		t.Fatalf("statement count grows with hierarchy depth: depth 3 = %d, depth 12 = %d",
			counts[0], counts[1])
	}
	if counts[0] == 0 {
		t.Fatal("fault hook observed no statements")
	}
}

// TestEpochCachesAnswerRepeatReads asserts that a repeated read with no
// commit in between is answered entirely from the file, grant and tree
// caches: zero statements reach the engine.
func TestEpochCachesAnswerRepeatReads(t *testing.T) {
	c, name := deepCatalog(t, 4)
	if _, err := c.GetFile(bob, name, 1); err != nil { // warm the caches
		t.Fatal(err)
	}
	stmts := countStatements(c, func() {
		f, err := c.GetFile(bob, name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name != name {
			t.Fatalf("cached file = %+v", f)
		}
	})
	if stmts["select"] != 0 {
		t.Fatalf("repeat read issued %d statements, want 0 (cache hit)", stmts["select"])
	}
}

// TestEpochCachesInvalidatedByCommit asserts that cached grants never
// outlive acl's epoch: a revoke (one committed write) must be visible to
// the very next read.
func TestEpochCachesInvalidatedByCommit(t *testing.T) {
	c, name := deepCatalog(t, 4)
	if _, err := c.GetFile(bob, name, 1); err != nil {
		t.Fatal(err) // caches now hold "bob may read" at the current epoch
	}
	if err := c.Revoke(admin, ObjectCollection, "c0", bob, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetFile(bob, name, 1); !errors.Is(err, ErrDenied) {
		t.Fatalf("read after revoke = %v, want ErrDenied", err)
	}
	// And the reverse: a fresh grant is visible immediately too.
	if err := c.Grant(admin, ObjectCollection, "c2", bob, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetFile(bob, name, 1); err != nil {
		t.Fatalf("read after re-grant: %v", err)
	}
}

// TestFileCacheSeesUpdates asserts the file-by-name cache never serves
// pre-update metadata after a committed UpdateFile.
func TestFileCacheSeesUpdates(t *testing.T) {
	c := openCatalog(t)
	if _, err := c.CreateFile(alice, FileSpec{Name: "f", DataType: "binary"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetFile(alice, "f", 0); err != nil { // warm the cache
		t.Fatal(err)
	}
	newType := "hdf5"
	if _, err := c.UpdateFile(alice, "f", 0, FileUpdate{DataType: &newType}); err != nil {
		t.Fatal(err)
	}
	f, err := c.GetFile(alice, "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.DataType != "hdf5" {
		t.Fatalf("DataType after update = %q, cache served stale metadata", f.DataType)
	}
}

// TestRunQueryAttrsStatementCountIsResultIndependent asserts the hydration
// batching: returning attributes for N matches must cost the same number of
// statements for any N (the old path ran GetAttributes once per match).
func TestRunQueryAttrsStatementCountIsResultIndependent(t *testing.T) {
	counts := make([]int, 0, 2)
	for _, n := range []int{4, 16} {
		c := openCatalog(t)
		if _, err := c.DefineAttribute(alice, "experiment", AttrString, ""); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			_, err := c.CreateFile(alice, FileSpec{
				Name:       fmt.Sprintf("file%02d", i),
				DataType:   "gwf",
				Attributes: []Attribute{{Name: "experiment", Value: String("ligo")}},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		q := Query{Predicates: []Predicate{{Attribute: "experiment", Op: OpEq, Value: String("ligo")}}}
		stmts := countStatements(c, func() {
			res, err := c.RunQueryAttrs(alice, q, []string{"experiment"})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != n {
				t.Fatalf("results = %d, want %d", len(res), n)
			}
			for _, r := range res {
				if len(r.Attributes) != 1 || r.Attributes[0].Value.S != "ligo" {
					t.Fatalf("hydrated %q = %+v", r.Name, r.Attributes)
				}
			}
		})
		counts = append(counts, stmts["select"])
	}
	if counts[0] != counts[1] {
		t.Fatalf("statement count grows with result size: n=4 -> %d, n=16 -> %d",
			counts[0], counts[1])
	}
}

// TestQueryFilesStatementCountIsResultIndependent does the same for the
// full-metadata QueryFiles path (formerly one FileVersions per match).
func TestQueryFilesStatementCountIsResultIndependent(t *testing.T) {
	counts := make([]int, 0, 2)
	for _, n := range []int{4, 16} {
		c := openCatalog(t)
		for i := 0; i < n; i++ {
			if _, err := c.CreateFile(alice, FileSpec{Name: fmt.Sprintf("file%02d", i), DataType: "gwf"}); err != nil {
				t.Fatal(err)
			}
		}
		q := Query{Predicates: []Predicate{{Attribute: "dataType", Op: OpEq, Value: String("gwf")}}}
		stmts := countStatements(c, func() {
			files, err := c.QueryFiles(alice, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != n {
				t.Fatalf("files = %d, want %d", len(files), n)
			}
		})
		counts = append(counts, stmts["select"])
	}
	if counts[0] != counts[1] {
		t.Fatalf("statement count grows with result size: n=4 -> %d, n=16 -> %d",
			counts[0], counts[1])
	}
}

// TestRunQueryAuthzFilterBatched: with authorization on, the post-query
// visibility filter must not issue one resolve per matched name. The
// decisions are made in memory from the cached grants and tree, so a
// repeated query costs only the resolve batch plus the match query.
func TestRunQueryAuthzFilterBatched(t *testing.T) {
	c := openAuthzCatalog(t)
	if err := c.Grant(admin, ObjectService, "", alice, PermCreate); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := c.CreateFile(alice, FileSpec{Name: fmt.Sprintf("file%02d", i), DataType: "gwf"}); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Predicates: []Predicate{{Attribute: "dataType", Op: OpEq, Value: String("gwf")}}}
	first, err := c.RunQuery(alice, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 12 {
		t.Fatalf("visible = %d, want 12", len(first))
	}
	stmts := countStatements(c, func() {
		again, err := c.RunQuery(alice, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != 12 {
			t.Fatalf("visible on repeat = %d, want 12", len(again))
		}
	})
	// Match query + one resolve chunk; the grants come from the cache the
	// first run filled.
	if stmts["select"] > 2 {
		t.Fatalf("repeat authz-filtered query issued %d statements, want <= 2", stmts["select"])
	}
}

const (
	pinReader    = "/O=Grid/CN=pin-reader"
	pinPublisher = "/O=Grid/CN=pin-publisher"
	pinFiles     = 1200
)

// pinAttrs are the ten string attributes every pinned file carries;
// attribute j takes j+2 values.
func pinAttrs(i int) []Attribute {
	attrs := make([]Attribute, 10)
	for j := range attrs {
		attrs[j] = Attribute{Name: fmt.Sprintf("p%02d", j), Value: String(fmt.Sprintf("v%d", i%(j+2)))}
	}
	return attrs
}

// pinCatalog builds the catalog the statement-count pins read: a chain of
// depth collections under "top", eight leaves under the chain's end holding
// pinFiles files with ten attributes each, a reader whose only grant is
// read on "top", and a publisher holding service create and write on its
// own sub-collection "pub" at the chain's end.
func pinCatalog(t *testing.T, depth int) *Catalog {
	t.Helper()
	c := openAuthzCatalog(t)
	for j := 0; j < 10; j++ {
		if _, err := c.DefineAttribute(admin, fmt.Sprintf("p%02d", j), AttrString, ""); err != nil {
			t.Fatal(err)
		}
	}
	parent := "top"
	if _, err := c.CreateCollection(admin, CollectionSpec{Name: parent}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("mid%d", i)
		if _, err := c.CreateCollection(admin, CollectionSpec{Name: name, Parent: parent}); err != nil {
			t.Fatal(err)
		}
		parent = name
	}
	for _, name := range []string{"pub", "leaf0", "leaf1", "leaf2", "leaf3", "leaf4", "leaf5", "leaf6", "leaf7"} {
		if _, err := c.CreateCollection(admin, CollectionSpec{Name: name, Parent: parent}); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []struct {
		typ       ObjectType
		object    string
		principal string
		perm      Permission
	}{
		{ObjectCollection, "top", pinReader, PermRead},
		{ObjectService, "", pinPublisher, PermCreate},
		{ObjectCollection, "pub", pinPublisher, PermRead},
		{ObjectCollection, "pub", pinPublisher, PermWrite},
	} {
		if err := c.Grant(admin, g.typ, g.object, g.principal, g.perm); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]BatchOp, pinFiles)
	for i := range ops {
		ops[i] = BatchOp{CreateFile: &FileSpec{
			Name: fmt.Sprintf("pin-%04d", i), Collection: fmt.Sprintf("leaf%d", i%8), Attributes: pinAttrs(i),
		}}
	}
	if _, err := c.BatchWrite(admin, ops); err != nil {
		t.Fatal(err)
	}
	return c
}

// unrelatedCreate commits one createFile that changes no grant, no
// collection and no attribute definition, the normal case between two
// reads in a mixed workload.
func unrelatedCreate(t *testing.T, c *Catalog, n int) {
	t.Helper()
	if _, err := c.CreateFile(pinPublisher, FileSpec{Name: fmt.Sprintf("unrelated-%d", n), Collection: "pub"}); err != nil {
		t.Fatal(err)
	}
}

// TestStatementPinsAfterUnrelatedCommit pins what a read costs right after
// a commit that changes none of the tables authorization reads: the grants,
// the tree and the dictionary stay cached, so a lookup, a search and a page
// cost their own statements and no authorization ones. A create reads
// around the caches inside its transaction (cache.go): the publisher's
// grants once per check (three), its collection, the dictionary once per
// attribute (ten) and the latest version. None of the counts may grow with
// the hierarchy's depth or the page's size.
func TestStatementPinsAfterUnrelatedCommit(t *testing.T) {
	search3 := Query{Predicates: []Predicate{
		{"p00", OpEq, String("v0")}, {"p01", OpEq, String("v0")}, {"p02", OpEq, String("v0")},
	}}
	page := Query{Predicates: []Predicate{{"p00", OpEq, String("v0")}}}
	type pin struct {
		name string
		max  int
		run  func(c *Catalog) (rows int, err error)
	}
	pins := []pin{
		{"lookup", 2, func(c *Catalog) (int, error) {
			_, err := c.GetFile(pinReader, "pin-0007", 0)
			return 1, err
		}},
		{"search3", 3, func(c *Catalog) (int, error) {
			names, err := c.RunQuery(pinReader, search3)
			return len(names), err
		}},
		{"page64", 3, func(c *Catalog) (int, error) {
			names, _, err := c.RunQueryPage(pinReader, page, 64, "")
			return len(names), err
		}},
		{"page512", 3, func(c *Catalog) (int, error) {
			names, _, err := c.RunQueryPage(pinReader, page, 512, "")
			return len(names), err
		}},
		{"create10", 15, func(c *Catalog) (int, error) {
			_, err := c.CreateFile(pinPublisher, FileSpec{Name: "pinned-create", Collection: "pub", Attributes: pinAttrs(3)})
			return 1, err
		}},
	}
	wantRows := map[string]int{"lookup": 1, "search3": (pinFiles + 11) / 12, "page64": 64, "page512": pinFiles / 2, "create10": 1}
	counts := map[string][]int{}
	for _, depth := range []int{1, 14} {
		c := pinCatalog(t, depth)
		for i, p := range pins {
			if _, err := p.run(c); err != nil && p.name != "create10" { // warm the caches
				t.Fatal(err)
			}
			if p.name == "create10" {
				if err := c.DeleteFile(pinPublisher, "pinned-create", 0); err != nil {
					t.Fatal(err)
				}
			}
			unrelatedCreate(t, c, i)
			var rows int
			var err error
			stmts := countStatements(c, func() { rows, err = p.run(c) })
			if err != nil {
				t.Fatalf("depth %d, %s: %v", depth, p.name, err)
			}
			if want := min(wantRows[p.name], 512); rows != want {
				t.Fatalf("depth %d, %s: %d rows, want %d", depth, p.name, rows, want)
			}
			if stmts["select"] > p.max {
				t.Errorf("depth %d, %s after an unrelated createFile: %d SELECTs, want <= %d",
					depth, p.name, stmts["select"], p.max)
			}
			counts[p.name] = append(counts[p.name], stmts["select"])
		}
	}
	t.Logf("SELECTs at depth 1 and 14: %v", counts)
	for name, n := range counts {
		if n[0] != n[1] {
			t.Errorf("%s: SELECTs grow with hierarchy depth: %d at depth 1, %d at depth 14", name, n[0], n[1])
		}
	}
	if counts["page64"][0] != counts["page512"][0] {
		t.Errorf("page SELECTs grow with page size: %d for 64 rows, %d for 512", counts["page64"][0], counts["page512"][0])
	}
}

// TestTreeCacheSeesSetCollectionParent: moving a collection out from under
// the granted root is visible to the very next read, and so is moving it
// back.
func TestTreeCacheSeesSetCollectionParent(t *testing.T) {
	c, name := deepCatalog(t, 4) // bob reads through a grant on c0
	if _, err := c.GetFile(bob, name, 1); err != nil {
		t.Fatal(err) // the tree is now cached
	}
	if err := c.SetCollectionParent(admin, "c2", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetFile(bob, name, 1); !errors.Is(err, ErrDenied) {
		t.Fatalf("read after moving the chain out from under the grant = %v, want ErrDenied", err)
	}
	if err := c.SetCollectionParent(admin, "c2", "c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetFile(bob, name, 1); err != nil {
		t.Fatalf("read after moving it back: %v", err)
	}
}

// TestQueryFilesPageLoadsVersionsInOneBatch: QueryFilesPage loads the page's
// versions with one IN-list batch, so its statement count does not grow
// with the page's size.
func TestQueryFilesPageLoadsVersionsInOneBatch(t *testing.T) {
	c := pinCatalog(t, 1)
	q := Query{Predicates: []Predicate{{"p00", OpEq, String("v0")}}}
	counts := make([]int, 0, 2)
	for i, size := range []int{16, 256} {
		if _, _, err := c.QueryFilesPage(pinReader, q, size, ""); err != nil { // warm the caches
			t.Fatal(err)
		}
		unrelatedCreate(t, c, i)
		stmts := countStatements(c, func() {
			files, _, err := c.QueryFilesPage(pinReader, q, size, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != size {
				t.Fatalf("page of %d: %d files", size, len(files))
			}
		})
		counts = append(counts, stmts["select"])
	}
	if counts[0] != counts[1] {
		t.Fatalf("statement count grows with page size: 16 -> %d, 256 -> %d", counts[0], counts[1])
	}
}

// TestQueryFilesPageFailsOnEngineError: an engine error while loading the
// page's versions fails the call; it does not return a shorter page.
func TestQueryFilesPageFailsOnEngineError(t *testing.T) {
	c := pinCatalog(t, 1)
	q := Query{Predicates: []Predicate{{"p00", OpEq, String("v0")}}}
	// With the caches warm, the call's statements are the match, the
	// resolve and, last, the versions load.
	if _, _, err := c.QueryFilesPage(pinReader, q, 32, ""); err != nil {
		t.Fatal(err)
	}
	n := countStatements(c, func() {
		if _, _, err := c.QueryFilesPage(pinReader, q, 32, ""); err != nil {
			t.Fatal(err)
		}
	})["select"]
	injected := errors.New("injected engine error")
	var seen atomic.Int64
	c.db.SetFaultHook(func(verb string) error {
		if verb == "select" && seen.Add(1) == int64(n) {
			return injected
		}
		return nil
	})
	defer c.db.SetFaultHook(nil)
	files, _, err := c.QueryFilesPage(pinReader, q, 32, "")
	if !errors.Is(err, injected) {
		t.Fatalf("QueryFilesPage with a failing versions load = %d files, %v; want the injected error", len(files), err)
	}
}
