package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"mcs/internal/sqldb"
)

// The authorization differential test. The in-memory rule (allowed, over
// the cached grants and collection tree) must decide exactly as the
// per-object SQL walk it replaced, kept below as refAllowed, for every
// (DN, object, permission) of seeded random catalogs: collection trees up
// to depth 16 with creators of their own, service, collection, file and
// view grants, multi-version names, and rounds of re-parenting, revokes and
// deletes between the comparisons. Decisions are compared through the
// database and inside a batch transaction, before and after the
// transaction changes acl and logical_collection itself, and the visible
// sets of the five query paths are compared with the reference's.

// refAllowed is the per-object SQL walk: up to seven statements per
// decision, read through q, no cache.
func refAllowed(c *Catalog, q querier, dn string, objType ObjectType, id int64, perm Permission) (bool, error) {
	if !c.authz || (dn == c.opts.Owner && c.opts.Owner != "") {
		return true, nil
	}
	if ok, err := refDirectGrant(q, ObjectService, 0, dn, perm); err != nil || ok {
		return ok, err
	}
	if objType == ObjectService {
		return false, nil
	}
	table, err := targetTable(objType)
	if err != nil {
		return false, err
	}
	rows, err := q.Query("SELECT creator FROM "+table+" WHERE id = ?", sqldb.Int(id))
	if err != nil {
		return false, err
	}
	if len(rows.Data) > 0 && rows.Data[0][0].S == dn {
		return true, nil
	}
	if ok, err := refDirectGrant(q, objType, id, dn, perm); err != nil || ok {
		return ok, err
	}
	var start int64
	switch objType {
	case ObjectFile:
		rows, err = q.Query("SELECT collection_id FROM logical_file WHERE id = ?", sqldb.Int(id))
	case ObjectCollection:
		rows, err = q.Query("SELECT parent_id FROM logical_collection WHERE id = ?", sqldb.Int(id))
	default:
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if len(rows.Data) > 0 && !rows.Data[0][0].IsNull() {
		start = rows.Data[0][0].Int()
	}
	if start == 0 {
		return false, nil
	}
	prows, err := q.Query("SELECT id, parent_id FROM logical_collection")
	if err != nil {
		return false, err
	}
	parents := map[int64]int64{}
	for _, r := range prows.Data {
		if !r[1].IsNull() {
			parents[r[0].Int()] = r[1].Int()
		}
	}
	var chain []sqldb.Value
	seen := map[int64]bool{}
	for cid := start; cid != 0; cid = parents[cid] {
		if seen[cid] {
			return false, fmt.Errorf("%w: collection hierarchy", ErrCycle)
		}
		seen[cid] = true
		chain = append(chain, sqldb.Int(cid))
	}
	crows, err := q.Query(
		"SELECT creator FROM logical_collection WHERE id IN ("+placeholders(len(chain))+")", chain...)
	if err != nil {
		return false, err
	}
	for _, r := range crows.Data {
		if r[0].S == dn {
			return true, nil
		}
	}
	args := append([]sqldb.Value{
		sqldb.Text(string(ObjectCollection)), sqldb.Text(dn), sqldb.Text(string(perm)),
	}, chain...)
	grows, err := q.Query(
		"SELECT id FROM acl WHERE object_type = ? AND principal = ? AND permission = ? AND object_id IN ("+
			placeholders(len(chain))+") LIMIT 1", args...)
	if err != nil {
		return false, err
	}
	return len(grows.Data) > 0, nil
}

// refDirectGrant checks the ACL table for one (object, principal, perm) row.
func refDirectGrant(q querier, objType ObjectType, id int64, dn string, perm Permission) (bool, error) {
	rows, err := q.Query(
		"SELECT id FROM acl WHERE object_type = ? AND object_id = ? AND principal = ? AND permission = ? LIMIT 1",
		sqldb.Text(string(objType)), sqldb.Int(id), sqldb.Text(dn), sqldb.Text(string(perm)))
	if err != nil {
		return false, err
	}
	return len(rows.Data) > 0, nil
}

var (
	diffDNs   = []string{admin, alice, bob, "/O=Grid/CN=Carol", "/O=Grid/CN=Dan", ""}
	diffPerms = []Permission{PermRead, PermWrite, PermCreate, PermDelete, PermAnnotate}
)

// diffObjects lists every object of the catalog as q sees it, each with the
// row fields the rule takes, plus the service.
func diffObjects(t testing.TB, q querier) []authObject {
	t.Helper()
	objs := []authObject{serviceObject}
	for _, s := range []struct {
		typ ObjectType
		sql string
	}{
		{ObjectFile, "SELECT id, creator, collection_id FROM logical_file"},
		{ObjectCollection, "SELECT id, creator, parent_id FROM logical_collection"},
		{ObjectView, "SELECT id, creator FROM logical_view"},
	} {
		rows, err := q.Query(s.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows.Data {
			o := authObject{typ: s.typ, id: r[0].Int(), creator: r[1].S}
			if len(r) > 2 && !r[2].IsNull() {
				o.parent = r[2].Int()
			}
			objs = append(objs, o)
		}
	}
	return objs
}

// compareDecisions holds the rule to the reference for every (DN, object,
// permission) through q.
func compareDecisions(t testing.TB, c *Catalog, q querier, where string) {
	t.Helper()
	for _, o := range diffObjects(t, q) {
		for _, dn := range diffDNs {
			for _, perm := range diffPerms {
				got, err := c.allowed(q, dn, o, perm)
				if err != nil {
					t.Fatalf("%s: allowed(%q, %+v, %s): %v", where, dn, o, perm, err)
				}
				want, err := refAllowed(c, q, dn, o.typ, o.id, perm)
				if err != nil {
					t.Fatalf("%s: reference(%q, %+v, %s): %v", where, dn, o, perm, err)
				}
				if got != want {
					t.Fatalf("%s: %q %s on %s %d (creator %q, parent %d): rule says %v, reference %v",
						where, dn, perm, o.typ, o.id, o.creator, o.parent, got, want)
				}
			}
		}
	}
}

// refVisible is the reference's answer to a query: the matched names that
// resolve to exactly one object the DN may read, sorted.
func refVisible(t testing.TB, c *Catalog, dn string, q Query) []string {
	t.Helper()
	sql, args, err := c.compileQuery(q, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.db.Query(sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	table, _ := targetTable(q.Target)
	target := q.Target
	if target == "" {
		target = ObjectFile
	}
	var out []string
	for _, r := range rows.Data {
		ids, err := c.db.Query("SELECT id FROM "+table+" WHERE name = ?", r[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(ids.Data) != 1 {
			continue
		}
		ok, err := refAllowed(c, c.db, dn, target, ids.Data[0][0].Int(), PermRead)
		if err != nil {
			t.Fatal(err)
		}
		if ok && !slices.Contains(out, r[0].S) {
			out = append(out, r[0].S)
		}
	}
	sort.Strings(out)
	return out
}

// compareQueryPaths holds RunQuery, RunQueryPage, RunQueryAttrs, QueryFiles
// and QueryFilesPage to the reference's visible set for every DN.
func compareQueryPaths(t testing.TB, c *Catalog, where string) {
	t.Helper()
	fileQ := Query{Predicates: []Predicate{{"tag", OpEq, String("x")}}}
	queries := []Query{
		fileQ,
		{Target: ObjectCollection, Predicates: []Predicate{{"name", OpLike, String("%")}}},
		{Target: ObjectView, Predicates: []Predicate{{"name", OpLike, String("%")}}},
	}
	sorted := func(s []string) []string { s = slices.Clone(s); sort.Strings(s); return s }
	for _, dn := range diffDNs {
		for _, q := range queries {
			want := refVisible(t, c, dn, q)
			check := func(path string, got []string) {
				t.Helper()
				if got = sorted(got); !slices.Equal(got, want) {
					t.Fatalf("%s: %s for %q on %s:\n  got       %v\n  reference %v", where, path, dn, q.Target, got, want)
				}
			}
			names, err := c.RunQuery(dn, q)
			if err != nil {
				t.Fatal(err)
			}
			check("RunQuery", names)
			var paged []string
			for token := ""; ; {
				page, next, err := c.RunQueryPage(dn, q, 3, token)
				if err != nil {
					t.Fatal(err)
				}
				paged = append(paged, page...)
				if token = next; token == "" {
					break
				}
			}
			check("RunQueryPage", paged)
			res, err := c.RunQueryAttrs(dn, q, []string{"tag"})
			if err != nil {
				t.Fatal(err)
			}
			names = names[:0]
			for _, r := range res {
				names = append(names, r.Name)
			}
			check("RunQueryAttrs", names)
		}
		fileNames := func(fs []File) []string {
			var out []string
			for _, f := range fs {
				out = append(out, f.Name)
			}
			return out
		}
		files, err := c.QueryFiles(dn, fileQ)
		if err != nil {
			t.Fatal(err)
		}
		want := refVisible(t, c, dn, fileQ)
		if got := sorted(fileNames(files)); !slices.Equal(got, want) {
			t.Fatalf("%s: QueryFiles for %q:\n  got       %v\n  reference %v", where, dn, got, want)
		}
		var paged []File
		for token := ""; ; {
			page, next, err := c.QueryFilesPage(dn, fileQ, 3, token)
			if err != nil {
				t.Fatal(err)
			}
			paged = append(paged, page...)
			if token = next; token == "" {
				break
			}
		}
		if got := sorted(fileNames(paged)); !slices.Equal(got, want) {
			t.Fatalf("%s: QueryFilesPage for %q:\n  got       %v\n  reference %v", where, dn, got, want)
		}
	}
}

// authzWorld builds a seeded random catalog and drives it through rounds of
// grants, moves, revokes and deletes, comparing the rule with the
// reference after each round through the database, and after the first and
// the last inside a batch transaction.
func authzWorld(t testing.TB, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, err := Open(Options{Owner: admin, EnforceAuthz: true})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.DefineAttribute(admin, "tag", AttrString, ""); err != nil {
		t.Fatal(err)
	}
	dn := func() string { return diffDNs[1+rng.Intn(len(diffDNs)-2)] } // a non-owner, non-empty DN
	for _, d := range diffDNs[1:5] {
		must(c.Grant(admin, ObjectService, "", d, PermCreate))
	}
	// A collection tree: one chain 16 deep, and eight more collections
	// hung anywhere or nowhere.
	var cols []string
	for i := 0; i < 24; i++ {
		spec := CollectionSpec{Name: fmt.Sprintf("col%02d", i)}
		switch {
		case i == 0:
		case i < 16:
			spec.Parent = cols[i-1]
		case rng.Intn(4) > 0:
			spec.Parent = cols[rng.Intn(len(cols))]
		}
		// The chosen creator may lack write on the parent; the owner then
		// creates it instead.
		if _, err := c.CreateCollection(dn(), spec); errors.Is(err, ErrDenied) {
			_, err = c.CreateCollection(admin, spec)
			must(err)
		} else {
			must(err)
		}
		cols = append(cols, spec.Name)
	}
	type version struct {
		name string
		v    int
	}
	var files []version
	for i := 0; i < 30; i++ {
		spec := FileSpec{
			Name:       fmt.Sprintf("file%02d", i%24), // names 0-5 get two versions
			Attributes: []Attribute{{"tag", String([]string{"x", "y"}[rng.Intn(2)])}},
		}
		if rng.Intn(4) > 0 {
			spec.Collection = cols[rng.Intn(len(cols))]
		}
		f, err := c.CreateFile(dn(), spec)
		if errors.Is(err, ErrDenied) {
			f, err = c.CreateFile(admin, spec)
		}
		must(err)
		files = append(files, version{f.Name, f.Version})
	}
	var views []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("view%d", i)
		_, err := c.CreateView(dn(), ViewSpec{Name: name})
		must(err)
		views = append(views, name)
	}
	type grantRow struct {
		typ       ObjectType
		object    string
		principal string
		perm      Permission
	}
	var grants []grantRow
	randomGrant := func() {
		g := grantRow{principal: diffDNs[1+rng.Intn(len(diffDNs)-1)], perm: diffPerms[rng.Intn(len(diffPerms))]}
		switch rng.Intn(10) {
		case 0:
			g.typ = ObjectService
		case 1, 2:
			g.typ, g.object = ObjectFile, files[rng.Intn(len(files))].name
		case 3:
			g.typ, g.object = ObjectView, views[rng.Intn(len(views))]
		default:
			g.typ, g.object = ObjectCollection, cols[rng.Intn(len(cols))]
		}
		if g.typ == ObjectService && g.perm == PermRead {
			g.perm = PermAnnotate // a service read grant would hide every other rule
		}
		// A multi-version file or a deleted object refuses the grant.
		if err := c.Grant(admin, g.typ, g.object, g.principal, g.perm); err == nil {
			grants = append(grants, g)
		}
	}
	for i := 0; i < 20; i++ {
		randomGrant()
	}
	check := func(round string, inTx bool) {
		t.Helper()
		compareDecisions(t, c, c.db, round+", database")
		compareQueryPaths(t, c, round)
		if !inTx {
			return
		}
		errRollback := errors.New("roll back")
		err := c.db.Update(func(tx *sqldb.Tx) error {
			compareDecisions(t, c, tx, round+", transaction")
			// Change acl and the tree inside the transaction: those reads
			// must now see the uncommitted rows.
			if _, err := tx.Exec("INSERT INTO acl (object_type, object_id, principal, permission) VALUES (?, ?, ?, ?)",
				sqldb.Text(string(ObjectCollection)), sqldb.Int(int64(1+rng.Intn(len(cols)))),
				sqldb.Text(dn()), sqldb.Text(string(PermRead))); err != nil {
				return err
			}
			if _, err := tx.Exec("UPDATE logical_collection SET parent_id = ? WHERE id = ?",
				sqldb.Null(), sqldb.Int(int64(1+rng.Intn(len(cols))))); err != nil {
				return err
			}
			compareDecisions(t, c, tx, round+", transaction after its own writes")
			return errRollback
		})
		if !errors.Is(err, errRollback) {
			t.Fatal(err)
		}
	}
	const rounds = 3
	check("round 0", true)
	for round := 1; round <= rounds; round++ {
		for i := 0; i < 4; i++ {
			// A move that would close a cycle is refused; either outcome is fine.
			c.SetCollectionParent(admin, cols[rng.Intn(len(cols))], []string{"", cols[rng.Intn(len(cols))]}[rng.Intn(2)]) //nolint:errcheck
		}
		for i := 0; i < 3 && len(grants) > 0; i++ {
			k := rng.Intn(len(grants))
			g := grants[k]
			c.Revoke(admin, g.typ, g.object, g.principal, g.perm) //nolint:errcheck // its object may be gone
			grants = slices.Delete(grants, k, k+1)
		}
		if k := rng.Intn(len(files)); true {
			c.DeleteFile(admin, files[k].name, files[k].v) //nolint:errcheck // it may be gone already
		}
		c.DeleteCollection(admin, cols[rng.Intn(len(cols))]) //nolint:errcheck // most are not empty
		if rng.Intn(2) == 0 {
			c.DeleteView(admin, views[rng.Intn(len(views))]) //nolint:errcheck // it may be gone already
		}
		for i := 0; i < 4; i++ {
			randomGrant()
		}
		check(fmt.Sprintf("round %d", round), round == rounds)
	}
}

func TestAuthzMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { authzWorld(t, seed) })
	}
}

// FuzzAuthz explores fresh seeds of TestAuthzMatchesReference's catalogs.
func FuzzAuthz(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { authzWorld(t, seed) })
}

// TestAuthzCachesUnderConcurrentWrites reads through the grant, tree,
// dictionary and file caches from several goroutines while one writer
// grants, revokes, re-parents and creates; run it with -race. A read may
// see any committed state, so the readers only check that the catalog
// answers; once the writer is done, every decision must match the
// reference again.
func TestAuthzCachesUnderConcurrentWrites(t *testing.T) {
	c, name := deepCatalog(t, 6)
	if _, err := c.DefineAttribute(admin, "tag", AttrString, ""); err != nil {
		t.Fatal(err)
	}
	q := Query{Predicates: []Predicate{{"tag", OpEq, String("x")}}}
	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done) })
	defer stop() // a failing writer still stops the readers
	errs := make(chan error, 3)
	for r := 0; r < 3; r++ {
		go func() {
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if _, err := c.GetFile(bob, name, 1); err != nil && !errors.Is(err, ErrDenied) {
					errs <- err
					return
				}
				if _, err := c.RunQuery(bob, q); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 60; i++ {
		var err error
		switch i % 4 {
		case 0:
			err = c.Revoke(admin, ObjectCollection, "c0", bob, PermRead)
		case 1:
			err = c.Grant(admin, ObjectCollection, "c0", bob, PermRead)
		case 2:
			err = c.SetCollectionParent(admin, "c3", []string{"", "c2"}[i/4%2])
		case 3:
			_, err = c.CreateFile(admin, FileSpec{Name: fmt.Sprintf("w%02d", i), Collection: "c5",
				Attributes: []Attribute{{"tag", String("x")}}})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	stop()
	for r := 0; r < 3; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	compareDecisions(t, c, c.db, "after the writer")
	compareQueryPaths(t, c, "after the writer")
}
