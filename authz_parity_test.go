package mcs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mcs/internal/shard"
)

// authzParityAPI is the slice of the catalog API the authorization parity
// test drives: *Client speaks it over a wire, coreAs in-process.
type authzParityAPI interface {
	DefineAttribute(name string, typ AttrType, description string) (AttributeDef, error)
	CreateCollection(spec CollectionSpec) (Collection, error)
	CreateFile(spec FileSpec) (File, error)
	Grant(objType ObjectType, object, principal string, perm Permission) error
	GetFile(name string, version int) (File, error)
	RunQuery(q Query) ([]string, error)
	RunQueryPage(q Query, pageSize int, token string) ([]string, string, error)
}

// coreAs calls a catalog directly as one DN.
type coreAs struct {
	cat *Catalog
	dn  string
}

func (c coreAs) DefineAttribute(name string, typ AttrType, description string) (AttributeDef, error) {
	return c.cat.DefineAttribute(c.dn, name, typ, description)
}
func (c coreAs) CreateCollection(spec CollectionSpec) (Collection, error) {
	return c.cat.CreateCollection(c.dn, spec)
}
func (c coreAs) CreateFile(spec FileSpec) (File, error) { return c.cat.CreateFile(c.dn, spec) }
func (c coreAs) Grant(objType ObjectType, object, principal string, perm Permission) error {
	return c.cat.Grant(c.dn, objType, object, principal, perm)
}
func (c coreAs) GetFile(name string, version int) (File, error) {
	return c.cat.GetFile(c.dn, name, version)
}
func (c coreAs) RunQuery(q Query) ([]string, error) { return c.cat.RunQuery(c.dn, q) }
func (c coreAs) RunQueryPage(q Query, pageSize int, token string) ([]string, string, error) {
	return c.cat.RunQueryPage(c.dn, q, pageSize, token)
}

const parityAdmin = "/O=Grid/CN=parity-admin"

var parityDNs = []string{parityAdmin, testAlice, testBob, "/O=Grid/CN=Carol", "/O=Grid/CN=Dan"}

// buildAuthzParityWorld writes one seeded catalog through as: under each
// shard prefix, a collection chain six deep with mixed creators, files in
// it and outside it (some names with two versions) carrying a tag, and
// random collection and file grants.
func buildAuthzParityWorld(t *testing.T, seed int64, as func(dn string) authzParityAPI) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	admin := as(parityAdmin)
	if _, err := admin.DefineAttribute("tag", AttrString, ""); err != nil {
		t.Fatal(err)
	}
	for _, dn := range parityDNs[1:4] {
		if err := admin.Grant(ObjectService, "", dn, PermCreate); err != nil {
			t.Fatal(err)
		}
	}
	creator := func() string { return parityDNs[rng.Intn(4)] }
	// asCreator runs fn as a random DN, or as the owner if that DN may not.
	asCreator := func(fn func(api authzParityAPI) error) {
		t.Helper()
		if err := fn(as(creator())); err != nil {
			if err := fn(admin); err != nil {
				t.Fatal(err)
			}
		}
	}
	var files []string
	var cols []string
	for _, prefix := range []string{"s0-", "s1-"} {
		chain := []string{}
		for i := 0; i < 6; i++ {
			spec := CollectionSpec{Name: fmt.Sprintf("%sc%d", prefix, i)}
			if i > 0 {
				spec.Parent = chain[i-1]
			}
			asCreator(func(api authzParityAPI) error { _, err := api.CreateCollection(spec); return err })
			chain = append(chain, spec.Name)
		}
		cols = append(cols, chain...)
		for i := 0; i < 20; i++ {
			spec := FileSpec{
				Name:       fmt.Sprintf("%sf%02d", prefix, i%16),
				Attributes: []Attribute{{Name: "tag", Value: String([]string{"x", "y"}[rng.Intn(2)])}},
			}
			if rng.Intn(4) > 0 {
				spec.Collection = chain[rng.Intn(len(chain))]
			}
			asCreator(func(api authzParityAPI) error { _, err := api.CreateFile(spec); return err })
			if i < 16 {
				files = append(files, spec.Name)
			}
		}
	}
	for i := 0; i < 10; i++ {
		principal := parityDNs[1+rng.Intn(len(parityDNs)-1)]
		typ, object := ObjectCollection, cols[rng.Intn(len(cols))]
		if rng.Intn(3) == 0 {
			typ, object = ObjectFile, files[rng.Intn(len(files))]
		}
		// A grant on a two-version name is refused, the same everywhere.
		admin.Grant(typ, object, principal, PermRead) //nolint:errcheck
	}
	return files
}

// authzParityView is what each DN sees: the search, every page of it, and
// a lookup of every file name.
func authzParityView(t *testing.T, files []string, as func(dn string) authzParityAPI) map[string]any {
	t.Helper()
	q := Query{Predicates: []Predicate{{Attribute: "tag", Op: OpEq, Value: String("x")}}}
	view := map[string]any{}
	for _, dn := range parityDNs {
		api := as(dn)
		names, err := api.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		names = append([]string{}, names...) // a wire may decode none as nil
		sort.Strings(names)
		paged := []string{}
		for token := ""; ; {
			page, next, err := api.RunQueryPage(q, 4, token)
			if err != nil {
				t.Fatal(err)
			}
			paged = append(paged, page...)
			if token = next; token == "" {
				break
			}
		}
		sort.Strings(paged)
		lookups := make([]string, len(files))
		for i, name := range files {
			f, err := api.GetFile(name, 0)
			lookups[i] = sentinelName(err)
			if err == nil {
				lookups[i] = fmt.Sprintf("version %d", f.Version)
			}
		}
		view[dn] = []any{names, paged, lookups}
	}
	return view
}

// TestAuthzParityAcrossWires: for one seeded catalog with authorization on,
// every DN's visible search, page and lookup results are the same from the
// catalog called directly, over the JSON and the SOAP wire, and through
// the router in front of two shards.
func TestAuthzParityAcrossWires(t *testing.T) {
	const seed = 1
	catOpts := Options{Owner: parityAdmin, EnforceAuthz: true, Clock: fixedClock}

	cat, err := OpenCatalog(catOpts)
	if err != nil {
		t.Fatal(err)
	}
	direct := func(dn string) authzParityAPI { return coreAs{cat, dn} }
	files := buildAuthzParityWorld(t, seed, direct)
	want := authzParityView(t, files, direct)

	_, url := startServer(t, ServerOptions{CatalogOptions: catOpts})
	over := func(url string, kind TransportKind) func(dn string) authzParityAPI {
		return func(dn string) authzParityAPI { return NewClient(url, dn, WithTransport(kind)) }
	}
	buildAuthzParityWorld(t, seed, over(url, TransportJSON))
	sharded := startSharded(t, shard.Options{}, ServerOptions{CatalogOptions: catOpts}, ServerOptions{CatalogOptions: catOpts})
	buildAuthzParityWorld(t, seed, over(sharded.url, TransportJSON))

	for _, leg := range []struct {
		name string
		as   func(dn string) authzParityAPI
	}{
		{"json", over(url, TransportJSON)},
		{"soap", over(url, TransportSOAP)},
		{"router, 2 shards", over(sharded.url, TransportJSON)},
	} {
		if got := authzParityView(t, files, leg.as); !reflect.DeepEqual(got, want) {
			for _, dn := range parityDNs {
				if !reflect.DeepEqual(got[dn], want[dn]) {
					t.Errorf("%s, %s:\n  got    %v\n  direct %v", leg.name, dn, got[dn], want[dn])
				}
			}
		}
	}
}
