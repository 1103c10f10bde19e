package mcs

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcs/internal/gsi"
	"mcs/internal/mcswire"
)

const (
	testAlice = "/O=Grid/OU=ISI/CN=Alice"
	testBob   = "/O=Grid/OU=ISI/CN=Bob"
)

func startServer(t *testing.T, opts ServerOptions) (*Server, string) {
	t.Helper()
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

func TestEndToEndFileLifecycle(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)

	if _, err := c.DefineAttribute("frequency", AttrFloat, "band in Hz"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineAttribute("run", AttrString, "science run"); err != nil {
		t.Fatal(err)
	}
	f, err := c.CreateFile(FileSpec{
		Name:     "H-R-7000.gwf",
		DataType: "binary",
		Attributes: []Attribute{
			{Name: "frequency", Value: Float(40.5)},
			{Name: "run", Value: String("S2")},
		},
		Provenance: "recorded by H1 interferometer",
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID == 0 || f.Creator != testAlice || f.Version != 1 {
		t.Fatalf("created = %+v", f)
	}

	got, err := c.GetFile("H-R-7000.gwf", 0)
	if err != nil || got.DataType != "binary" {
		t.Fatalf("get = %+v, %v", got, err)
	}

	attrs, err := c.GetAttributes(ObjectFile, "H-R-7000.gwf")
	if err != nil || len(attrs) != 2 {
		t.Fatalf("attrs = %v, %v", attrs, err)
	}

	names, err := c.RunQuery(Query{Predicates: []Predicate{
		{Attribute: "run", Op: OpEq, Value: String("S2")},
		{Attribute: "frequency", Op: OpGt, Value: Float(40.0)},
	}})
	if err != nil || len(names) != 1 || names[0] != "H-R-7000.gwf" {
		t.Fatalf("query = %v, %v", names, err)
	}

	recs, err := c.Provenance("H-R-7000.gwf", 0)
	if err != nil || len(recs) != 1 || !strings.Contains(recs[0].Description, "H1") {
		t.Fatalf("provenance = %v, %v", recs, err)
	}

	if err := c.DeleteFile("H-R-7000.gwf", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetFile("H-R-7000.gwf", 0); err == nil {
		t.Fatal("deleted file still visible")
	}
}

func TestEndToEndCollectionsViews(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)
	if _, err := c.CreateCollection(CollectionSpec{Name: "esg", Description: "climate"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateCollection(CollectionSpec{Name: "esg-ncar", Parent: "esg"}); err != nil {
		t.Fatal(err)
	}
	c.CreateFile(FileSpec{Name: "t42.nc", Collection: "esg-ncar"}) //nolint:errcheck
	files, subs, err := c.CollectionContents("esg-ncar")
	if err != nil || len(files) != 1 || len(subs) != 0 {
		t.Fatalf("contents = %v %v %v", files, subs, err)
	}
	colls, err := c.ListCollections("esg%")
	if err != nil || len(colls) != 2 {
		t.Fatalf("list = %v, %v", colls, err)
	}

	if _, err := c.CreateView(ViewSpec{Name: "my-favorites"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddToView("my-favorites", ObjectCollection, "esg-ncar"); err != nil {
		t.Fatal(err)
	}
	names, err := c.ExpandView("my-favorites")
	if err != nil || len(names) != 1 || names[0] != "t42.nc" {
		t.Fatalf("expand = %v, %v", names, err)
	}
	members, err := c.ViewContents("my-favorites")
	if err != nil || len(members) != 1 || members[0].Type != ObjectCollection {
		t.Fatalf("members = %v, %v", members, err)
	}
	if err := c.RemoveFromView("my-favorites", ObjectCollection, "esg-ncar"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteView("my-favorites"); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndAnnotationsAndAudit(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	alice := NewClient(url, testAlice)
	bob := NewClient(url, testBob)
	alice.CreateFile(FileSpec{Name: "f", Audited: true}) //nolint:errcheck
	if _, err := bob.Annotate(ObjectFile, "f", "spiky around t=100"); err != nil {
		t.Fatal(err)
	}
	anns, err := alice.Annotations(ObjectFile, "f")
	if err != nil || len(anns) != 1 || anns[0].Creator != testBob {
		t.Fatalf("annotations = %v, %v", anns, err)
	}
	recs, err := alice.AuditLog(ObjectFile, "f")
	if err != nil || len(recs) != 1 || recs[0].Action != "create" {
		t.Fatalf("audit = %v, %v", recs, err)
	}
}

func TestEndToEndUpdateAndVersions(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)
	c.CreateFile(FileSpec{Name: "v", DataType: "binary"}) //nolint:errcheck
	c.CreateFile(FileSpec{Name: "v"})                     //nolint:errcheck
	vs, err := c.FileVersions("v")
	if err != nil || len(vs) != 2 {
		t.Fatalf("versions = %v, %v", vs, err)
	}
	dt := "xml"
	f, err := c.UpdateFile("v", 1, FileUpdate{DataType: &dt})
	if err != nil || f.DataType != "xml" {
		t.Fatalf("update = %+v, %v", f, err)
	}
	if err := c.InvalidateFile("v", 2); err != nil {
		t.Fatal(err)
	}
	f2, _ := c.GetFile("v", 2)
	if f2.Valid {
		t.Fatal("invalidate did not stick")
	}
}

func TestEndToEndWritersAndExternalCatalogs(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)
	if err := c.RegisterWriter(Writer{DN: testAlice, Institution: "ISI", Email: "a@isi.edu"}); err != nil {
		t.Fatal(err)
	}
	w, err := c.GetWriter(testAlice)
	if err != nil || w.Institution != "ISI" {
		t.Fatalf("writer = %+v, %v", w, err)
	}
	id, err := c.RegisterExternalCatalog(ExternalCatalog{Name: "mcat", Type: "relational", Host: "srb.sdsc.edu"})
	if err != nil || id == 0 {
		t.Fatalf("external catalog = %d, %v", id, err)
	}
	list, err := c.ListExternalCatalogs()
	if err != nil || len(list) != 1 {
		t.Fatalf("list = %v, %v", list, err)
	}
}

func TestEndToEndStats(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)
	c.CreateFile(FileSpec{Name: "s1"}) //nolint:errcheck
	c.CreateFile(FileSpec{Name: "s2"}) //nolint:errcheck
	st, err := c.Stats()
	if err != nil || st.Files != 2 {
		t.Fatalf("stats = %+v, %v", st, err)
	}
}

func TestEndToEndFaultsCarrySentinels(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)
	_, err := c.GetFile("nope", 0)
	var fault *mcswire.WireError
	if !errors.As(err, &fault) {
		t.Fatalf("err = %T %v", err, err)
	}
	if !strings.Contains(fault.Message, "not found") {
		t.Fatalf("fault = %q", fault.Message)
	}
}

func TestEndToEndWithGSI(t *testing.T) {
	ca, err := gsi.NewCA("/O=Grid/CN=TestCA")
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Root)
	srv, url := startServer(t, ServerOptions{TrustStore: trust})
	_ = srv

	// Unsigned request fails authentication.
	c := NewClient(url, testAlice)
	if _, err := c.Ping(); err == nil {
		t.Fatal("unsigned request accepted")
	}

	// Signed request authenticates as the credential DN, even though the
	// client declares someone else.
	cred, _ := ca.Issue(testAlice, time.Hour)
	proxy, _ := cred.Delegate(10 * time.Minute)
	c2 := NewClient(url, "/CN=Impostor", WithCredential(proxy))
	dn, err := c2.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if dn != testAlice {
		t.Fatalf("server saw DN %q, want %q", dn, testAlice)
	}
	// Full operation through the authenticated path.
	f, err := c2.CreateFile(FileSpec{Name: "signed.dat"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Creator != testAlice {
		t.Fatalf("creator = %q (declared identity must not win)", f.Creator)
	}
}

func TestEndToEndAuthorization(t *testing.T) {
	adminDN := "/O=Grid/CN=Admin"
	_, url := startServer(t, ServerOptions{
		CatalogOptions: Options{Owner: adminDN, EnforceAuthz: true},
	})
	adminC := NewClient(url, adminDN)
	aliceC := NewClient(url, testAlice)
	bobC := NewClient(url, testBob)

	// Alice cannot create until granted.
	if _, err := aliceC.CreateFile(FileSpec{Name: "x"}); err == nil {
		t.Fatal("ungranted create succeeded")
	}
	if err := adminC.Grant(ObjectService, "", testAlice, PermCreate); err != nil {
		t.Fatal(err)
	}
	if _, err := aliceC.CreateFile(FileSpec{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	// Bob cannot read Alice's file until granted on it.
	if _, err := bobC.GetFile("x", 0); err == nil {
		t.Fatal("unauthorized read succeeded")
	}
	if err := aliceC.Grant(ObjectFile, "x", testBob, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := bobC.GetFile("x", 0); err != nil {
		t.Fatal(err)
	}
	if err := aliceC.Revoke(ObjectFile, "x", testBob, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := bobC.GetFile("x", 0); err == nil {
		t.Fatal("read after revoke succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	setup := NewClient(url, testAlice)
	if _, err := setup.DefineAttribute("n", AttrInt, ""); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			c := NewClient(url, testAlice)
			for i := 0; i < 20; i++ {
				name := strings.Repeat("w", w+1) + "-" + strings.Repeat("i", i+1)
				if _, err := c.CreateFile(FileSpec{
					Name:       name,
					Attributes: []Attribute{{Name: "n", Value: Int(int64(i))}},
				}); err != nil {
					done <- err
					return
				}
				if _, err := c.RunQuery(Query{Predicates: []Predicate{
					{Attribute: "n", Op: OpEq, Value: Int(int64(i))},
				}}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st, _ := setup.Stats()
	if st.Files != workers*20 {
		t.Fatalf("files = %d, want %d", st.Files, workers*20)
	}
}

func TestEmbeddedCatalogUse(t *testing.T) {
	cat, err := OpenCatalog(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateFile(testAlice, FileSpec{Name: "embedded"}); err != nil {
		t.Fatal(err)
	}
	f, err := cat.GetFile(testAlice, "embedded", 0)
	if err != nil || f.Name != "embedded" {
		t.Fatalf("embedded get = %+v, %v", f, err)
	}
}

func TestQueryWithReturnedAttributes(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)
	c.DefineAttribute("band", AttrString, "") //nolint:errcheck
	c.DefineAttribute("dur", AttrInt, "")     //nolint:errcheck
	c.DefineAttribute("extra", AttrFloat, "") //nolint:errcheck
	for i := 0; i < 3; i++ {
		c.CreateFile(FileSpec{ //nolint:errcheck
			Name: fmt.Sprintf("qa-%d", i),
			Attributes: []Attribute{
				{Name: "band", Value: String("high")},
				{Name: "dur", Value: Int(int64(i * 10))},
				{Name: "extra", Value: Float(1.5)},
			},
		})
	}
	results, err := c.RunQueryAttrs(Query{Predicates: []Predicate{
		{Attribute: "band", Op: OpEq, Value: String("high")},
	}}, []string{"dur", "band"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %v", results)
	}
	for _, r := range results {
		if len(r.Attributes) != 2 {
			t.Fatalf("returned attrs for %s = %v", r.Name, r.Attributes)
		}
		for _, a := range r.Attributes {
			if a.Name != "dur" && a.Name != "band" {
				t.Fatalf("unrequested attribute %q returned", a.Name)
			}
		}
	}
	// Requesting an undefined attribute fails loudly.
	if _, err := c.RunQueryAttrs(Query{Predicates: []Predicate{
		{Attribute: "band", Op: OpEq, Value: String("high")},
	}}, []string{"nosuch"}); err == nil {
		t.Fatal("undefined return attribute accepted")
	}
}
