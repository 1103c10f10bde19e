package mcs

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"mcs/internal/gsi"
	"mcs/internal/shard"
)

// The CAS integration tests: section 9 of the paper plans MCS+CAS; here the
// full flow runs — community policy at the CAS, a signed assertion carried
// by the client, and the MCS mapping the member onto the community identity
// whose rights the catalog administrator granted.

const (
	casAdmin     = "/O=Grid/CN=Admin"
	casCommunity = "/O=Grid/CN=ligo-community"
	casMember    = "/O=LIGO/CN=Carol"
)

// startCASServer serves a CAS-integrated catalog whose community identity
// holds service-level create rights, and returns the CAS and the base URL.
func startCASServer(t *testing.T) (*gsi.CAS, string) {
	t.Helper()
	cas, err := gsi.NewCAS("ligo.org")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerOptions{
		CatalogOptions: Options{Owner: casAdmin, EnforceAuthz: true},
		CAS: &CASIntegration{
			Community:   "ligo.org",
			Key:         cas.PublicKey(),
			CommunityDN: casCommunity,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	adminC := NewClient(ts.URL, casAdmin)
	// The administrator grants the community identity service-level create
	// rights — the coarse grant of the CAS model.
	if err := adminC.Grant(ObjectService, "", casCommunity, PermCreate); err != nil {
		t.Fatal(err)
	}
	return cas, ts.URL
}

func TestCASAssertionEnablesCommunityRights(t *testing.T) {
	cas, url := startCASServer(t)

	// Without an assertion, the member has no rights of their own.
	if _, err := NewClient(url, casMember).CreateFile(FileSpec{Name: "denied.dat"}); err == nil {
		t.Fatal("assertion-less create succeeded")
	}

	// CAS policy: Carol may create under /ligo.
	cas.Grant(casMember, "", gsi.RightCreate, gsi.RightRead, gsi.RightWrite)
	a, err := cas.IssueAssertion(casMember, "", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := gsi.EncodeAssertion(a)
	if err != nil {
		t.Fatal(err)
	}
	memberC := NewClient(url, casMember, WithAssertion(encoded))

	f, err := memberC.CreateFile(FileSpec{Name: "allowed.dat"})
	if err != nil {
		t.Fatal(err)
	}
	// The operation ran as the community identity.
	if f.Creator != casCommunity {
		t.Fatalf("creator = %q, want community DN", f.Creator)
	}
	// Reads through the community identity work too.
	if _, err := memberC.GetFile("allowed.dat", 0); err != nil {
		t.Fatal(err)
	}
}

func TestCASAssertionRightsAreChecked(t *testing.T) {
	cas, url := startCASServer(t)
	// Assertion granting only read cannot create.
	cas.Grant(casMember, "", gsi.RightRead)
	a, _ := cas.IssueAssertion(casMember, "", time.Hour)
	encoded, _ := gsi.EncodeAssertion(a)
	memberC := NewClient(url, casMember, WithAssertion(encoded))
	if _, err := memberC.CreateFile(FileSpec{Name: "x"}); err == nil {
		t.Fatal("read-only assertion allowed create")
	}
}

func TestCASAssertionSubjectMustMatch(t *testing.T) {
	// Carol presents an assertion issued to someone else: rejected.
	cas, url := startCASServer(t)
	cas.Grant("/O=LIGO/CN=SomeoneElse", "", gsi.RightCreate)
	a, err := cas.IssueAssertion("/O=LIGO/CN=SomeoneElse", "", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := gsi.EncodeAssertion(a)
	if err != nil {
		t.Fatal(err)
	}
	carol := NewClient(url, casMember, WithAssertion(encoded))
	if _, err := carol.CreateFile(FileSpec{Name: "stolen"}); err == nil {
		t.Fatal("assertion with mismatched subject accepted")
	}
}

func TestCASWrongCommunityKeyRejected(t *testing.T) {
	_, url := startCASServer(t)
	// An assertion signed by a different CAS must be ignored.
	otherCAS, err := gsi.NewCAS("ligo.org")
	if err != nil {
		t.Fatal(err)
	}
	otherCAS.Grant(casMember, "", gsi.RightCreate)
	a, _ := otherCAS.IssueAssertion(casMember, "", time.Hour)
	encoded, _ := gsi.EncodeAssertion(a)
	memberC := NewClient(url, casMember, WithAssertion(encoded))
	if _, err := memberC.CreateFile(FileSpec{Name: "x"}); err == nil {
		t.Fatal("foreign-CAS assertion accepted")
	}
}

// TestCASAssertionThroughRouter: community rights must survive the router
// hop. The router holds no community key — it forwards the assertion, and
// the owning shard decides. A member with a valid assertion writes through
// mcsrouter on both wires; a stolen assertion, or none, still cannot.
func TestCASAssertionThroughRouter(t *testing.T) {
	cas, err := gsi.NewCAS("ligo.org")
	if err != nil {
		t.Fatal(err)
	}
	shardOpts := ServerOptions{
		CatalogOptions: Options{Owner: casAdmin, EnforceAuthz: true},
		CAS: &CASIntegration{
			Community: "ligo.org", Key: cas.PublicKey(), CommunityDN: casCommunity,
		},
	}
	d := startSharded(t, shard.Options{}, shardOpts, shardOpts)
	// A global grant: the router broadcasts it to every shard.
	if err := NewClient(d.url, casAdmin).Grant(ObjectService, "", casCommunity, PermCreate); err != nil {
		t.Fatal(err)
	}
	assertionFor := func(subject string) string {
		cas.Grant(subject, "", gsi.RightCreate)
		a, err := cas.IssueAssertion(subject, "", time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		encoded, err := gsi.EncodeAssertion(a)
		if err != nil {
			t.Fatal(err)
		}
		return encoded
	}
	valid, stolen := assertionFor(casMember), assertionFor("/O=LIGO/CN=SomeoneElse")

	for _, kind := range []TransportKind{TransportSOAP, TransportJSON} {
		name := "s1-" + string(kind) + ".dat" // owned by the second shard
		if _, err := NewClient(d.url, casMember, WithTransport(kind)).CreateFile(FileSpec{Name: name}); !errors.Is(err, ErrDenied) {
			t.Fatalf("%s: assertion-less create through the router: %v, want ErrDenied", kind, err)
		}
		thief := NewClient(d.url, casMember, WithTransport(kind), WithAssertion(stolen))
		if _, err := thief.CreateFile(FileSpec{Name: name}); !errors.Is(err, ErrDenied) {
			t.Fatalf("%s: stolen assertion through the router: %v, want ErrDenied", kind, err)
		}
		member := NewClient(d.url, casMember, WithTransport(kind), WithAssertion(valid))
		f, err := member.CreateFile(FileSpec{Name: name})
		if err != nil {
			t.Fatalf("%s: member with a valid assertion could not write through the router: %v", kind, err)
		}
		if f.Creator != casCommunity {
			t.Fatalf("%s: creator = %q, want the community DN", kind, f.Creator)
		}
	}
}
