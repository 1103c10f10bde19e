package mcs

import (
	"net/http/httptest"
	"testing"
	"time"

	"mcs/internal/gsi"
)

// TestGSIAndCASCombined runs the full security stack at once: requests must
// be GSI-signed (authenticating the member DN from the credential chain)
// AND carry a CAS assertion for that authenticated DN before the community
// identity's rights apply.
func TestGSIAndCASCombined(t *testing.T) {
	ca, err := gsi.NewCA("/O=Grid/CN=RootCA")
	if err != nil {
		t.Fatal(err)
	}
	cas, err := gsi.NewCAS("ligo.org")
	if err != nil {
		t.Fatal(err)
	}
	const (
		adminDN     = "/O=Grid/CN=Admin"
		communityDN = "/O=Grid/CN=ligo-community"
		memberDN    = "/O=LIGO/CN=Dana"
	)
	srv, err := NewServer(ServerOptions{
		CatalogOptions: Options{Owner: adminDN, EnforceAuthz: true},
		TrustStore:     gsi.NewTrustStore(ca.Root),
		CAS: &CASIntegration{
			Community: "ligo.org", Key: cas.PublicKey(), CommunityDN: communityDN,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Admin grants the community service create rights (admin also signs).
	adminCred, err := ca.Issue(adminDN, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	adminC := NewClient(ts.URL, "ignored", WithCredential(adminCred))
	if err := adminC.Grant(ObjectService, "", communityDN, PermCreate); err != nil {
		t.Fatal(err)
	}

	// Member with a proxy credential but no assertion: authenticated, but
	// unauthorized.
	memberCred, err := ca.Issue(memberDN, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := memberCred.Delegate(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	memberC := NewClient(ts.URL, "ignored", WithCredential(proxy))
	if _, err := memberC.CreateFile(FileSpec{Name: "x"}); err == nil {
		t.Fatal("create without assertion succeeded")
	}

	// CAS policy grants Dana create rights; the assertion subject must be
	// the GSI-authenticated DN (the proxy's effective identity).
	cas.Grant(memberDN, "", gsi.RightCreate, gsi.RightRead)
	a, err := cas.IssueAssertion(memberDN, "", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := gsi.EncodeAssertion(a)
	if err != nil {
		t.Fatal(err)
	}
	memberC = NewClient(ts.URL, "ignored", WithCredential(proxy), WithAssertion(encoded))
	f, err := memberC.CreateFile(FileSpec{Name: "signed-and-asserted.dat"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Creator != communityDN {
		t.Fatalf("creator = %q, want community identity", f.Creator)
	}

	// A forged client declaring Dana's DN but signing with a different
	// credential cannot use her assertion: the assertion subject is checked
	// against the authenticated identity, not the declared one.
	eveCred, err := ca.Issue("/O=Evil/CN=Eve", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	eveC := NewClient(ts.URL, memberDN, // declares Dana
		WithCredential(eveCred), // but signs as Eve
		WithAssertion(encoded))  // with Dana's stolen assertion
	if _, err := eveC.CreateFile(FileSpec{Name: "stolen.dat"}); err == nil {
		t.Fatal("stolen assertion over mismatched credential accepted")
	}
}
