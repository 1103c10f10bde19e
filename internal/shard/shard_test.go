package shard

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcs/internal/core"
	"mcs/internal/federation"
	"mcs/internal/mcswire"
)

func TestParseMapAndRoute(t *testing.T) {
	m, err := ParseMap(`
# experiment shards
ligo     http://shard-a:8080/
ligo-s5  http://shard-b:8080
sdss     http://shard-a:8080
*        http://shard-c:8080
`)
	if err != nil {
		t.Fatalf("ParseMap: %v", err)
	}
	cases := []struct {
		name, want string
	}{
		{"ligo-run1/file.gwf", "http://shard-a:8080"}, // prefix match, trailing / trimmed
		{"ligo-s5-seg9", "http://shard-b:8080"},       // longest prefix wins
		{"sdss-dr1", "http://shard-a:8080"},
		{"unmapped-name", "http://shard-c:8080"}, // catch-all
	}
	for _, c := range cases {
		got, ok := m.Route(c.name)
		if !ok || got != c.want {
			t.Errorf("Route(%q) = %q, %v; want %q", c.name, got, ok, c.want)
		}
	}
	eps := m.Endpoints()
	want := []string{"http://shard-a:8080", "http://shard-b:8080", "http://shard-c:8080"}
	if len(eps) != len(want) {
		t.Fatalf("Endpoints = %v, want %v", eps, want)
	}
	for i := range want {
		if eps[i] != want[i] {
			t.Fatalf("Endpoints = %v, want %v", eps, want)
		}
	}
}

func TestRouteWithoutCatchAll(t *testing.T) {
	m, err := ParseInline("a=http://x,b=http://y")
	if err != nil {
		t.Fatalf("ParseInline: %v", err)
	}
	if _, ok := m.Route("zzz"); ok {
		t.Fatal("Route matched a name with no owning prefix and no catch-all")
	}
	if ep, ok := m.Route("b-col"); !ok || ep != "http://y" {
		t.Fatalf("Route(b-col) = %q, %v", ep, ok)
	}
}

func TestParseMapErrors(t *testing.T) {
	for _, bad := range []string{
		"",                         // empty map
		"onlyprefix",               // missing endpoint
		"a http://x\na http://y",   // duplicate prefix
		"a http://x too-many-cols", // trailing junk
	} {
		if _, err := ParseMap(bad); err == nil {
			t.Errorf("ParseMap(%q) succeeded, want error", bad)
		}
	}
	if _, err := ParseInline("a=http://x,a=http://y"); err == nil {
		t.Error("ParseInline accepted a duplicate prefix")
	}
	if _, err := ParseInline("noequals"); err == nil {
		t.Error("ParseInline accepted a pair without =")
	}
}

func TestPageTokenRoundTrip(t *testing.T) {
	for _, tok := range []pageToken{
		{},
		{Shard: 3},
		{Shard: 1, Inner: "opaque-shard-cursor=="},
	} {
		enc := encodePageToken(tok)
		got, err := decodePageToken(enc)
		if err != nil {
			t.Fatalf("decode(%q): %v", enc, err)
		}
		if got != tok {
			t.Fatalf("round trip %+v -> %+v", tok, got)
		}
	}
	if _, err := decodePageToken("!!not-base64!!"); err == nil {
		t.Fatal("decodePageToken accepted garbage")
	}
	// A shard's own (non-composed) token must not decode by accident into a
	// valid composed token with the wrong meaning; garbage JSON is rejected.
	if _, err := decodePageToken("bm90LWpzb24"); err == nil {
		t.Fatal("decodePageToken accepted non-JSON payload")
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(Options{}); err == nil {
		t.Fatal("NewRouter accepted a nil map")
	}
	m, err := ParseInline("a=http://x,b=http://y,*=http://z")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Options{Map: m, DisableMetrics: true})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer r.Stop()
	// The dispatch table must not mount discoverySummary: the router is not
	// a catalog, and merged blooms would be meaningless.
	for _, op := range r.Table().Ops() {
		if op == "discoverySummary" {
			t.Fatal("router table mounts discoverySummary")
		}
	}
	if r.Table().Lookup("query") == nil || r.Table().Lookup("createFile") == nil {
		t.Fatal("router table missing core ops")
	}
	if !strings.HasPrefix(r.backends[0].name, "http://") {
		t.Fatalf("backend name %q", r.backends[0].name)
	}
}

// screened lists, in shard order, the backends screenQuery sends q to, with
// a "*" on each one a fresh summary admitted.
func screened(r *Router, preds ...mcswire.WirePredicate) []string {
	var out []string
	for _, c := range r.screenQuery("", preds) {
		name := c.b.name
		if c.screened {
			name += "*"
		}
		out = append(out, name)
	}
	return out
}

// TestScreeningHonoursSummaryTTLAndDirtyBit pins the router's soft-state
// contract: a summary screens only while younger than the TTL, and a shard
// that took a write since its summary was pulled is never screened out.
func TestScreeningHonoursSummaryTTLAndDirtyBit(t *testing.T) {
	const dn = "/O=Grid/CN=router-test"
	cat, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DefineAttribute(dn, "run", core.AttrString, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateFile(dn, core.FileSpec{
		Name: "a-f", Attributes: []core.Attribute{{Name: "run", Value: core.String("S2")}},
	}); err != nil {
		t.Fatal(err)
	}
	sum, err := federation.Summarize(cat, 0.001)
	if err != nil {
		t.Fatal(err)
	}

	m, err := ParseInline("a=http://x,b=http://y")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Options{Map: m, SummaryInterval: 10 * time.Second, DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_000_000, 0)
	r.now = func() time.Time { return now }
	for _, b := range r.backends {
		b.summary, b.summaryAt = sum, now
	}
	s2 := mcswire.WirePredicate{Attribute: "run", Op: "=", Type: "string", Value: "S2"}
	s9 := mcswire.WirePredicate{Attribute: "run", Op: "=", Type: "string", Value: "S9"}
	check := func(what string, got []string, want ...string) {
		t.Helper()
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%s: sent to %v, want %v", what, got, want)
		}
	}

	check("fresh, matching", screened(r, s2), "http://x*", "http://y*")
	check("fresh, ruled out", screened(r, s9))

	now = now.Add(30 * time.Second) // exactly the TTL: still fresh
	check("at the TTL", screened(r, s9))
	now = now.Add(time.Second)
	check("past the TTL", screened(r, s9), "http://x", "http://y")

	now = now.Add(-31 * time.Second)
	r.backends[1].dirty.Store(true)
	check("dirty shard", screened(r, s9), "http://y")
}

// TestStartWithoutIntervalPullsNothing: SummaryInterval 0 means no
// screening, so Start must not pull a summary that would then screen
// queries until it aged out. /statz then has no health verdict to report.
func TestStartWithoutIntervalPullsNothing(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		requests.Add(1)
		http.Error(w, "not a shard", http.StatusInternalServerError)
	}))
	defer ts.Close()
	m, err := ParseInline("*=" + ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Options{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	if n := requests.Load(); n != 0 {
		t.Fatalf("Start with no interval sent %d requests to the shard", n)
	}
	if st := r.backends[0].status(r.now()); st.Healthy != nil {
		t.Fatalf("never-polled shard reports healthy=%v", *st.Healthy)
	}
	if err := r.RefreshSummaries(); err == nil {
		t.Fatal("pull from a broken shard succeeded")
	}
	if st := r.backends[0].status(r.now()); st.Healthy == nil || *st.Healthy {
		t.Fatalf("shard whose pull failed reports healthy=%v", st.Healthy)
	}
}
