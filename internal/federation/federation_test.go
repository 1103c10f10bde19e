package federation

import (
	"encoding/base64"
	"fmt"
	"reflect"
	"testing"

	"mcs/internal/core"
	"mcs/internal/mcswire"
)

const dn = "/O=Grid/CN=federator"

// newSite builds one local catalog publishing files tagged with the site's
// project name.
func newSite(t *testing.T, project string, files int) *core.Catalog {
	t.Helper()
	cat, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DefineAttribute(dn, "project", core.AttrString, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DefineAttribute(dn, "index", core.AttrInt, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		_, err := cat.CreateFile(dn, core.FileSpec{
			Name: fmt.Sprintf("%s-file-%03d", project, i),
			Attributes: []core.Attribute{
				{Name: "project", Value: core.String(project)},
				{Name: "index", Value: core.Int(int64(i))},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// wireSummary is what a router holds for a catalog: its summary built,
// encoded as the discoverySummary reply and decoded again.
func wireSummary(t *testing.T, cat *core.Catalog) *Summary {
	t.Helper()
	s, err := Summarize(cat, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(resp)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSummaryScreening(t *testing.T) {
	sites := map[string]*Summary{
		"ligo": wireSummary(t, newSite(t, "ligo", 20)),
		"esg":  wireSummary(t, newSite(t, "esg", 20)),
	}
	for _, c := range []struct {
		name string
		pred core.Predicate
		want []string // the sites that may match
	}{
		{"value held by one site", core.Predicate{Attribute: "project", Op: core.OpEq, Value: core.String("ligo")}, []string{"ligo"}},
		{"value held by none", core.Predicate{Attribute: "project", Op: core.OpEq, Value: core.String("sdss")}, nil},
		{"unknown attribute", core.Predicate{Attribute: "nosuch", Op: core.OpEq, Value: core.String("x")}, nil},
		{"range predicate", core.Predicate{Attribute: "index", Op: core.OpGt, Value: core.Int(5)}, []string{"esg", "ligo"}},
		{"static attribute", core.Predicate{Attribute: "dataType", Op: core.OpEq, Value: core.String("binary")}, []string{"esg", "ligo"}},
	} {
		q := core.Query{Predicates: []core.Predicate{c.pred}}
		var got []string
		for _, name := range []string{"esg", "ligo"} {
			if sites[name].MayMatch(q) {
				got = append(got, name)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: may match %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSummaryWireFormat pins the discoverySummary reply byte for byte:
// routers and shards of different versions exchange it.
func TestSummaryWireFormat(t *testing.T) {
	cat := newSite(t, "ligo", 2)
	s, err := Summarize(cat, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := &mcswire.DiscoverySummaryResponse{
		Attrs:   []string{"index", "project"},
		Pairs:   "eyJtIjo2NCwiayI6OSwiYml0cyI6ImQ1SkVnS3NFRWdrPSJ9",
		Objects: 4,
	}
	if !reflect.DeepEqual(resp, want) {
		t.Fatalf("Encode = %+v\nwant     %+v", resp, want)
	}
}

func TestDecodeRefusesMalformedBloom(t *testing.T) {
	good, err := Summarize(newSite(t, "x", 3), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := base64.StdEncoding.DecodeString(resp.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString
	for name, pairs := range map[string]string{
		"not base64":      "!!not base64!!",
		"truncated JSON":  b64(raw[:len(raw)/2]),
		"not JSON":        b64([]byte("bloom")),
		"short bits":      b64([]byte(`{"m":1024,"k":4,"bits":"AA=="}`)),
		"partial word":    b64([]byte(`{"m":72,"k":4,"bits":"AAAAAAAAAAAA"}`)),
		"zero hash count": b64([]byte(`{"m":64,"k":0,"bits":"AAAAAAAAAAA="}`)),
		"empty":           "",
	} {
		if s, err := Decode(&mcswire.DiscoverySummaryResponse{Attrs: resp.Attrs, Pairs: pairs}); err == nil {
			t.Errorf("%s: Decode accepted the bloom (%+v)", name, s)
		}
	}
}
