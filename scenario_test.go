package mcs_test

// Integration test of the paper's Figure 2 scenario across real network
// services: (1) attribute query to the MCS, (2) logical names back,
// (3) RLS query, (4) physical locations back, (5) contact the storage
// system, (6) data returned over GridFTP — plus the federated-discovery
// extension of section 9.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcs"
	"mcs/internal/gridftp"
	"mcs/internal/rls"
	"mcs/internal/shard"
)

const scenarioDN = "/O=Grid/OU=Test/CN=scenario"

func TestFigure2Scenario(t *testing.T) {
	// --- Services. ---
	srv, err := mcs.NewServer(mcs.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mcsHTTP := httptest.NewServer(srv)
	defer mcsHTTP.Close()
	catalog := mcs.NewClient(mcsHTTP.URL, scenarioDN)

	lrc := rls.NewLRC("lrc://site")
	rli := rls.NewRLI()
	rlsHTTP := httptest.NewServer(rls.NewServer(lrc, rli))
	defer rlsHTTP.Close()
	replica := rls.NewClient(rlsHTTP.URL)

	store := gridftp.NewMemStore()
	ftp := gridftp.NewServer(store)
	ftpAddr, err := ftp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ftp.Close()

	// --- Publication: data + replica mapping + descriptive metadata. ---
	if _, err := catalog.DefineAttribute("experiment", mcs.AttrString, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := catalog.DefineAttribute("energy", mcs.AttrFloat, "GeV"); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("event-data;"), 10000)
	store.Put("cms-run-42.root", content)
	if err := replica.AddMapping("cms-run-42.root", "gsiftp://"+ftpAddr+"/cms-run-42.root"); err != nil {
		t.Fatal(err)
	}
	if err := replica.SendUpdate("lrc://site", lrc.LFNs(), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := catalog.CreateFile(mcs.FileSpec{
		Name: "cms-run-42.root", DataType: "binary",
		Attributes: []mcs.Attribute{
			{Name: "experiment", Value: mcs.String("cms")},
			{Name: "energy", Value: mcs.Float(7000)},
		},
	}); err != nil {
		t.Fatal(err)
	}

	// --- Steps 1-2: attribute query -> logical names. ---
	names, err := catalog.RunQuery(mcs.Query{Predicates: []mcs.Predicate{
		{Attribute: "experiment", Op: mcs.OpEq, Value: mcs.String("cms")},
		{Attribute: "energy", Op: mcs.OpGe, Value: mcs.Float(5000)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "cms-run-42.root" {
		t.Fatalf("step 1-2: %v", names)
	}

	// --- Steps 3-4: RLI -> LRC -> physical locations. ---
	lrcs, err := replica.QueryRLI(names[0])
	if err != nil || len(lrcs) != 1 {
		t.Fatalf("step 3: %v, %v", lrcs, err)
	}
	pfns, err := replica.Lookup(names[0])
	if err != nil || len(pfns) != 1 {
		t.Fatalf("step 4: %v, %v", pfns, err)
	}

	// --- Steps 5-6: GridFTP retrieval with parallel streams. ---
	rest := strings.TrimPrefix(pfns[0], "gsiftp://")
	slash := strings.IndexByte(rest, '/')
	got, err := gridftp.NewClient(rest[:slash], 4).Retrieve(rest[slash+1:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("step 6: retrieved bytes differ")
	}
}

// TestFederatedDiscoveryScenario runs section 9's design: independent
// sites, each a full MCS publishing under its own name prefix, behind a
// router that is the aggregating index. The router screens a discovery
// query through the sites' summaries, subqueries only the sites that may
// match, and refuses to pass off a dead site's missing rows as a short list.
func TestFederatedDiscoveryScenario(t *testing.T) {
	for _, kind := range []mcs.TransportKind{mcs.TransportSOAP, mcs.TransportJSON} {
		t.Run(string(kind), func(t *testing.T) {
			sites := map[string]*httptest.Server{}
			var rules []string
			for _, exp := range []string{"atlas", "cms"} {
				srv, err := mcs.NewServer(mcs.ServerOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv)
				t.Cleanup(ts.Close)
				sites[exp] = ts
				rules = append(rules, exp+"-="+ts.URL)

				c := mcs.NewClient(ts.URL, scenarioDN, mcs.WithTransport(kind))
				if _, err := c.DefineAttribute("experiment", mcs.AttrString, ""); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 5; i++ {
					if _, err := c.CreateFile(mcs.FileSpec{
						Name:       fmt.Sprintf("%s-%d.root", exp, i),
						Attributes: []mcs.Attribute{{Name: "experiment", Value: mcs.String(exp)}},
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			m, err := shard.ParseInline(strings.Join(rules, ","))
			if err != nil {
				t.Fatal(err)
			}
			router, err := shard.NewRouter(shard.Options{Map: m, SummaryInterval: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			router.Start()
			t.Cleanup(router.Stop)
			front := httptest.NewServer(router)
			t.Cleanup(front.Close)
			c := mcs.NewClient(front.URL, scenarioDN, mcs.WithTransport(kind))

			query := func(exp string) ([]string, int64, error) {
				t.Helper()
				before := scatterSubqueries(t, front.URL)
				names, err := c.RunQuery(mcs.Query{Predicates: []mcs.Predicate{
					{Attribute: "experiment", Op: mcs.OpEq, Value: mcs.String(exp)},
				}})
				return names, scatterSubqueries(t, front.URL) - before, err
			}
			names, sent, err := query("cms")
			if err != nil {
				t.Fatal(err)
			}
			if sent != 1 {
				t.Fatalf("query for one site's value sent %d subqueries, want 1", sent)
			}
			if len(names) != 5 || !strings.HasPrefix(names[0], "cms-") {
				t.Fatalf("names = %v", names)
			}

			// A dead site: a query the summaries cannot narrow to the live
			// site is refused as a partial result, never answered short.
			sites["atlas"].Close()
			if names, _, err := query("cms"); err != nil || len(names) != 5 {
				t.Fatalf("screened query with the other site down = %v, %v", names, err)
			}
			if names, err := c.RunQuery(mcs.Query{Predicates: []mcs.Predicate{
				{Attribute: "experiment", Op: mcs.OpLike, Value: mcs.String("%")},
			}}); !errors.Is(err, mcs.ErrPartialResult) {
				t.Fatalf("unscreenable query with a site down = %v, %v; want ErrPartialResult", names, err)
			}
		})
	}
}

// scatterSubqueries reads the router's running count of shard subqueries.
func scatterSubqueries(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		ScatterSubqueries int64 `json:"scatter_subqueries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ScatterSubqueries
}
