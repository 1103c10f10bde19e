// Federated MCS example: the distributed catalog design of the paper's
// section 9, running live.
//
// Three virtual organizations each operate their own self-consistent MCS.
// A shard router in front of them is the aggregating index: it pulls each
// catalog's soft-state summary — a bloom filter over its (attribute, value)
// bindings — and screens every discovery query through those summaries
// before it subqueries the catalogs, merging the answers. The output shows
// how much fan-out screening saves, and that a site that goes down turns a
// query it could answer into a typed partial-result error, never a short
// list.
//
// The router merges without de-duplicating: it assumes the sites' logical
// names do not overlap, which the per-site name prefixes guarantee.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"mcs"
	"mcs/internal/shard"
)

const me = "/O=Grid/CN=federated-user"

func main() {
	log.SetFlags(0)

	// --- Three sites, each its own MCS, each publishing under its prefix. ---
	specs := []struct {
		name, project string
		files         int
	}{
		{"ligo-caltech", "ligo", 40},
		{"esg-ncar", "esg", 25},
		{"griphyn-ufl", "cms", 30},
	}
	var rules []string
	servers := map[string]*httptest.Server{}
	for _, sp := range specs {
		srv, err := mcs.NewServer(mcs.ServerOptions{})
		must(err)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		servers[sp.name] = ts

		site := mcs.NewClient(ts.URL, me)
		_, err = site.DefineAttribute("project", mcs.AttrString, "")
		must(err)
		_, err = site.DefineAttribute("segment", mcs.AttrInt, "")
		must(err)
		for i := 0; i < sp.files; i++ {
			_, err := site.CreateFile(mcs.FileSpec{
				Name: fmt.Sprintf("%s-data-%03d", sp.project, i),
				Attributes: []mcs.Attribute{
					{Name: "project", Value: mcs.String(sp.project)},
					{Name: "segment", Value: mcs.Int(int64(i / 10))},
				},
			})
			must(err)
		}
		rules = append(rules, sp.project+"-="+ts.URL)
		fmt.Printf("site %-14s serving %2d files at %s\n", sp.name, sp.files, ts.URL)
	}

	// --- The router: Start pulls every site's summary before it returns. ---
	m, err := shard.ParseInline(strings.Join(rules, ","))
	must(err)
	router, err := shard.NewRouter(shard.Options{Map: m, SummaryInterval: time.Minute})
	must(err)
	router.Start()
	defer router.Stop()
	front := httptest.NewServer(router)
	defer front.Close()
	fed := mcs.NewClient(front.URL, me)
	fmt.Printf("router over %d sites at %s\n\n", len(specs), front.URL)

	// query runs one discovery query through the router and reports how many
	// sites it was sent to.
	query := func(p mcs.Predicate) ([]string, int64, error) {
		before := subqueries(front.URL)
		names, err := fed.RunQuery(mcs.Query{Predicates: []mcs.Predicate{p}})
		return names, subqueries(front.URL) - before, err
	}

	// --- Query 1: a value held by one site; the summaries screen the rest. ---
	names, sent, err := query(mcs.Predicate{Attribute: "project", Op: mcs.OpEq, Value: mcs.String("esg")})
	must(err)
	fmt.Printf("project=esg: screened to %d of %d sites (%d subqueries skipped); %d matches\n",
		sent, len(specs), int64(len(specs))-sent, len(names))

	// --- Query 2: a range predicate cannot be screened by value. ---
	names, sent, err = query(mcs.Predicate{Attribute: "segment", Op: mcs.OpGe, Value: mcs.Int(3)})
	must(err)
	fmt.Printf("segment>=3: sent to %d sites; merged %d names\n", sent, len(names))

	// --- A site goes down. ---
	servers["ligo-caltech"].Close()
	fmt.Printf("\nligo-caltech is down\n")
	names, sent, err = query(mcs.Predicate{Attribute: "project", Op: mcs.OpEq, Value: mcs.String("esg")})
	must(err)
	fmt.Printf("project=esg: sent to %d site; %d matches (the dead site is screened out, never asked)\n",
		sent, len(names))
	_, _, err = query(mcs.Predicate{Attribute: "segment", Op: mcs.OpGe, Value: mcs.Int(3)})
	if !errors.Is(err, mcs.ErrPartialResult) {
		log.Fatalf("segment>=3 with a site down: got %v, want a partial-result error", err)
	}
	fmt.Printf("segment>=3: refused as a partial result, not a short list: %v\n", err)
}

// subqueries reads the router's running count of shard subqueries from its
// /statz endpoint.
func subqueries(url string) int64 {
	resp, err := http.Get(url + "/statz")
	must(err)
	defer resp.Body.Close()
	var st struct {
		ScatterSubqueries int64 `json:"scatter_subqueries"`
	}
	must(json.NewDecoder(resp.Body).Decode(&st))
	return st.ScatterSubqueries
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
