package mcs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mcs/internal/shard"
)

// shardedDeployment is two deterministic mcsd shards behind an mcsrouter
// core, all in-process: shard s0 owns the "s0-" prefix (and the catch-all),
// shard s1 owns "s1-".
type shardedDeployment struct {
	url    string
	router *shard.Router
	shards []*Server
}

// startSharded builds a two-shard deployment. shardOpts[i], when present,
// customizes shard i (fault injectors for chaos legs); routerOpts customizes
// the router (its Map is filled in here).
func startSharded(t *testing.T, routerOpts shard.Options, shardOpts ...ServerOptions) *shardedDeployment {
	t.Helper()
	d := &shardedDeployment{}
	var eps []string
	for i := 0; i < 2; i++ {
		opts := ServerOptions{}
		if i < len(shardOpts) {
			opts = shardOpts[i]
		}
		if opts.CatalogOptions.Clock == nil {
			opts.CatalogOptions.Clock = fixedClock
		}
		srv, url := startServer(t, opts)
		d.shards = append(d.shards, srv)
		eps = append(eps, url)
	}
	m, err := shard.ParseInline(fmt.Sprintf("s0-=%s,s1-=%s,*=%s", eps[0], eps[1], eps[0]))
	if err != nil {
		t.Fatal(err)
	}
	routerOpts.Map = m
	d.router, err = shard.NewRouter(routerOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.router.Stop)
	ts := httptest.NewServer(d.router)
	t.Cleanup(ts.Close)
	d.url = ts.URL
	return d
}

// shardScript is the cross-shard parity script: every routed operation at
// least once, with objects spread across both shards and representative
// error legs. Query-shaped steps sort their results in the step itself —
// the sharded contract is set equality, and the direct server's unpaged
// query order is storage order, not name order.
func shardScript() []parityStep {
	dt := "hdf5"
	red := []Predicate{{Attribute: "color", Op: OpEq, Value: String("red")}}
	return []parityStep{
		{"ping", func(c *Client) (any, error) { return c.Ping() }},
		{"defineAttribute", func(c *Client) (any, error) { return c.DefineAttribute("color", AttrString, "hue") }},
		{"defineAttribute", func(c *Client) (any, error) { return c.DefineAttribute("size", AttrInt, "bytes") }},
		{"listAttributeDefs", func(c *Client) (any, error) { return c.ListAttributeDefs() }},
		{"createCollection", func(c *Client) (any, error) {
			return c.CreateCollection(CollectionSpec{Name: "s0-col", Description: "shard zero", Audited: true})
		}},
		{"createCollection", func(c *Client) (any, error) { return c.CreateCollection(CollectionSpec{Name: "s0-dst"}) }},
		{"createCollection", func(c *Client) (any, error) { return c.CreateCollection(CollectionSpec{Name: "s1-col"}) }},
		{"getCollection", func(c *Client) (any, error) { return c.GetCollection("s1-col") }},
		{"createFile", func(c *Client) (any, error) {
			return c.CreateFile(FileSpec{
				Name: "s0-a.dat", Collection: "s0-col", DataType: "binary", Audited: true,
				Provenance: "generated",
			})
		}},
		// color=red goes on the single-version files only: s0-a.dat grows a
		// second version below, and queryAttrs hydration refuses ambiguous
		// names on direct and sharded deployments alike.
		{"createFile", func(c *Client) (any, error) {
			return c.CreateFile(FileSpec{
				Name: "s0-b.dat", Collection: "s0-col",
				Attributes: []Attribute{{Name: "color", Value: String("red")}},
			})
		}},
		{"createFile", func(c *Client) (any, error) {
			return c.CreateFile(FileSpec{
				Name: "s1-a.dat", Collection: "s1-col",
				Attributes: []Attribute{{Name: "color", Value: String("red")}},
			})
		}},
		// Versioned re-create (s0-a.dat grows version 2) plus the ambiguous
		// version-0 legs it causes below: all single-shard, so the router
		// must pass those sentinels through unchanged.
		{"createFile", func(c *Client) (any, error) { return c.CreateFile(FileSpec{Name: "s0-a.dat"}) }},
		{"getFile", func(c *Client) (any, error) { return c.GetFile("s0-a.dat", 0) }},
		{"getFile", func(c *Client) (any, error) { return c.GetFile("s1-nope.dat", 0) }},
		{"updateFile", func(c *Client) (any, error) { return c.UpdateFile("s0-a.dat", 0, FileUpdate{DataType: &dt}) }},
		{"fileVersions", func(c *Client) (any, error) { return c.FileVersions("s0-a.dat") }},
		{"setAttribute", func(c *Client) (any, error) {
			return nil, c.SetAttribute(ObjectFile, "s1-a.dat", "size", Int(42))
		}},
		{"getAttributes", func(c *Client) (any, error) { return c.GetAttributes(ObjectFile, "s1-a.dat") }},
		// The cross-shard scatter: color=red matches one file on each shard.
		{"query", func(c *Client) (any, error) {
			names, err := c.RunQuery(Query{Predicates: red})
			sort.Strings(names)
			return names, err
		}},
		{"query", func(c *Client) (any, error) {
			var names []string
			err := c.RunQueryStream(Query{Predicates: red}, func(n string) error {
				names = append(names, n)
				return nil
			})
			// The SOAP client pages this through queryPage, whose routed
			// order is shard-grouped; compare as a set.
			sort.Strings(names)
			return names, err
		}},
		{"queryPage", func(c *Client) (any, error) {
			var all []string
			token := ""
			for {
				names, next, err := c.RunQueryPage(Query{Predicates: red}, 1, token)
				if err != nil {
					return nil, err
				}
				all = append(all, names...)
				if next == "" {
					sort.Strings(all)
					return all, nil
				}
				token = next
			}
		}},
		{"queryAttrs", func(c *Client) (any, error) {
			res, err := c.RunQueryAttrs(Query{Predicates: red}, []string{"size"})
			sort.Slice(res, func(i, j int) bool { return res[i].Name < res[j].Name })
			return res, err
		}},
		{"collectionContents", func(c *Client) (any, error) {
			files, subs, err := c.CollectionContents("s0-col")
			return []any{files, subs}, err
		}},
		{"collectionContentsPage", func(c *Client) (any, error) {
			var allFiles []File
			var allSubs []Collection
			token := ""
			for {
				files, subs, next, err := c.CollectionContentsPage("s0-col", 1, token)
				if err != nil {
					return nil, err
				}
				allFiles = append(allFiles, files...)
				allSubs = append(allSubs, subs...)
				if next == "" {
					return []any{allFiles, allSubs}, nil
				}
				token = next
			}
		}},
		{"listCollections", func(c *Client) (any, error) { return c.ListCollections("") }},
		{"createView", func(c *Client) (any, error) {
			return c.CreateView(ViewSpec{Name: "s0-v", Description: "subset"})
		}},
		{"addToView", func(c *Client) (any, error) { return nil, c.AddToView("s0-v", ObjectFile, "s0-a.dat") }},
		{"viewContents", func(c *Client) (any, error) { return c.ViewContents("s0-v") }},
		{"expandView", func(c *Client) (any, error) { return c.ExpandView("s0-v") }},
		{"removeFromView", func(c *Client) (any, error) { return nil, c.RemoveFromView("s0-v", ObjectFile, "s0-a.dat") }},
		{"annotate", func(c *Client) (any, error) { return c.Annotate(ObjectFile, "s1-a.dat", "looks good") }},
		{"getAnnotations", func(c *Client) (any, error) { return c.Annotations(ObjectFile, "s1-a.dat") }},
		{"addProvenance", func(c *Client) (any, error) { return nil, c.AddProvenance("s0-a.dat", 0, "recalibrated") }},
		{"getProvenance", func(c *Client) (any, error) { return c.Provenance("s0-a.dat", 0) }},
		{"auditLog", func(c *Client) (any, error) { return c.AuditLog(ObjectFile, "s0-a.dat") }},
		{"grant", func(c *Client) (any, error) { return nil, c.Grant(ObjectFile, "s0-a.dat", testBob, PermRead) }},
		{"revoke", func(c *Client) (any, error) { return nil, c.Revoke(ObjectFile, "s0-a.dat", testBob, PermRead) }},
		// Service-level (global) grant and revoke broadcast to every shard.
		{"grant", func(c *Client) (any, error) { return nil, c.Grant(ObjectService, "", testBob, PermCreate) }},
		{"revoke", func(c *Client) (any, error) { return nil, c.Revoke(ObjectService, "", testBob, PermCreate) }},
		{"registerWriter", func(c *Client) (any, error) {
			return nil, c.RegisterWriter(Writer{DN: testAlice, Institution: "ISI", Email: "alice@isi.edu"})
		}},
		{"getWriter", func(c *Client) (any, error) { return c.GetWriter(testAlice) }},
		{"registerExternalCatalog", func(c *Client) (any, error) {
			return c.RegisterExternalCatalog(ExternalCatalog{Name: "rc", Type: "replica", Host: "rc.isi.edu"})
		}},
		{"listExternalCatalogs", func(c *Client) (any, error) { return c.ListExternalCatalogs() }},
		{"batchWrite", func(c *Client) (any, error) {
			return c.BatchWrite([]BatchOp{
				{CreateFile: &FileSpec{Name: "s0-bw1.dat", Collection: "s0-col"}},
				{CreateFile: &FileSpec{Name: "s0-bw2.dat", Collection: "s0-col"}},
			})
		}},
		{"moveFile", func(c *Client) (any, error) { return nil, c.MoveFile("s0-b.dat", 0, "s0-dst") }},
		{"unsetAttribute", func(c *Client) (any, error) { return nil, c.UnsetAttribute(ObjectFile, "s1-a.dat", "size") }},
		{"deleteFile", func(c *Client) (any, error) { return nil, c.DeleteFile("s0-bw2.dat", 0) }},
		{"deleteView", func(c *Client) (any, error) { return nil, c.DeleteView("s0-v") }},
		// Error leg: non-empty collection refuses deletion.
		{"deleteCollection", func(c *Client) (any, error) { return nil, c.DeleteCollection("s0-col") }},
		{"deleteCollection", func(c *Client) (any, error) {
			if err := c.DeleteFile("s0-b.dat", 0); err != nil {
				return nil, err
			}
			return nil, c.DeleteCollection("s0-dst")
		}},
		{"stats", func(c *Client) (any, error) { return c.Stats() }},
	}
}

// stripVolatile returns a deep copy of v (via its JSON encoding) with
// server-assigned identifiers removed: ID sequences advance independently on
// each shard, and request IDs are random per run, so neither is part of the
// sharding contract. Everything else — names, versions, timestamps, values,
// counts — must match field for field.
func stripVolatile(t *testing.T, v any) any {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal parity value: %v", err)
	}
	var d any
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("unmarshal parity value: %v", err)
	}
	return stripIDs(d)
}

func stripIDs(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			if k == "ID" || k == "id" || strings.HasSuffix(k, "ID") || strings.HasSuffix(k, "Id") {
				delete(x, k)
				continue
			}
			x[k] = stripIDs(val)
		}
		return x
	case []any:
		for i := range x {
			x[i] = stripIDs(x[i])
		}
		return x
	}
	return v
}

// runShardScript executes the script against url over the given transport,
// returning stripped result values and error sentinels per step.
func runShardScript(t *testing.T, url string, kind TransportKind) (results []any, sentinels []string) {
	t.Helper()
	c := NewClient(url, testAlice, WithTransport(kind))
	for i, step := range shardScript() {
		v, err := step.run(c)
		if err != nil {
			v = nil
		}
		results = append(results, stripVolatile(t, v))
		sentinels = append(sentinels, sentinelName(err))
		if s := sentinels[i]; strings.HasPrefix(s, "unclassified") {
			t.Fatalf("step %d (%s) over %s: %s", i, step.op, kind, s)
		}
	}
	return results, sentinels
}

// TestShardRouterParity proves the tentpole claim: the full operation mix,
// run against a router fronting two shards, yields the same results and the
// same error sentinels as a single direct mcsd — over both wires.
func TestShardRouterParity(t *testing.T) {
	script := shardScript()
	for _, kind := range []TransportKind{TransportSOAP, TransportJSON} {
		t.Run(string(kind), func(t *testing.T) {
			_, directURL := startServer(t, ServerOptions{CatalogOptions: Options{Clock: fixedClock}})
			sharded := startSharded(t, shard.Options{})

			directResults, directSentinels := runShardScript(t, directURL, kind)
			routedResults, routedSentinels := runShardScript(t, sharded.url, kind)

			for i := range script {
				if directSentinels[i] != routedSentinels[i] {
					t.Errorf("step %d (%s): sentinel direct = %q, routed = %q",
						i, script[i].op, directSentinels[i], routedSentinels[i])
				}
				if !reflect.DeepEqual(directResults[i], routedResults[i]) {
					t.Errorf("step %d (%s): result mismatch\n direct: %#v\n routed: %#v",
						i, script[i].op, directResults[i], routedResults[i])
				}
			}
			// Both shards must actually have participated: the script is a
			// distribution test, not a passthrough test.
			for i, srv := range sharded.shards {
				st, err := srv.Catalog().Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.Files == 0 {
					t.Errorf("shard %d holds no files; script did not distribute", i)
				}
			}
		})
	}
}

// TestShardRouterTableCoverage pins the router's dispatch table to the
// server's: every server operation except discoverySummary (the router is
// not a catalog — summaries are pulled from shards, never merged), and the
// parity script covers all of them.
func TestShardRouterTableCoverage(t *testing.T) {
	srv, _ := startServer(t, ServerOptions{})
	sharded := startSharded(t, shard.Options{})

	var want []string
	for _, op := range srv.Table().Ops() {
		if op != "discoverySummary" {
			want = append(want, op)
		}
	}
	got := sharded.router.Table().Ops()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("router ops = %v\nwant server ops minus discoverySummary = %v", got, want)
	}

	covered := map[string]bool{}
	for _, step := range shardScript() {
		covered[step.op] = true
	}
	for _, op := range got {
		if !covered[op] {
			t.Errorf("shard parity script does not cover routed op %q", op)
		}
	}
}

// TestShardRouterCrossShardBatchAndMove pins the single-shard write
// contract: a batch spanning shards and a cross-shard move are refused with
// InvalidInput rather than half-applied.
func TestShardRouterCrossShardBatchAndMove(t *testing.T) {
	sharded := startSharded(t, shard.Options{})
	c := NewClient(sharded.url, testAlice, WithTransport(TransportJSON))
	for _, name := range []string{"s0-col", "s1-col"} {
		if _, err := c.CreateCollection(CollectionSpec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateFile(FileSpec{Name: "s0-f.dat", Collection: "s0-col"}); err != nil {
		t.Fatal(err)
	}

	_, err := c.BatchWrite([]BatchOp{
		{CreateFile: &FileSpec{Name: "s0-x.dat", Collection: "s0-col"}},
		{CreateFile: &FileSpec{Name: "s1-x.dat", Collection: "s1-col"}},
	})
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("cross-shard batch = %v, want ErrInvalidInput", err)
	}
	if _, err := c.GetFile("s0-x.dat", 0); !errors.Is(err, ErrNotFound) {
		t.Fatal("refused batch still created s0-x.dat")
	}

	if err := c.MoveFile("s0-f.dat", 0, "s1-col"); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("cross-shard move = %v, want ErrInvalidInput", err)
	}
}

// TestShardRouterRetriedMutation proves exactly-once survives the extra hop:
// the router's own reply is dropped after it forwarded the mutation, the
// client retries with its pinned idempotency key, the router re-forwards the
// same key, and the shard's replay cache answers — one version, one replay.
func TestShardRouterRetriedMutation(t *testing.T) {
	for _, kind := range []TransportKind{TransportSOAP, TransportJSON} {
		t.Run(string(kind), func(t *testing.T) {
			inj := NewFaultInjector(1, FaultRule{
				Site: FaultSiteAfter, Op: "createFile", Kind: FaultKindError, Times: 1,
			})
			sharded := startSharded(t, shard.Options{FaultInjector: inj})
			c := NewClient(sharded.url, testAlice, WithTransport(kind), WithRetry(5))
			if _, err := c.CreateFile(FileSpec{Name: "s0-once.dat", Audited: true}); err != nil {
				t.Fatalf("create through lost router reply: %v", err)
			}
			if st := c.RetryStats(); st.Retries != 1 {
				t.Fatalf("retries = %d, want 1", st.Retries)
			}
			vs, err := c.FileVersions("s0-once.dat")
			if err != nil || len(vs) != 1 {
				t.Fatalf("versions = %+v, %v; want exactly one", vs, err)
			}
			if hits := sharded.shards[0].Catalog().ReplayHits(); hits != 1 {
				t.Fatalf("shard replay cache hits = %d, want 1", hits)
			}
		})
	}
}

// TestShardRouterChaosPartialResult kills one shard (persistent injected
// dispatch errors) and pins the degradation contract: single-shard
// operations on the healthy shard keep working, operations owned by the dead
// shard surface its retryable Unavailable, and scatter queries fail with the
// typed, non-retryable ErrPartialResult instead of silently returning half
// an answer.
func TestShardRouterChaosPartialResult(t *testing.T) {
	inj := NewFaultInjector(1, FaultRule{Site: FaultSiteDispatch, Kind: FaultKindError})
	inj.SetEnabled(false)
	sharded := startSharded(t, shard.Options{}, ServerOptions{}, ServerOptions{FaultInjector: inj})
	c := NewClient(sharded.url, testAlice, WithTransport(TransportJSON))
	if _, err := c.DefineAttribute("color", AttrString, "hue"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s0-f.dat", "s1-f.dat"} {
		if _, err := c.CreateFile(FileSpec{
			Name: name, Attributes: []Attribute{{Name: "color", Value: String("red")}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	inj.SetEnabled(true)
	if _, err := c.GetFile("s0-f.dat", 0); err != nil {
		t.Fatalf("healthy-shard op during outage: %v", err)
	}
	if _, err := c.GetFile("s1-f.dat", 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dead-shard op = %v, want ErrUnavailable", err)
	}
	for _, kind := range []TransportKind{TransportSOAP, TransportJSON} {
		_, err := NewClient(sharded.url, testAlice, WithTransport(kind)).
			RunQuery(Query{Predicates: []Predicate{{Attribute: "color", Op: OpEq, Value: String("red")}}})
		if !errors.Is(err, ErrPartialResult) {
			t.Fatalf("scatter during outage over %s = %v, want ErrPartialResult", kind, err)
		}
		if Retryable(err) {
			t.Fatalf("partial result over %s is retryable; retries cannot resurrect the dead shard's rows", kind)
		}
	}
	if _, err := c.Stats(); !errors.Is(err, ErrPartialResult) {
		t.Fatalf("stats during outage = %v, want ErrPartialResult", err)
	}

	inj.SetEnabled(false)
	names, err := c.RunQuery(Query{Predicates: []Predicate{{Attribute: "color", Op: OpEq, Value: String("red")}}})
	if err != nil || len(names) != 2 {
		t.Fatalf("scatter after recovery = %v, %v; want both files", names, err)
	}
}

// swapHandler lets a test replace the server behind a fixed URL — the
// in-process stand-in for a shard process restart.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// TestShardRouterPaginationAcrossShardRestart drives a paged scatter query,
// restarts a shard (snapshot, new process, same state) mid-iteration, and
// finishes the walk with the token issued before the restart: both the
// shard's cursor tokens and the router's composed tokens are stateless, so
// the iteration completes exactly.
func TestShardRouterPaginationAcrossShardRestart(t *testing.T) {
	sw := make([]*swapHandler, 2)
	srvs := make([]*Server, 2)
	var eps []string
	for i := range sw {
		srv, err := NewServer(ServerOptions{CatalogOptions: Options{Clock: fixedClock}})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		sw[i] = &swapHandler{h: srv}
		ts := httptest.NewServer(sw[i])
		t.Cleanup(ts.Close)
		eps = append(eps, ts.URL)
	}
	m, err := shard.ParseInline(fmt.Sprintf("s0-=%s,s1-=%s", eps[0], eps[1]))
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.NewRouter(shard.Options{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Stop)
	rts := httptest.NewServer(router)
	t.Cleanup(rts.Close)

	c := NewClient(rts.URL, testAlice, WithTransport(TransportJSON))
	if _, err := c.DefineAttribute("run", AttrString, "science run"); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, name := range []string{"s0-a", "s0-b", "s0-c", "s1-a", "s1-b", "s1-c"} {
		if _, err := c.CreateFile(FileSpec{
			Name: name, Attributes: []Attribute{{Name: "run", Value: String("S2")}},
		}); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}

	q := Query{Predicates: []Predicate{{Attribute: "run", Op: OpEq, Value: String("S2")}}}
	var got []string
	names, token, err := c.RunQueryPage(q, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, names...)

	// Restart shard s1 behind its URL: snapshot its state, build a fresh
	// server from the snapshot, swap it in. The old server is gone; only
	// durable state and the client-held token survive.
	var snap bytes.Buffer
	if err := srvs[1].Catalog().Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCatalog(Options{Clock: fixedClock}, &snap)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(ServerOptions{Catalog: restored})
	if err != nil {
		t.Fatal(err)
	}
	sw[1].swap(srv2)

	for token != "" {
		names, token, err = c.RunQueryPage(q, 2, token)
		if err != nil {
			t.Fatalf("page after shard restart: %v", err)
		}
		got = append(got, names...)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged walk across restart = %v, want %v", got, want)
	}
}

// TestShardRouterBloomScreening pins the scatter-narrowing contract: fresh
// summaries route a selective query to only the shard that can match; a
// mutation forwarded after the pull marks its shard dirty so the very next
// query still sees the new object (staleness must never cost an answer);
// and a refresh restores screening.
func TestShardRouterBloomScreening(t *testing.T) {
	sharded := startSharded(t, shard.Options{})
	c := NewClient(sharded.url, testAlice, WithTransport(TransportJSON))
	if _, err := c.DefineAttribute("run", AttrString, "science run"); err != nil {
		t.Fatal(err)
	}
	mk := func(name, run string) {
		t.Helper()
		if _, err := c.CreateFile(FileSpec{
			Name: name, Attributes: []Attribute{{Name: "run", Value: String(run)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("s0-f.dat", "S2")
	mk("s1-f.dat", "S5")
	if err := sharded.router.RefreshSummaries(); err != nil {
		t.Fatalf("refresh: %v", err)
	}

	query := func(run string) []string {
		t.Helper()
		names, err := c.RunQuery(Query{Predicates: []Predicate{
			{Attribute: "run", Op: OpEq, Value: String(run)}}})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(names)
		return names
	}
	subqueries := func() int64 {
		t.Helper()
		st := routerStatz(t, sharded.url)
		return st.ScatterSubqueries
	}

	base := subqueries()
	if got := query("S2"); !reflect.DeepEqual(got, []string{"s0-f.dat"}) {
		t.Fatalf("query S2 = %v", got)
	}
	if d := subqueries() - base; d != 1 {
		t.Fatalf("screened query hit %d shards, want 1", d)
	}
	base = subqueries()
	if got := query("S9"); len(got) != 0 {
		t.Fatalf("query S9 = %v, want empty", got)
	}
	if d := subqueries() - base; d != 0 {
		t.Fatalf("fully screened query hit %d shards, want 0", d)
	}

	// The soft-state guarantee: a write lands on s1 after the summary pull;
	// a query for it must include the dirty shard even though the stale
	// bloom says "no match here".
	mk("s1-g.dat", "S9")
	if got := query("S9"); !reflect.DeepEqual(got, []string{"s1-g.dat"}) {
		t.Fatalf("query S9 after write = %v; stale summary cost an answer", got)
	}

	if err := sharded.router.RefreshSummaries(); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	base = subqueries()
	if got := query("S9"); !reflect.DeepEqual(got, []string{"s1-g.dat"}) {
		t.Fatalf("query S9 after refresh = %v", got)
	}
	if d := subqueries() - base; d != 1 {
		t.Fatalf("re-screened query hit %d shards, want 1", d)
	}
}

// TestShardRouterPollCoversBypassedWrite: a write sent straight to a shard
// sets no dirty bit, so the router's summary hides it until the background
// poll pulls a summary that covers it; from then on the query is both
// answered and screened down to that shard.
func TestShardRouterPollCoversBypassedWrite(t *testing.T) {
	sharded := startSharded(t, shard.Options{SummaryInterval: 5 * time.Millisecond})
	c := NewClient(sharded.url, testAlice, WithTransport(TransportJSON))
	if _, err := c.DefineAttribute("run", AttrString, "science run"); err != nil {
		t.Fatal(err)
	}
	sharded.router.Start()
	if _, err := sharded.shards[1].Catalog().CreateFile(testAlice, FileSpec{
		Name: "s1-late.dat", Attributes: []Attribute{{Name: "run", Value: String("S9")}},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		base := routerStatz(t, sharded.url).ScatterSubqueries
		names, err := c.RunQuery(Query{Predicates: []Predicate{{Attribute: "run", Op: OpEq, Value: String("S9")}}})
		if err != nil {
			t.Fatal(err)
		}
		sent := routerStatz(t, sharded.url).ScatterSubqueries - base
		if reflect.DeepEqual(names, []string{"s1-late.dat"}) && sent == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no poll covered the bypassed write: query = %v over %d shards", names, sent)
		}
		time.Sleep(time.Millisecond)
	}
}

// routerStatzPayload is the subset of the router's /statz the tests read.
type routerStatzPayload struct {
	Role              string `json:"role"`
	ScatterSubqueries int64  `json:"scatter_subqueries"`
	Shards            []struct {
		Endpoint  string `json:"endpoint"`
		Healthy   bool   `json:"healthy"`
		Forwarded int64  `json:"forwarded"`
	} `json:"shards"`
}

func routerStatz(t *testing.T, url string) routerStatzPayload {
	t.Helper()
	resp, err := http.Get(url + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st routerStatzPayload
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShardRouterObservability checks the router's diagnostic surface:
// mcs_router_* counters on /metrics, per-shard breakdown in /statz, and
// /healthz degrading per shard health.
func TestShardRouterObservability(t *testing.T) {
	inj := NewFaultInjector(1, FaultRule{Site: FaultSiteDispatch, Kind: FaultKindError})
	inj.SetEnabled(false)
	sharded := startSharded(t, shard.Options{}, ServerOptions{}, ServerOptions{FaultInjector: inj})
	c := NewClient(sharded.url, testAlice, WithTransport(TransportJSON))
	if _, err := c.CreateFile(FileSpec{Name: "s0-f.dat"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListCollections(""); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(sharded.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"mcs_router_scatter_ops_total 1",
		"mcs_router_scatter_subqueries_total 2",
		"mcs_router_shard_forwarded_total",
		"mcs_router_shard_unreachable_total",
		"mcs_router_bloom_fp_subqueries_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	st := routerStatz(t, sharded.url)
	if st.Role != "router" || len(st.Shards) != 2 {
		t.Fatalf("statz = %+v", st)
	}
	var forwarded int64
	for _, sh := range st.Shards {
		forwarded += sh.Forwarded
	}
	if forwarded < 3 {
		t.Fatalf("statz forwarded total = %d, want >= 3", forwarded)
	}

	get := func() (int, string) {
		resp, err := http.Get(sharded.url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get(); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz all-up = %d %q", code, body)
	}
	inj.SetEnabled(true)
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, "degraded") {
		t.Fatalf("healthz one-down = %d %q, want degraded", code, body)
	}
}
