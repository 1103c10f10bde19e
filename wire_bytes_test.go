package mcs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcs/internal/obs"
	"mcs/internal/shard"
)

// TestWireBytesPinned holds every byte the service puts on the wire to the
// goldens under testdata/wire/: one fixed script of calls, through a direct
// server and through the router over two shards, over each codec. Each
// golden records the client's requests and the replies, and for the router
// the forwarded requests and the shards' replies, with Date headers
// stripped, request IDs and idempotency keys pinned to sequence numbers and
// shard URLs replaced by names. The script covers every operation, a fault
// per sentinel, unary and NDJSON query and collectionContents (including an
// error before the first row), the operation listing, the WSDL and the
// /metrics series names.
//
// On a mismatch the new recording is written beside the golden as
// <name>.got; a deliberate wire change copies it over the golden.
func TestWireBytesPinned(t *testing.T) {
	for _, router := range []bool{false, true} {
		for _, kind := range []TransportKind{TransportSOAP, TransportJSON} {
			name := "direct_" + string(kind)
			if router {
				name = "router_" + string(kind)
			}
			t.Run(name, func(t *testing.T) {
				got := recordWireScript(t, kind, router)
				path := filepath.Join("testdata", "wire", name+".golden")
				want, err := os.ReadFile(path)
				if err == nil && bytes.Equal(got, want) {
					return
				}
				if werr := os.WriteFile(path+".got", got, 0o644); werr != nil {
					t.Error(werr)
				}
				if err != nil {
					t.Fatalf("%v (this run's recording is in %s.got)", err, path)
				}
				t.Fatalf("wire bytes differ from %s (this run's recording is in %s.got):\n%s",
					path, path, firstDiff(want, got))
			})
		}
	}
}

// firstDiff renders the first differing line of two recordings with a few
// lines of context.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			from := max(0, i-6)
			return fmt.Sprintf("line %d\ncontext:\n%s\nwant: %s\ngot:  %s",
				i+1, strings.Join(gl[from:i], "\n"), w, g)
		}
	}
	return "lengths differ"
}

// wireLog is one deployment's recording. Exchanges append in call order;
// the shard recorders buffer theirs until the client's call has returned.
type wireLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	ids  map[string]string
	norm *strings.Replacer
}

// pin replaces a request's correlation value with a sequence name, the same
// name for every attempt and hop that repeats it.
func (l *wireLog) pin(h http.Header, name, prefix string) {
	v := h.Get(name)
	if v == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.ids[v]
	if !ok {
		p = fmt.Sprintf("%s-%03d", prefix, len(l.ids)+1)
		l.ids[v] = p
	}
	h.Set(name, p)
}

// message renders one HTTP message: its first line, its headers sorted
// without Date, a blank line and its body. A Content-Length follows the
// body after shard URLs are replaced by names.
func (l *wireLog) message(w *bytes.Buffer, first string, h http.Header, body []byte) {
	body = []byte(l.norm.Replace(string(body)))
	h = h.Clone()
	h.Del("Date")
	if h.Get("Content-Length") != "" {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteString(first + "\n")
	var hb bytes.Buffer
	h.Write(&hb) //nolint:errcheck // writes to memory
	w.WriteString(l.norm.Replace(strings.ReplaceAll(hb.String(), "\r\n", "\n")))
	w.WriteString("\n")
	w.Write(body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		w.WriteString("\n")
	}
}

// exchange renders one request (">>>") and its reply ("<<<"), each marker
// after who, which names the shard for a forwarded call.
func (l *wireLog) exchange(w *bytes.Buffer, who, target string, reqHdr http.Header, reqBody []byte,
	status int, respHdr http.Header, respBody []byte) {
	l.message(w, who+">>> "+target, reqHdr, reqBody)
	l.message(w, who+"<<< "+strconv.Itoa(status), respHdr, respBody)
}

func (l *wireLog) note(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.buf, "### "+format+"\n", args...)
}

// wireTripper records the client side: it pins the correlation headers,
// sends the request and records both messages as they crossed the wire.
type wireTripper struct {
	log *wireLog
	rt  http.RoundTripper
}

func (t *wireTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	t.log.pin(r.Header, obs.RequestIDHeader, "req")
	t.log.pin(r.Header, obs.IdempotencyKeyHeader, "key")
	var body []byte
	if r.Body != nil {
		body, _ = io.ReadAll(r.Body)
		r.Body.Close()
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := t.rt.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	rb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(rb))
	t.log.mu.Lock()
	t.log.exchange(&t.log.buf, "", r.Method+" "+r.URL.RequestURI(), r.Header, body,
		resp.StatusCode, resp.Header, rb)
	t.log.mu.Unlock()
	return resp, err
}

// shardRecorder sits in front of one shard and records what the router
// forwarded and what the shard answered. While down it answers 502 like a
// proxy in front of a dead backend.
type shardRecorder struct {
	name     string
	log      *wireLog
	h        http.Handler
	down     atomic.Bool
	inflight sync.WaitGroup
	mu       sync.Mutex
	buf      bytes.Buffer
}

func (s *shardRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	c := &captureWriter{w: w, status: http.StatusOK}
	if s.down.Load() {
		http.Error(c, "shard down", http.StatusBadGateway)
	} else {
		s.h.ServeHTTP(c, r)
	}
	s.mu.Lock()
	s.log.exchange(&s.buf, "  "+s.name+" ", r.Method+" "+r.URL.RequestURI(), r.Header, body,
		c.status, c.sent, c.body.Bytes())
	s.mu.Unlock()
}

// flush waits out the shard's in-flight calls and moves its exchanges to
// the deployment's log, after the client exchange that caused them.
func (s *shardRecorder) flush() {
	s.inflight.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	s.log.buf.Write(s.buf.Bytes())
	s.buf.Reset()
}

// captureWriter passes a reply through while keeping a copy of its status,
// headers (as of the first write) and body.
type captureWriter struct {
	w      http.ResponseWriter
	status int
	sent   http.Header
	body   bytes.Buffer
}

func (c *captureWriter) Header() http.Header { return c.w.Header() }

func (c *captureWriter) WriteHeader(status int) {
	if c.sent == nil {
		c.status, c.sent = status, c.w.Header().Clone()
	}
	c.w.WriteHeader(status)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	if c.sent == nil {
		c.sent = c.w.Header().Clone()
	}
	c.body.Write(b)
	return c.w.Write(b)
}

func (c *captureWriter) Flush() {
	if f, ok := c.w.(http.Flusher); ok {
		f.Flush()
	}
}

// wireDeployment is the service under a recording: its URL, the log, and
// for the router its shard recorders.
type wireDeployment struct {
	url    string
	log    *wireLog
	shards []*shardRecorder
	http   *http.Client
}

// step runs one scripted call and then files the forwarded exchanges it
// caused behind it.
func (d *wireDeployment) step(what string, call func() error) {
	d.log.note("%s", what)
	err := call()
	for _, s := range d.shards {
		s.flush()
	}
	if err != nil {
		d.log.note("error: %s", d.log.norm.Replace(err.Error()))
	}
}

// raw issues a hand-built request through the recording client, with a
// request ID so the reply's echo of it is pinned too.
func (d *wireDeployment) raw(method, path string, hdr map[string]string, body string) error {
	req, err := http.NewRequest(method, d.url+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(obs.RequestIDHeader, "raw-"+path+"-"+body)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// metricsSeries records the names and labels of the /metrics series, not
// their values: counts and latencies are not the wire contract.
func (d *wireDeployment) metricsSeries(t *testing.T) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var series []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			series = append(series, line[:i])
		}
	}
	sort.Strings(series)
	d.log.note("/metrics series")
	d.log.mu.Lock()
	for _, s := range series {
		d.log.buf.WriteString(d.log.norm.Replace(s) + "\n")
	}
	d.log.mu.Unlock()
}

// wireCatalog is every recorded catalog's configuration: pinned clock,
// authorization on, Alice the owner, so Bob can be denied.
var wireCatalog = Options{Clock: fixedClock, EnforceAuthz: true, Owner: testAlice}

// startWireDeployment builds a direct server with pinned clocks, or a
// router over two such shards. Shard s0 is whichever endpoint sorts first,
// so the router's shard order, and with it its composed page tokens, never
// depends on the ports the listeners drew.
func startWireDeployment(t *testing.T, router bool) *wireDeployment {
	t.Helper()
	log := &wireLog{ids: map[string]string{}, norm: strings.NewReplacer()}
	d := &wireDeployment{log: log}
	rt := &http.Transport{}
	t.Cleanup(rt.CloseIdleConnections)
	d.http = &http.Client{Transport: &wireTripper{log: log, rt: rt}, Timeout: 30 * time.Second}
	if !router {
		// The one injected fault answers the first getWriter with
		// Server.Unavailable; the retrying client's second attempt succeeds.
		inj := NewFaultInjector(1, FaultRule{
			Site: FaultSiteDispatch, Op: "getWriter", Kind: FaultKindError, Calls: []uint64{1},
		})
		_, d.url = startServer(t, ServerOptions{CatalogOptions: wireCatalog, FaultInjector: inj})
		return d
	}
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := NewServer(ServerOptions{CatalogOptions: wireCatalog})
		if err != nil {
			t.Fatal(err)
		}
		s := &shardRecorder{log: log, h: srv}
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		d.shards = append(d.shards, s)
		urls = append(urls, ts.URL)
	}
	if urls[1] < urls[0] {
		urls[0], urls[1] = urls[1], urls[0]
		d.shards[0], d.shards[1] = d.shards[1], d.shards[0]
	}
	d.shards[0].name, d.shards[1].name = "shard0", "shard1"
	log.norm = strings.NewReplacer(urls[0], "http://shard0", urls[1], "http://shard1")
	m, err := shard.ParseInline(fmt.Sprintf("s0-=%s,s1-=%s,*=%s", urls[0], urls[1], urls[0]))
	if err != nil {
		t.Fatal(err)
	}
	r, err := shard.NewRouter(shard.Options{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)
	d.url = ts.URL
	return d
}

// recordWireScript runs the script against a fresh deployment and returns
// the recording.
func recordWireScript(t *testing.T, kind TransportKind, router bool) []byte {
	d := startWireDeployment(t, router)
	opts := []ClientOption{
		WithTransport(kind), WithHTTPClient(d.http),
		WithRetry(2), WithBackoff(time.Millisecond, time.Millisecond),
	}
	c := NewClient(d.url, testAlice, opts...)
	bob := NewClient(d.url, testBob, opts...)
	red := []Predicate{{Attribute: "color", Op: OpEq, Value: String("red")}}
	bad := []Predicate{{Attribute: "color", Op: OpEq, Value: Int(7)}}
	dt := "hdf5"
	valid := false
	s := func(what string, call func() error) { d.step(what, call) }
	v := func(what string, call func() (any, error)) {
		d.step(what, func() error { _, err := call(); return err })
	}

	v("ping", func() (any, error) { return c.Ping() })
	v("defineAttribute", func() (any, error) { return c.DefineAttribute("color", AttrString, "hue") })
	v("defineAttribute", func() (any, error) { return c.DefineAttribute("size", AttrInt, "bytes") })
	v("defineAttribute: InvalidInput", func() (any, error) { return c.DefineAttribute("odd", AttrType("bogus"), "") })
	v("defineAttribute: Exists", func() (any, error) { return c.DefineAttribute("color", AttrString, "") })
	v("listAttributeDefs", func() (any, error) { return c.ListAttributeDefs() })
	v("createCollection", func() (any, error) {
		return c.CreateCollection(CollectionSpec{Name: "s0-col", Description: "shard zero", Audited: true,
			Attributes: []Attribute{{Name: "size", Value: Int(3)}}})
	})
	v("createCollection", func() (any, error) { return c.CreateCollection(CollectionSpec{Name: "s0-dst"}) })
	v("createCollection", func() (any, error) { return c.CreateCollection(CollectionSpec{Name: "s1-col"}) })
	v("createCollection: Exists", func() (any, error) { return c.CreateCollection(CollectionSpec{Name: "s1-col"}) })
	v("getCollection", func() (any, error) { return c.GetCollection("s1-col") })
	v("createFile", func() (any, error) {
		return c.CreateFile(FileSpec{Name: "s0-a.dat", Collection: "s0-col", DataType: "binary",
			Audited: true, Provenance: "generated"})
	})
	v("createFile", func() (any, error) {
		return c.CreateFile(FileSpec{Name: "s0-b.dat", Collection: "s0-col",
			Attributes: []Attribute{{Name: "color", Value: String("red")}}})
	})
	v("createFile", func() (any, error) {
		return c.CreateFile(FileSpec{Name: "s1-a.dat", Collection: "s1-col",
			Attributes: []Attribute{{Name: "color", Value: String("red")}, {Name: "size", Value: Int(9)}}})
	})
	v("createFile: second version", func() (any, error) { return c.CreateFile(FileSpec{Name: "s0-a.dat"}) })
	v("getFile: AmbiguousFile", func() (any, error) { return c.GetFile("s0-a.dat", 0) })
	v("getFile", func() (any, error) { return c.GetFile("s0-a.dat", 2) })
	v("getFile: NotFound", func() (any, error) { return c.GetFile("s1-nope.dat", 0) })
	v("updateFile", func() (any, error) { return c.UpdateFile("s0-b.dat", 0, FileUpdate{DataType: &dt}) })
	s("invalidateFile", func() error { return c.InvalidateFile("s0-a.dat", 1) })
	v("fileVersions", func() (any, error) { return c.FileVersions("s0-a.dat") })
	s("setAttribute", func() error { return c.SetAttribute(ObjectFile, "s1-a.dat", "size", Int(42)) })
	v("getAttributes", func() (any, error) { return c.GetAttributes(ObjectFile, "s1-a.dat") })
	v("getAttributes: none", func() (any, error) { return c.GetAttributes(ObjectCollection, "s1-col") })
	v("query", func() (any, error) { return c.RunQuery(Query{Predicates: red}) })
	v("query: limit", func() (any, error) { return c.RunQuery(Query{Predicates: red, Limit: 1}) })
	v("query: no predicates", func() (any, error) { return c.RunQuery(Query{Target: ObjectCollection}) })
	v("query: InvalidInput", func() (any, error) { return c.RunQuery(Query{Predicates: bad}) })
	s("query: streamed", func() error {
		return c.RunQueryStream(Query{Predicates: red}, func(string) error { return nil })
	})
	s("query: streamed, error before the first row", func() error {
		return c.RunQueryStream(Query{Predicates: bad}, func(string) error { return nil })
	})
	s("queryPage", func() error {
		return c.QueryEachCtx(context.Background(), Query{Predicates: red}, 1, func(string) error { return nil })
	})
	v("queryAttrs", func() (any, error) { return c.RunQueryAttrs(Query{Predicates: red}, []string{"size"}) })
	v("queryAttrs: nothing returned", func() (any, error) { return c.RunQueryAttrs(Query{Predicates: red}, nil) })
	v("collectionContents", func() (any, error) {
		files, subs, err := c.CollectionContents("s0-col")
		return []any{files, subs}, err
	})
	v("collectionContents: NotFound", func() (any, error) {
		files, subs, err := c.CollectionContents("s0-nope")
		return []any{files, subs}, err
	})
	s("collectionContentsPage", func() error {
		return c.CollectionContentsEachCtx(context.Background(), "s0-col", 1, nil, nil)
	})
	v("listCollections", func() (any, error) { return c.ListCollections("") })
	v("listCollections: pattern", func() (any, error) { return c.ListCollections("s0-%") })
	v("createView", func() (any, error) {
		return c.CreateView(ViewSpec{Name: "s0-v", Description: "subset",
			Attributes: []Attribute{{Name: "color", Value: String("blue")}}})
	})
	v("createView", func() (any, error) { return c.CreateView(ViewSpec{Name: "s0-w"}) })
	s("addToView", func() error { return c.AddToView("s0-v", ObjectFile, "s0-b.dat") })
	s("addToView", func() error { return c.AddToView("s0-w", ObjectView, "s0-v") })
	s("addToView: Cycle", func() error { return c.AddToView("s0-v", ObjectView, "s0-w") })
	v("viewContents", func() (any, error) { return c.ViewContents("s0-w") })
	v("expandView", func() (any, error) { return c.ExpandView("s0-w") })
	s("removeFromView", func() error { return c.RemoveFromView("s0-w", ObjectView, "s0-v") })
	v("annotate", func() (any, error) { return c.Annotate(ObjectFile, "s0-b.dat", "looks good") })
	v("getAnnotations", func() (any, error) { return c.Annotations(ObjectFile, "s0-b.dat") })
	s("addProvenance", func() error { return c.AddProvenance("s0-a.dat", 2, "recalibrated") })
	v("getProvenance", func() (any, error) { return c.Provenance("s0-a.dat", 1) })
	v("auditLog", func() (any, error) { return c.AuditLog(ObjectCollection, "s0-col") })
	s("deleteFile: Denied", func() error { return bob.DeleteFile("s0-b.dat", 0) })
	s("grant", func() error { return c.Grant(ObjectFile, "s0-b.dat", testBob, PermDelete) })
	s("revoke", func() error { return c.Revoke(ObjectFile, "s0-b.dat", testBob, PermDelete) })
	s("grant: service-wide", func() error { return c.Grant(ObjectService, "", testBob, PermRead) })
	s("revoke: service-wide", func() error { return c.Revoke(ObjectService, "", testBob, PermRead) })
	s("registerWriter", func() error {
		return c.RegisterWriter(Writer{DN: testAlice, Institution: "ISI", Email: "alice@isi.edu"})
	})
	v("getWriter", func() (any, error) { return c.GetWriter(testAlice) })
	v("registerExternalCatalog", func() (any, error) {
		return c.RegisterExternalCatalog(ExternalCatalog{Name: "rc", Type: "replica", Host: "rc.isi.edu"})
	})
	v("listExternalCatalogs", func() (any, error) { return c.ListExternalCatalogs() })
	v("batchWrite", func() (any, error) {
		return c.BatchWrite(NewBatch().
			CreateFile(FileSpec{Name: "s0-bw1.dat", Collection: "s0-col"}).
			CreateFile(FileSpec{Name: "s0-bw2.dat", Collection: "s0-col",
				Attributes: []Attribute{{Name: "size", Value: Int(1)}}}).
			UpdateFile("s0-bw1.dat", 0, FileUpdate{Valid: &valid}).
			SetAttribute(ObjectFile, "s0-bw1.dat", Attribute{Name: "color", Value: String("green")}).
			Annotate(ObjectFile, "s0-bw1.dat", "batched").
			DeleteFile("s0-bw2.dat", 0).
			Ops())
	})
	v("batchWrite: quiet", func() (any, error) {
		return c.BatchWriteQuiet(NewBatch().CreateFile(FileSpec{Name: "s1-bw3.dat", Collection: "s1-col"}).Ops())
	})
	v("batchWrite: empty", func() (any, error) { return c.BatchWrite(nil) })
	v("batchWrite: InvalidInput", func() (any, error) {
		return c.BatchWrite([]BatchOp{{}})
	})
	v("batchWrite: spans shards", func() (any, error) {
		return c.BatchWrite(NewBatch().
			CreateFile(FileSpec{Name: "s0-x.dat"}).CreateFile(FileSpec{Name: "s1-x.dat"}).Ops())
	})
	s("moveFile", func() error { return c.MoveFile("s0-b.dat", 0, "s0-dst") })
	s("moveFile: crosses shards", func() error { return c.MoveFile("s0-bw1.dat", 0, "s1-col") })
	s("unsetAttribute", func() error { return c.UnsetAttribute(ObjectFile, "s1-a.dat", "size") })
	s("deleteFile", func() error { return c.DeleteFile("s0-a.dat", 1) })
	s("deleteView", func() error { return c.DeleteView("s0-w") })
	s("deleteCollection: NotEmpty", func() error { return c.DeleteCollection("s0-col") })
	s("deleteCollection", func() error {
		if err := c.DeleteFile("s0-b.dat", 0); err != nil {
			return err
		}
		return c.DeleteCollection("s0-dst")
	})
	v("stats", func() (any, error) { return c.Stats() })
	v("discoverySummary", func() (any, error) { return c.FetchDiscoverySummary(0.001) })

	// Requests no typed call makes: the listings, NDJSON collection
	// contents, an unknown operation and a body no codec can open.
	s("GET /api/v1/ops", func() error { return d.raw("GET", "/api/v1/ops", nil, "") })
	s("GET /?wsdl", func() error { return d.raw("GET", "/?wsdl", nil, "") })
	ndjson := map[string]string{"Accept": "application/x-ndjson", "Content-Type": "application/json"}
	s("collectionContents: streamed", func() error {
		return d.raw("POST", "/api/v1/collectionContents", ndjson, `{"name":"s0-col"}`)
	})
	s("collectionContents: streamed, error before the first row", func() error {
		return d.raw("POST", "/api/v1/collectionContents", ndjson, `{"name":"s0-nope"}`)
	})
	s("unknown operation", func() error { return d.raw("POST", "/api/v1/nosuch", nil, `{}`) })
	s("malformed SOAP body", func() error { return d.raw("POST", "/", nil, `<nope`) })

	if router {
		// A dead shard: a single-shard call to it is Unavailable (retried
		// once), a scatter that needed it is a PartialResult.
		d.shards[1].down.Store(true)
		v("getFile: Unavailable", func() (any, error) { return c.GetFile("s1-a.dat", 0) })
		v("query: PartialResult", func() (any, error) { return c.RunQuery(Query{Predicates: red}) })
		v("stats: PartialResult", func() (any, error) { return c.Stats() })
		d.shards[1].down.Store(false)
	}
	d.metricsSeries(t)
	return d.log.buf.Bytes()
}
