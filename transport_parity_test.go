package mcs

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcs/internal/mcswire"
	"mcs/internal/shard"
)

// fixedClock pins catalog timestamps so two servers running the same script
// produce byte-identical state — IDs are deterministic sequences already.
func fixedClock() time.Time { return time.Date(2004, 6, 1, 12, 0, 0, 0, time.UTC) }

// parityStep is one scripted call in the cross-transport parity suite: the
// operation it exercises on the wire and the typed client call that drives
// it. Result values and error sentinels must come out identical over SOAP
// and JSON.
type parityStep struct {
	op  string
	run func(c *Client) (any, error)
}

// parityScript exercises every registered operation at least once, in
// dependency order, including representative error legs. The op field feeds
// the coverage check against the server's dispatch table.
func parityScript() []parityStep {
	dt := "hdf5"
	return []parityStep{
		{"ping", func(c *Client) (any, error) { return c.Ping() }},
		{"defineAttribute", func(c *Client) (any, error) { return c.DefineAttribute("color", AttrString, "hue") }},
		{"defineAttribute", func(c *Client) (any, error) { return c.DefineAttribute("size", AttrInt, "bytes") }},
		{"listAttributeDefs", func(c *Client) (any, error) { return c.ListAttributeDefs() }},
		{"createCollection", func(c *Client) (any, error) {
			return c.CreateCollection(CollectionSpec{Name: "col", Description: "run data", Audited: true})
		}},
		{"createCollection", func(c *Client) (any, error) { return c.CreateCollection(CollectionSpec{Name: "dst"}) }},
		{"getCollection", func(c *Client) (any, error) { return c.GetCollection("col") }},
		{"createFile", func(c *Client) (any, error) {
			return c.CreateFile(FileSpec{
				Name: "a.dat", Collection: "col", DataType: "binary", Audited: true,
				Provenance: "generated", Attributes: []Attribute{{Name: "color", Value: String("red")}},
			})
		}},
		{"createFile", func(c *Client) (any, error) { return c.CreateFile(FileSpec{Name: "b.dat", Collection: "col"}) }},
		// Error leg: duplicate create must map to the same sentinel.
		{"createFile", func(c *Client) (any, error) { return c.CreateFile(FileSpec{Name: "a.dat"}) }},
		{"getFile", func(c *Client) (any, error) { return c.GetFile("a.dat", 0) }},
		// Error leg: missing object.
		{"getFile", func(c *Client) (any, error) { return c.GetFile("nope.dat", 0) }},
		{"updateFile", func(c *Client) (any, error) { return c.UpdateFile("a.dat", 0, FileUpdate{DataType: &dt}) }},
		{"fileVersions", func(c *Client) (any, error) { return c.FileVersions("a.dat") }},
		{"setAttribute", func(c *Client) (any, error) {
			return nil, c.SetAttribute(ObjectFile, "a.dat", "size", Int(42))
		}},
		{"getAttributes", func(c *Client) (any, error) { return c.GetAttributes(ObjectFile, "a.dat") }},
		{"query", func(c *Client) (any, error) {
			return c.RunQuery(Query{Predicates: []Predicate{{Attribute: "color", Op: OpEq, Value: String("red")}}})
		}},
		{"queryPage", func(c *Client) (any, error) {
			names, next, err := c.RunQueryPage(Query{Predicates: []Predicate{
				{Attribute: "color", Op: OpEq, Value: String("red")}}}, 1, "")
			return []any{names, next}, err
		}},
		{"queryAttrs", func(c *Client) (any, error) {
			return c.RunQueryAttrs(Query{Predicates: []Predicate{
				{Attribute: "color", Op: OpEq, Value: String("red")}}}, []string{"size"})
		}},
		{"collectionContents", func(c *Client) (any, error) {
			files, subs, err := c.CollectionContents("col")
			return []any{files, subs}, err
		}},
		{"collectionContentsPage", func(c *Client) (any, error) {
			files, subs, next, err := c.CollectionContentsPage("col", 1, "")
			return []any{files, subs, next}, err
		}},
		{"listCollections", func(c *Client) (any, error) { return c.ListCollections("") }},
		{"createView", func(c *Client) (any, error) {
			return c.CreateView(ViewSpec{Name: "v", Description: "subset"})
		}},
		{"addToView", func(c *Client) (any, error) { return nil, c.AddToView("v", ObjectFile, "a.dat") }},
		{"viewContents", func(c *Client) (any, error) { return c.ViewContents("v") }},
		{"expandView", func(c *Client) (any, error) { return c.ExpandView("v") }},
		{"removeFromView", func(c *Client) (any, error) { return nil, c.RemoveFromView("v", ObjectFile, "a.dat") }},
		{"annotate", func(c *Client) (any, error) { return c.Annotate(ObjectFile, "a.dat", "looks good") }},
		{"getAnnotations", func(c *Client) (any, error) { return c.Annotations(ObjectFile, "a.dat") }},
		{"addProvenance", func(c *Client) (any, error) { return nil, c.AddProvenance("a.dat", 0, "recalibrated") }},
		{"getProvenance", func(c *Client) (any, error) { return c.Provenance("a.dat", 0) }},
		{"auditLog", func(c *Client) (any, error) { return c.AuditLog(ObjectFile, "a.dat") }},
		{"grant", func(c *Client) (any, error) { return nil, c.Grant(ObjectFile, "a.dat", testBob, PermRead) }},
		{"revoke", func(c *Client) (any, error) { return nil, c.Revoke(ObjectFile, "a.dat", testBob, PermRead) }},
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
				{CreateFile: &FileSpec{Name: "bw1.dat", Collection: "col"}},
				{CreateFile: &FileSpec{Name: "bw2.dat", Collection: "col"}},
			})
		}},
		{"moveFile", func(c *Client) (any, error) { return nil, c.MoveFile("b.dat", 0, "dst") }},
		{"unsetAttribute", func(c *Client) (any, error) { return nil, c.UnsetAttribute(ObjectFile, "a.dat", "size") }},
		{"deleteFile", func(c *Client) (any, error) { return nil, c.DeleteFile("bw2.dat", 0) }},
		{"deleteView", func(c *Client) (any, error) { return nil, c.DeleteView("v") }},
		// Error leg: non-empty collection refuses deletion.
		{"deleteCollection", func(c *Client) (any, error) { return nil, c.DeleteCollection("col") }},
		{"deleteCollection", func(c *Client) (any, error) {
			if err := c.DeleteFile("b.dat", 0); err != nil {
				return nil, err
			}
			return nil, c.DeleteCollection("dst")
		}},
		{"stats", func(c *Client) (any, error) { return c.Stats() }},
		{"discoverySummary", func(c *Client) (any, error) { return c.FetchDiscoverySummary(0.001) }},
	}
}

// sentinelName classifies an error by which package sentinel it matches, so
// the parity comparison checks error identity — the cross-wire contract —
// rather than message rendering, which legitimately differs per encoding.
func sentinelName(err error) string {
	if err == nil {
		return ""
	}
	for _, fs := range faultSentinels {
		if errors.Is(err, fs.Err) {
			return fs.Code
		}
	}
	if errors.Is(err, ErrTransport) {
		return "Transport"
	}
	return "unclassified: " + err.Error()
}

// runParityScript executes the script against a fresh deterministic server
// over the given transport, returning one (value, sentinel) pair per step.
func runParityScript(t *testing.T, kind TransportKind) (results []any, sentinels []string) {
	t.Helper()
	_, url := startServer(t, ServerOptions{CatalogOptions: Options{Clock: fixedClock}})
	c := NewClient(url, testAlice, WithTransport(kind))
	for i, step := range parityScript() {
		v, err := step.run(c)
		if err != nil {
			v = nil // a failed call's partial value is not part of the contract
		}
		results = append(results, v)
		sentinels = append(sentinels, sentinelName(err))
		if s := sentinels[i]; strings.HasPrefix(s, "unclassified") {
			t.Fatalf("step %d (%s) over %s: %s", i, step.op, kind, s)
		}
	}
	return results, sentinels
}

// TestTransportParityAllOps proves the tentpole claim: every registered
// operation, executed through the same dispatch table over both wires,
// yields identical results and identical error sentinels. Catalog clocks
// are pinned, so even timestamps must match field for field.
func TestTransportParityAllOps(t *testing.T) {
	script := parityScript()

	// Coverage: the script must exercise every operation both wires serve.
	srv, _ := startServer(t, ServerOptions{})
	covered := map[string]bool{}
	for _, step := range script {
		covered[step.op] = true
	}
	for _, op := range srv.Table().Ops() {
		if !covered[op] {
			t.Errorf("parity script does not cover registered op %q", op)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	soapResults, soapSentinels := runParityScript(t, TransportSOAP)
	jsonResults, jsonSentinels := runParityScript(t, TransportJSON)

	for i := range script {
		if soapSentinels[i] != jsonSentinels[i] {
			t.Errorf("step %d (%s): sentinel over soap = %q, over json = %q",
				i, script[i].op, soapSentinels[i], jsonSentinels[i])
		}
		if !reflect.DeepEqual(soapResults[i], jsonResults[i]) {
			t.Errorf("step %d (%s): result mismatch\n soap: %#v\n json: %#v",
				i, script[i].op, soapResults[i], jsonResults[i])
		}
	}
}

// opInfo is what TestOpDescriptorsConsistent reads off one descriptor.
type opInfo struct {
	mutating   bool
	req        reflect.Type // *Req
	reqElem    string       // the request's XML element
	respElem   string       // the response's XML element
	declaredAs string       // the descriptor's Name
}

func describeOp[Req, Resp any](op mcswire.Op[Req, Resp]) opInfo {
	return opInfo{
		mutating: op.Mutating, req: reflect.TypeOf(new(Req)),
		reqElem: xmlElement(new(Req)), respElem: xmlElement(new(Resp)), declaredAs: op.Name,
	}
}

// xmlElement returns the local name of the element v marshals to.
func xmlElement(v any) string {
	raw, err := xml.Marshal(v)
	if err != nil {
		return "marshal: " + err.Error()
	}
	tok, err := xml.NewDecoder(bytes.NewReader(raw)).Token()
	if se, ok := tok.(xml.StartElement); ok && err == nil {
		return se.Name.Local
	}
	return fmt.Sprintf("no element in %q", raw)
}

// TestOpDescriptorsConsistent holds every handler in the server's and the
// router's dispatch tables to the descriptor of its operation: the request
// type is the descriptor's, its XML element is the operation's name and the
// response's is name+"Response", and the handler's Mutating bit is the
// descriptor's, so the server, the router and the client's retry layer
// agree by construction on which calls carry idempotency keys. Every
// descriptor must be served.
func TestOpDescriptorsConsistent(t *testing.T) {
	ops := map[string]opInfo{}
	for _, d := range []opInfo{
		describeOp(mcswire.Ping),
		describeOp(mcswire.CreateFile), describeOp(mcswire.GetFile), describeOp(mcswire.FileVersions),
		describeOp(mcswire.UpdateFile), describeOp(mcswire.DeleteFile), describeOp(mcswire.MoveFile),
		describeOp(mcswire.BatchWrite),
		describeOp(mcswire.CreateCollection), describeOp(mcswire.GetCollection),
		describeOp(mcswire.CollectionContents), describeOp(mcswire.CollectionContentsPage),
		describeOp(mcswire.DeleteCollection), describeOp(mcswire.ListCollections),
		describeOp(mcswire.CreateView), describeOp(mcswire.AddToView), describeOp(mcswire.RemoveFromView),
		describeOp(mcswire.ViewContents), describeOp(mcswire.ExpandView), describeOp(mcswire.DeleteView),
		describeOp(mcswire.DefineAttribute), describeOp(mcswire.ListAttributeDefs),
		describeOp(mcswire.SetAttribute), describeOp(mcswire.UnsetAttribute), describeOp(mcswire.GetAttributes),
		describeOp(mcswire.Query), describeOp(mcswire.QueryPage), describeOp(mcswire.QueryAttrs),
		describeOp(mcswire.Annotate), describeOp(mcswire.GetAnnotations), describeOp(mcswire.AddProvenance),
		describeOp(mcswire.GetProvenance), describeOp(mcswire.AuditLog),
		describeOp(mcswire.Grant), describeOp(mcswire.Revoke),
		describeOp(mcswire.RegisterWriter), describeOp(mcswire.GetWriter),
		describeOp(mcswire.RegisterExternalCatalog), describeOp(mcswire.ListExternalCatalogs),
		describeOp(mcswire.Stats), describeOp(mcswire.DiscoverySummary),
	} {
		if _, dup := ops[d.declaredAs]; dup {
			t.Errorf("two descriptors named %q", d.declaredAs)
		}
		ops[d.declaredAs] = d
	}

	srv, _ := startServer(t, ServerOptions{})
	sharded := startSharded(t, shard.Options{})
	served := map[string]bool{}
	for _, tbl := range []struct {
		who   string
		table *mcswire.Table
	}{{"server", srv.Table()}, {"router", sharded.router.Table()}} {
		for _, name := range tbl.table.Ops() {
			h := tbl.table.Lookup(name)
			d, ok := ops[name]
			switch {
			case !ok:
				t.Errorf("%s serves %q, which no descriptor declares", tbl.who, name)
				continue
			case reflect.TypeOf(h.New()) != d.req:
				t.Errorf("%s %q decodes into %T, descriptor declares %v", tbl.who, name, h.New(), d.req)
			case d.reqElem != name:
				t.Errorf("%s %q: request element is %q", tbl.who, name, d.reqElem)
			case d.respElem != name+"Response":
				t.Errorf("%s %q: response element is %q", tbl.who, name, d.respElem)
			case h.Mutating != d.mutating:
				t.Errorf("%s %q: handler Mutating = %v, descriptor = %v", tbl.who, name, h.Mutating, d.mutating)
			}
			served[name] = true
		}
	}
	for name := range ops {
		if !served[name] {
			t.Errorf("descriptor %q is served by neither table", name)
		}
	}
}

// TestTransportOpsEndpoint checks the JSON wire's discovery endpoint lists
// exactly the registered operations.
func TestTransportOpsEndpoint(t *testing.T) {
	srv, url := startServer(t, ServerOptions{})
	resp, err := http.Get(url + "/api/v1/ops")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/ops = %d: %s", resp.StatusCode, body)
	}
	for _, op := range srv.Table().Ops() {
		if !strings.Contains(string(body), fmt.Sprintf("%q", op)) {
			t.Errorf("ops listing missing %q: %s", op, body)
		}
	}
}

// TestTransportMetricsLabels checks dispatch instrumentation separates the
// wires: SOAP calls keep the historical unlabeled series, JSON calls get a
// transport="json" label — so existing dashboards keep working and the new
// wire is observable on its own.
func TestTransportMetricsLabels(t *testing.T) {
	srv, url := startServer(t, ServerOptions{})
	if _, err := NewClient(url, testAlice).Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(url, testAlice, WithTransport(TransportJSON)).Ping(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`mcs_requests_total{op="ping"} 1`,
		`mcs_requests_total{op="ping",transport="json"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if srv.Metrics().Op("ping").Requests() != 1 {
		t.Errorf("soap ping requests = %d, want 1", srv.Metrics().Op("ping").Requests())
	}
	if srv.Metrics().TransportOp("json", "ping").Requests() != 1 {
		t.Errorf("json ping requests = %d, want 1", srv.Metrics().TransportOp("json", "ping").Requests())
	}
}

// TestTransportErrorParity checks the two wires report undecodable replies
// identically: same sentinel, same HTTP status, same body prefix — so
// operators debugging a misbehaving proxy see the same evidence regardless
// of encoding.
func TestTransportErrorParity(t *testing.T) {
	// A "server" that answers every request with an HTML error page.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		io.WriteString(w, "<html>upstream dead</html>") //nolint:errcheck
	}))
	t.Cleanup(ts.Close)

	type evidence struct{ status, body string }
	var got []evidence
	for _, kind := range []TransportKind{TransportSOAP, TransportJSON} {
		c := NewClient(ts.URL, testAlice, WithTransport(kind))
		_, err := c.Ping()
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("%s against non-wire server: %v, want ErrTransport", kind, err)
		}
		var te *mcswire.TransportError
		if !errors.As(err, &te) {
			t.Fatalf("%s error %v carries no TransportError", kind, err)
		}
		got = append(got, evidence{te.Status, te.Body})
	}
	if got[0].status != got[1].status || got[0].body != got[1].body {
		t.Fatalf("transport error evidence differs:\n soap: %+v\n json: %+v", got[0], got[1])
	}
	if got[0].status == "" || got[0].body == "" {
		t.Fatalf("transport error evidence empty: %+v", got[0])
	}
}

// TestNaNFloatRefusedOnBothWires: a NaN float attribute is refused as
// invalid input wherever a wire hands a value to the catalog — a stored
// attribute, an attribute of a created file, a query predicate — and the
// refusal maps to ErrInvalidInput over SOAP and JSON alike, while the
// ordered infinities are stored and found.
func TestNaNFloatRefusedOnBothWires(t *testing.T) {
	for _, kind := range []TransportKind{TransportSOAP, TransportJSON} {
		t.Run(string(kind), func(t *testing.T) {
			_, url := startServer(t, ServerOptions{})
			c := NewClient(url, testAlice, WithTransport(kind))
			if _, err := c.DefineAttribute("ratio", AttrFloat, ""); err != nil {
				t.Fatal(err)
			}
			if _, err := c.CreateFile(FileSpec{Name: "f"}); err != nil {
				t.Fatal(err)
			}
			nan := Float(math.NaN())
			if err := c.SetAttribute(ObjectFile, "f", "ratio", nan); !errors.Is(err, ErrInvalidInput) {
				t.Errorf("SetAttribute(NaN) = %v, want ErrInvalidInput", err)
			}
			_, err := c.CreateFile(FileSpec{Name: "g", Attributes: []Attribute{{Name: "ratio", Value: nan}}})
			if !errors.Is(err, ErrInvalidInput) {
				t.Errorf("CreateFile with a NaN attribute = %v, want ErrInvalidInput", err)
			}
			_, err = c.RunQuery(Query{Predicates: []Predicate{{Attribute: "ratio", Op: OpEq, Value: nan}}})
			if !errors.Is(err, ErrInvalidInput) {
				t.Errorf("query on ratio = NaN: %v, want ErrInvalidInput", err)
			}
			if err := c.SetAttribute(ObjectFile, "f", "ratio", Float(math.Inf(1))); err != nil {
				t.Fatalf("SetAttribute(+Inf): %v", err)
			}
			names, err := c.RunQuery(Query{Predicates: []Predicate{{Attribute: "ratio", Op: OpGt, Value: Float(1e308)}}})
			if err != nil || len(names) != 1 || names[0] != "f" {
				t.Fatalf("query on ratio > 1e308 = %v, %v, want [f]", names, err)
			}
		})
	}
}
