package mcs

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcs/internal/jsonwire"
	"mcs/internal/mcswire"
)

// loadStreamFixture creates n files tagged kind=stream via batched writes
// and returns the query matching them.
func loadStreamFixture(t *testing.T, c *Client, n int) Query {
	t.Helper()
	if _, err := c.DefineAttribute("kind", AttrString, "fixture tag"); err != nil {
		t.Fatal(err)
	}
	const batch = 400
	for start := 0; start < n; start += batch {
		var ops []BatchOp
		for i := start; i < start+batch && i < n; i++ {
			ops = append(ops, BatchOp{CreateFile: &FileSpec{
				Name:       fmt.Sprintf("s%05d.dat", i),
				Attributes: []Attribute{{Name: "kind", Value: String("stream")}},
			}})
		}
		if _, err := c.BatchWrite(ops); err != nil {
			t.Fatal(err)
		}
	}
	return Query{Predicates: []Predicate{{Attribute: "kind", Op: OpEq, Value: String("stream")}}}
}

// TestStreamQueryNDJSON drives a query whose result set is larger than the
// server's internal streaming page (512) over the JSON wire and checks
// every row arrives exactly once — and that the SOAP client's paged
// fallback yields the identical row sequence.
func TestStreamQueryNDJSON(t *testing.T) {
	const n = 1200
	_, url := startServer(t, ServerOptions{})
	admin := NewClient(url, testAlice)
	q := loadStreamFixture(t, admin, n)

	collect := func(c *Client) []string {
		t.Helper()
		var names []string
		if err := c.RunQueryStream(q, func(name string) error {
			names = append(names, name)
			return nil
		}); err != nil {
			t.Fatalf("stream over %s: %v", c.TransportName(), err)
		}
		return names
	}
	jsonNames := collect(NewClient(url, testAlice, WithTransport(TransportJSON)))
	soapNames := collect(NewClient(url, testAlice)) // paged fallback

	if len(jsonNames) != n {
		t.Fatalf("json stream rows = %d, want %d", len(jsonNames), n)
	}
	if len(soapNames) != len(jsonNames) {
		t.Fatalf("row count differs: soap fallback %d, json stream %d", len(soapNames), len(jsonNames))
	}
	for i := range jsonNames {
		if jsonNames[i] != soapNames[i] {
			t.Fatalf("row %d differs: soap %q, json %q", i, soapNames[i], jsonNames[i])
		}
	}

	// Limit applies on the streamed path too.
	ql := q
	ql.Limit = 7
	var limited []string
	c := NewClient(url, testAlice, WithTransport(TransportJSON))
	if err := c.RunQueryStream(ql, func(name string) error {
		limited = append(limited, name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(limited) != 7 {
		t.Fatalf("limited stream rows = %d, want 7", len(limited))
	}

	// A row-callback error aborts the stream and surfaces to the caller.
	abort := errors.New("enough")
	seen := 0
	err := c.RunQueryStream(q, func(string) error {
		seen++
		if seen == 3 {
			return abort
		}
		return nil
	})
	if !errors.Is(err, abort) || seen != 3 {
		t.Fatalf("aborted stream: err=%v seen=%d, want abort after 3 rows", err, seen)
	}
}

// TestStreamChunkedWire checks the raw HTTP contract of a streamed reply:
// chunked transfer (no Content-Length — the server never knows the full
// size, because it never holds the full result), the NDJSON content type,
// and the {"end":true} terminator line.
func TestStreamChunkedWire(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	admin := NewClient(url, testAlice)
	loadStreamFixture(t, admin, 600)

	body := `{"caller":"` + testAlice + `","predicates":[{"attribute":"kind","op":"=","type":"string","value":"stream"}]}`
	req, err := http.NewRequest(http.MethodPost, url+"/api/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.ContentLength >= 0 {
		t.Fatalf("streamed reply has Content-Length %d; want chunked", resp.ContentLength)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 601 { // 600 rows + terminator
		t.Fatalf("lines = %d, want 601", len(lines))
	}
	if lines[len(lines)-1] != `{"end":true}` {
		t.Fatalf("last line = %q, want terminator", lines[len(lines)-1])
	}
}

// TestStreamTruncationDetected checks the client treats a stream that ends
// without the terminator — a connection severed mid-flight — as a transport
// failure, not a short-but-successful result.
func TestStreamTruncationDetected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"name":"one.dat"}`+"\n"+`{"name":"two.dat"}`+"\n") //nolint:errcheck
		// No {"end":true}: the response just stops.
	}))
	t.Cleanup(ts.Close)

	c := NewClient(ts.URL, testAlice, WithTransport(TransportJSON))
	var rows int
	err := c.RunQueryStream(Query{}, func(string) error { rows++; return nil })
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("truncated stream: err = %v, want ErrTransport", err)
	}
	if rows != 2 {
		t.Fatalf("rows before truncation = %d, want 2", rows)
	}
}

// TestStreamCollectionContents exercises the second streamed operation via
// the raw wire client: members of a large collection arrive one row at a
// time, files and sub-collections both represented.
func TestStreamCollectionContents(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	admin := NewClient(url, testAlice)
	if _, err := admin.CreateCollection(CollectionSpec{Name: "big"}); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.CreateCollection(CollectionSpec{Name: "sub", Parent: "big"}); err != nil {
		t.Fatal(err)
	}
	const nf = 700
	for start := 0; start < nf; start += 350 {
		var ops []BatchOp
		for i := start; i < start+350; i++ {
			ops = append(ops, BatchOp{CreateFile: &FileSpec{
				Name: fmt.Sprintf("m%05d.dat", i), Collection: "big",
			}})
		}
		if _, err := admin.BatchWrite(ops); err != nil {
			t.Fatal(err)
		}
	}

	jc := mcswire.NewClient(url, jsonwire.Codec{}, nil)
	var files, subs int
	err := jc.Stream(t.Context(), "collectionContents", nil,
		map[string]string{"caller": testAlice, "name": "big"},
		func() any { return new(mcswire.ContentsRow) },
		func(r any) error {
			row := r.(*mcswire.ContentsRow)
			switch {
			case row.File != nil:
				files++
			case row.Collection != nil:
				subs++
			default:
				return fmt.Errorf("row with neither file nor collection")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if files != nf || subs != 1 {
		t.Fatalf("streamed contents = %d files, %d subs; want %d, 1", files, subs, nf)
	}
}
