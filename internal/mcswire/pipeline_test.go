package mcswire_test

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcs/internal/core"
	"mcs/internal/jsonwire"
	"mcs/internal/mcswire"
	"mcs/internal/obs"
	"mcs/internal/soap"
)

// The pipeline suite: every server- and client-side behaviour that is not
// bytes, asserted once and run against every codec. A case that passes on
// one wire and fails on the other is a pipeline bug by construction.

var codecs = []mcswire.Codec{soap.Codec{}, jsonwire.Codec{}}

// perCodec runs fn as one subtest per codec.
func perCodec(t *testing.T, fn func(t *testing.T, codec mcswire.Codec)) {
	for _, codec := range codecs {
		name := codec.Label()
		if name == "" {
			name = "soap"
		}
		t.Run(name, func(t *testing.T) { fn(t, codec) })
	}
}

type echoRequest struct {
	XMLName xml.Name `xml:"urn:test echo" json:"-"`
	Message string   `xml:"message" json:"message"`
	N       int      `xml:"n" json:"n"`
}

type echoResponse struct {
	XMLName xml.Name `xml:"urn:test echoResponse" json:"-"`
	Message string   `xml:"message" json:"message"`
	N       int      `xml:"n" json:"n"`
}

// echoTable serves one operation, "echo", through fn.
func echoTable(fn func(ctx *mcswire.Ctx, req *echoRequest) (*echoResponse, error)) *mcswire.Table {
	t := mcswire.NewTable()
	t.Register(mcswire.Handler{
		Name: "echo",
		New:  func() any { return new(echoRequest) },
		Call: func(ctx *mcswire.Ctx, req any) (any, error) { return fn(ctx, req.(*echoRequest)) },
	})
	return t
}

// echo doubles N, and fails on the messages "boom" (a plain error) and
// "missing" (a catalog sentinel).
func echo(_ *mcswire.Ctx, req *echoRequest) (*echoResponse, error) {
	switch req.Message {
	case "boom":
		return nil, errors.New("handler exploded")
	case "missing":
		return nil, fmt.Errorf("%w: no such thing", core.ErrNotFound)
	}
	return &echoResponse{Message: req.Message, N: req.N * 2}, nil
}

// serve mounts table behind both codecs, as the daemon and the router do.
func serve(t *testing.T, table *mcswire.Table, cfg mcswire.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(mcswire.NewServer(table, cfg, jsonwire.Codec{}, soap.Codec{}))
	t.Cleanup(ts.Close)
	return ts
}

// rawPost sends body to the echo operation's address on codec's wire,
// bypassing the client.
func rawPost(t *testing.T, codec mcswire.Codec, url, op string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", codec.ContentType())
	codec.Address(req, op)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

func call(c *mcswire.Client, req *echoRequest) (*echoResponse, error) {
	var resp echoResponse
	err := c.Call(context.Background(), "echo", nil, req, &resp)
	return &resp, err
}

func TestRoundTripAndDispatchMetrics(t *testing.T) {
	perCodec(t, func(t *testing.T, codec mcswire.Codec) {
		reg := obs.NewRegistry()
		ts := serve(t, echoTable(echo), mcswire.Config{Metrics: reg})
		c := mcswire.NewClient(ts.URL, codec, nil)

		for i := 0; i < 3; i++ {
			resp, err := call(c, &echoRequest{Message: `<>&"' ümläuts 日本語`, N: 21})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Message != `<>&"' ümläuts 日本語` || resp.N != 42 {
				t.Fatalf("response = %+v", resp)
			}
		}
		if _, err := call(c, &echoRequest{Message: "boom"}); err == nil {
			t.Fatal("boom succeeded")
		}
		m := reg.TransportOp(codec.Label(), "echo")
		if m.Requests() != 4 || m.Errors() != 1 || m.InFlight() != 0 || m.Latency().Count() != 4 {
			t.Fatalf("requests=%d errors=%d inflight=%d latency samples=%d",
				m.Requests(), m.Errors(), m.InFlight(), m.Latency().Count())
		}

		// Unknown operations and garbage count as malformed, not per-op.
		err := c.Call(context.Background(), "nosuch", nil, &struct {
			XMLName xml.Name `xml:"urn:test nosuch" json:"-"`
		}{}, nil)
		var we *mcswire.WireError
		if !errors.As(err, &we) || we.Code != "Client" || !strings.Contains(we.Message, `unknown operation "nosuch"`) {
			t.Fatalf("unknown op error = %v", err)
		}
		resp, raw := rawPost(t, codec, ts.URL, "echo", []byte("junk, neither XML nor JSON"))
		if resp.StatusCode < 400 {
			t.Fatalf("junk body answered %s", resp.Status)
		}
		if we := codec.ReadError(raw); we == nil || we.Code != "Client" {
			t.Fatalf("junk body error = %+v from %s", we, raw)
		}
		if reg.MalformedCount() != 2 || m.Requests() != 4 {
			t.Fatalf("malformed = %d, echo requests = %d", reg.MalformedCount(), m.Requests())
		}
	})
}

func TestErrorCodeMapping(t *testing.T) {
	perCodec(t, func(t *testing.T, codec mcswire.Codec) {
		ts := serve(t, echoTable(echo), mcswire.Config{})
		c := mcswire.NewClient(ts.URL, codec, nil)

		_, err := call(c, &echoRequest{Message: "missing"})
		var we *mcswire.WireError
		if !errors.As(err, &we) || we.Code != "Server.NotFound" || !strings.Contains(we.Message, "no such thing") {
			t.Fatalf("sentinel error = %v", err)
		}
		if !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("errors.Is(%v, ErrNotFound) = false", err)
		}
		_, err = call(c, &echoRequest{Message: "boom"})
		if !errors.As(err, &we) || we.Code != "Server" || !strings.Contains(we.Message, "handler exploded") {
			t.Fatalf("plain error = %v", err)
		}
		if errors.Is(err, mcswire.ErrTransport) {
			t.Fatalf("a decodable error reply matched ErrTransport: %v", err)
		}
	})
}

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	perCodec(t, func(t *testing.T, codec mcswire.Codec) {
		ids := make(chan string, 1) // the ID the handler saw, one call at a time
		ts := serve(t, echoTable(func(ctx *mcswire.Ctx, req *echoRequest) (*echoResponse, error) {
			ids <- ctx.RequestID
			return &echoResponse{}, nil
		}), mcswire.Config{})

		// The client mints a fresh ID per call...
		c := mcswire.NewClient(ts.URL, codec, nil)
		var seen [2]string
		for i := range seen {
			if _, err := call(c, &echoRequest{}); err != nil {
				t.Fatal(err)
			}
			seen[i] = <-ids
		}
		if seen[0] == "" || seen[0] == seen[1] {
			t.Fatalf("request IDs = %v", seen)
		}
		// ...a caller-supplied one wins, and the server echoes it...
		c.Header.Set(obs.RequestIDHeader, "my-trace-42")
		if _, err := call(c, &echoRequest{}); err != nil {
			t.Fatal(err)
		}
		if got := <-ids; got != "my-trace-42" {
			t.Fatalf("handler saw %q", got)
		}
		// ...and a retry layer's pinned headers repeat the same ID, adding
		// an idempotency key only for mutating actions.
		if pin := c.PinCall("getFile"); pin.Get(obs.RequestIDHeader) != "my-trace-42" || pin.Get(obs.IdempotencyKeyHeader) != "" {
			t.Fatalf("PinCall(getFile) = %v", pin)
		}
		if pin := c.PinCall("createFile"); pin.Get(obs.IdempotencyKeyHeader) == "" {
			t.Fatalf("PinCall(createFile) = %v", pin)
		}

		// A client that sends none gets a server-minted ID back.
		payload, _ := codec.Marshal(&echoRequest{})
		resp, _ := rawPost(t, codec, ts.URL, "echo", payload)
		if got, saw := resp.Header.Get(obs.RequestIDHeader), <-ids; got == "" || got != saw {
			t.Fatalf("echoed request ID = %q, handler saw %q", got, saw)
		}
	})
}

func TestSlowOpLogged(t *testing.T) {
	perCodec(t, func(t *testing.T, codec mcswire.Codec) {
		var buf bytes.Buffer
		slow := obs.NewSlowOpLog(time.Millisecond, log.New(&buf, "", 0))
		ts := serve(t, echoTable(func(*mcswire.Ctx, *echoRequest) (*echoResponse, error) {
			time.Sleep(5 * time.Millisecond)
			return &echoResponse{}, nil
		}), mcswire.Config{SlowOps: slow})

		if _, err := call(mcswire.NewClient(ts.URL, codec, nil), &echoRequest{}); err != nil {
			t.Fatal(err)
		}
		if slow.Count() != 1 {
			t.Fatalf("slow count = %d", slow.Count())
		}
		if text := buf.String(); !strings.Contains(text, "op=echo") || !strings.Contains(text, "req=") {
			t.Fatalf("slow log = %q", text)
		}
	})
}

func TestAuthenticatorRejectsAndIdentifies(t *testing.T) {
	perCodec(t, func(t *testing.T, codec mcswire.Codec) {
		reg := obs.NewRegistry()
		dns := make(chan string, 1)
		ts := serve(t, echoTable(func(ctx *mcswire.Ctx, req *echoRequest) (*echoResponse, error) {
			dns <- ctx.DN
			return &echoResponse{}, nil
		}), mcswire.Config{
			Metrics: reg,
			Authenticate: func(r *http.Request, body []byte) (string, error) {
				if r.Header.Get("X-Token") != "letmein" || len(body) == 0 {
					return "", errors.New("bad credentials")
				}
				return "CN=alice", nil
			},
		})

		c := mcswire.NewClient(ts.URL, codec, nil)
		_, err := call(c, &echoRequest{})
		var we *mcswire.WireError
		if !errors.As(err, &we) || we.Code != "Client.Authentication" || we.Message != "bad credentials" {
			t.Fatalf("unauthenticated call error = %v", err)
		}
		if reg.MalformedCount() != 1 || reg.TransportOp(codec.Label(), "echo").Requests() != 0 {
			t.Fatal("a rejected call reached dispatch")
		}

		c.Sign = func(req *http.Request, body []byte) error {
			req.Header.Set("X-Token", "letmein")
			return nil
		}
		if _, err := call(c, &echoRequest{}); err != nil {
			t.Fatal(err)
		}
		if got := <-dns; got != "CN=alice" {
			t.Fatalf("handler DN = %q", got)
		}
	})
}

// An oversize body is refused, not silently truncated into a baffling
// decode error.
func TestOversizeBodyRefused(t *testing.T) {
	perCodec(t, func(t *testing.T, codec mcswire.Codec) {
		reg := obs.NewRegistry()
		ts := serve(t, echoTable(echo), mcswire.Config{Metrics: reg})

		resp, raw := rawPost(t, codec, ts.URL, "echo", bytes.Repeat([]byte(" "), mcswire.MaxRequestBody+1))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %s, want 413", resp.Status)
		}
		we := codec.ReadError(raw)
		if we == nil || we.Code != "Client" || we.Message != "request body exceeds 16 MiB" {
			t.Fatalf("error = %+v from %s", we, raw)
		}
		if reg.MalformedCount() != 1 {
			t.Fatalf("malformed = %d, want 1", reg.MalformedCount())
		}

		// A body of exactly the limit is read in full (and then fails to
		// decode, being all spaces — but as a decode error, not a 413).
		resp, _ = rawPost(t, codec, ts.URL, "echo", bytes.Repeat([]byte(" "), mcswire.MaxRequestBody))
		if resp.StatusCode == http.StatusRequestEntityTooLarge {
			t.Fatal("a body of exactly the limit was refused")
		}
	})
}

func TestMethodNotAllowed(t *testing.T) {
	perCodec(t, func(t *testing.T, codec mcswire.Codec) {
		ts := serve(t, echoTable(echo), mcswire.Config{})
		req, _ := http.NewRequest(http.MethodPut, ts.URL, nil)
		codec.Address(req, "echo")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	table := echoTable(echo)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	table.Register(*table.Lookup("echo"))
}

// A connection cut mid-body must still surface the HTTP status line and the
// received body prefix — the bytes that did arrive are the only diagnostic
// evidence of what the server was saying when the connection died.
func TestMidBodyDropReportsStatusAndPrefix(t *testing.T) {
	perCodec(t, func(t *testing.T, codec mcswire.Codec) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Promise a full body, deliver a fragment, then sever the
			// connection without completing the response.
			w.Header().Set("Content-Type", codec.ContentType())
			w.Header().Set("Content-Length", "1000")
			io.WriteString(w, "<partial-reply") //nolint:errcheck
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}))
		defer ts.Close()

		_, err := call(mcswire.NewClient(ts.URL, codec, nil), &echoRequest{Message: "hi"})
		var te *mcswire.TransportError
		if !errors.As(err, &te) || !errors.Is(err, mcswire.ErrTransport) {
			t.Fatalf("error = %T %v, want *TransportError matching ErrTransport", err, err)
		}
		if !strings.Contains(te.Status, "200") || !strings.Contains(te.Body, "partial-reply") || te.Err == nil {
			t.Errorf("TransportError = %+v, want the 200 status line, the received prefix and a cause", te)
		}
		if msg := err.Error(); !strings.Contains(msg, "truncated") || !strings.Contains(msg, "200") {
			t.Errorf("Error() = %q, want status and truncation mentioned", msg)
		}
	})
}

// A clean refusal with no response at all keeps the bare-cause rendering;
// an intermediary's error page quotes its status and body.
func TestUndecodableRepliesAreTransportErrors(t *testing.T) {
	perCodec(t, func(t *testing.T, codec mcswire.Codec) {
		dead := httptest.NewServer(http.NotFoundHandler())
		dead.Close() // nothing listens here anymore
		_, err := call(mcswire.NewClient(dead.URL, codec, nil), &echoRequest{})
		var te *mcswire.TransportError
		if !errors.As(err, &te) || te.Status != "" || te.Err == nil {
			t.Fatalf("refused connection: %T %v, want a TransportError with a cause and no status", err, err)
		}

		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadGateway)
			io.WriteString(w, "<html>upstream dead</html>") //nolint:errcheck
		}))
		defer proxy.Close()
		_, err = call(mcswire.NewClient(proxy.URL, codec, nil), &echoRequest{})
		if !errors.As(err, &te) || !strings.Contains(te.Status, "502") || te.Body != "<html>upstream dead</html>" || te.Err != nil {
			t.Fatalf("error page: %T %v", err, err)
		}
	})
}

func TestCallContextCancellation(t *testing.T) {
	perCodec(t, func(t *testing.T, codec mcswire.Codec) {
		block := make(chan struct{})
		hungUp := make(chan error, 1)
		ts := serve(t, echoTable(func(ctx *mcswire.Ctx, req *echoRequest) (*echoResponse, error) {
			if req.Message == "block" {
				// The pipeline hands the handler the inbound request's
				// context: it ends when the client gives up.
				select {
				case <-ctx.Context.Done():
					hungUp <- ctx.Context.Err()
				case <-block:
				}
			}
			return &echoResponse{}, nil
		}), mcswire.Config{})
		defer close(block)
		c := mcswire.NewClient(ts.URL, codec, nil)

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		err := c.Call(ctx, "echo", nil, &echoRequest{Message: "block"}, &echoResponse{})
		if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, mcswire.ErrTransport) {
			t.Fatalf("err = %v, want DeadlineExceeded and ErrTransport in chain", err)
		}
		select {
		case err := <-hungUp:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("handler context ended with %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the handler's context did not end when its client hung up")
		}

		ctx, cancel = context.WithCancel(context.Background())
		cancel()
		if err := c.Call(ctx, "echo", nil, &echoRequest{}, &echoResponse{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled in chain", err)
		}
	})
}

// One client (one "host") is safe for concurrent threads, every call is
// dispatched exactly once with its own payload, and answers never cross.
func TestConcurrentCalls(t *testing.T) {
	perCodec(t, func(t *testing.T, codec mcswire.Codec) {
		reg := obs.NewRegistry()
		ts := serve(t, echoTable(echo), mcswire.Config{Metrics: reg})
		c := mcswire.NewClient(ts.URL, codec, nil)

		const workers, per = 8, 25
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					n := g*1000 + i
					resp, err := call(c, &echoRequest{Message: fmt.Sprint(n), N: n})
					if err != nil {
						t.Error(err)
						return
					}
					if resp.N != 2*n || resp.Message != fmt.Sprint(n) {
						t.Errorf("call %d answered %+v: answers crossed between goroutines", n, resp)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		m := reg.TransportOp(codec.Label(), "echo")
		if m.Requests() != workers*per || m.Errors() != 0 || m.InFlight() != 0 {
			t.Fatalf("requests=%d errors=%d inflight=%d", m.Requests(), m.Errors(), m.InFlight())
		}
	})
}
