package mcs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// httpPost sends a raw SOAP envelope and returns the response body.
func httpPost(url, body string) (string, error) {
	resp, err := http.Post(url, "text/xml", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}

// Client-side failure handling: dead endpoints, timeouts and bad payloads
// must surface as errors, never hangs or corrupt results.

func TestClientDeadEndpoint(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", "/CN=x", WithTimeout(2*time.Second)) // port 1: connection refused
	if _, err := c.Ping(); err == nil {
		t.Fatal("call to dead endpoint succeeded")
	}
	if _, err := c.GetFile("f", 0); err == nil {
		t.Fatal("GetFile against dead endpoint succeeded")
	}
}

func TestClientNonSOAPResponder(t *testing.T) {
	ts := httptest.NewServer(nil) // 404s for everything
	defer ts.Close()
	c := NewClient(ts.URL+"/nosuch", "/CN=x")
	if _, err := c.Ping(); err == nil {
		t.Fatal("non-SOAP responder accepted")
	}
}

func TestClientNon2xxQuotesStatusAndBody(t *testing.T) {
	// An intermediary's error page (a proxy 502, a load balancer's HTML)
	// must not reach the XML decoder as if it were a SOAP reply: the error
	// quotes the HTTP status and a prefix of the body so the operator can
	// see what actually answered.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusBadGateway)
		io.WriteString(w, "<html><body>upstream connect error</body></html>")
	}))
	defer ts.Close()
	c := NewClient(ts.URL, "/CN=x")
	_, err := c.Ping()
	if err == nil {
		t.Fatal("502 HTML response accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "502") {
		t.Fatalf("error does not quote the HTTP status: %v", err)
	}
	if !strings.Contains(msg, "upstream connect error") {
		t.Fatalf("error does not quote the body: %v", err)
	}
}

func TestClientFaultOn500StillFault(t *testing.T) {
	// Real SOAP faults arrive with HTTP 500 (SOAP 1.1 binding) and must
	// keep surfacing as faults, not as opaque status errors.
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)
	_, err := c.GetFile("no-such-file", 0)
	if err == nil {
		t.Fatal("missing file lookup succeeded")
	}
	if strings.Contains(err.Error(), "server returned") {
		t.Fatalf("fault degraded to a status error: %v", err)
	}
	if !strings.Contains(err.Error(), "not found") {
		t.Fatalf("fault message lost: %v", err)
	}
}

func TestServerRejectsBadAttributeOnWire(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)
	if _, err := c.DefineAttribute("n", AttrInt, ""); err != nil {
		t.Fatal(err)
	}
	// A raw envelope with an unparsable attribute value: the server must
	// fault and create nothing.
	env := `<?xml version="1.0"?>
<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">
 <soapenv:Body>
  <createFile xmlns="urn:mcs">
   <caller>` + testAlice + `</caller>
   <name>bad</name>
   <attributes><attribute><name>n</name><type>int</type><value>not-a-number</value></attribute></attributes>
  </createFile>
 </soapenv:Body>
</soapenv:Envelope>`
	resp, err := httpPost(url, env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "Fault") {
		t.Fatalf("no fault in response: %s", resp)
	}
	if _, err := c.GetFile("bad", 0); err == nil {
		t.Fatal("file created despite bad attribute")
	}
}

func TestFaultMessagesAreInformative(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)
	_, err := c.CreateFile(FileSpec{Name: ""})
	if err == nil || !strings.Contains(err.Error(), "name required") {
		t.Fatalf("err = %v", err)
	}
	err = c.DeleteCollection("ghost")
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v", err)
	}
}
