package soap

import (
	"encoding/xml"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcs/internal/mcswire"
)

// The encoding's own tests: envelope, fault and WSDL. How a request moves
// through the server and client is the pipeline's business and is tested in
// internal/mcswire against every codec, this one included.

type echoRequest struct {
	XMLName xml.Name `xml:"urn:test echo"`
	Message string   `xml:"message"`
	N       int      `xml:"n"`
}

type echoResponse struct {
	XMLName xml.Name `xml:"urn:test echoResponse"`
	Message string   `xml:"message"`
	N       int      `xml:"n"`
}

func TestMarshalUnmarshalDirect(t *testing.T) {
	raw, err := Marshal(&echoRequest{Message: "x", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "Envelope") || !strings.Contains(string(raw), "Body") {
		t.Fatalf("envelope missing: %s", raw)
	}
	var req echoRequest
	if err := Unmarshal(raw, &req); err != nil {
		t.Fatal(err)
	}
	if req.Message != "x" || req.N != 3 {
		t.Fatalf("round trip = %+v", req)
	}
}

// Open names the operation after the first Body element and decodes exactly
// that element, whatever characters it carries.
func TestOpenDecodesBodyElement(t *testing.T) {
	msg := `<>&"'` + "\n\ttabs & ümläuts 日本語"
	raw, err := Marshal(&echoRequest{Message: msg, N: 7})
	if err != nil {
		t.Fatal(err)
	}
	op, decode, err := Codec{}.Open(nil, raw)
	if err != nil || op != "echo" {
		t.Fatalf("Open = %q, %v", op, err)
	}
	var req echoRequest
	if err := decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.Message != msg || req.N != 7 {
		t.Fatalf("decoded %+v, want message %q", req, msg)
	}
	if _, _, err := (Codec{}).Open(nil, []byte("this is not xml")); err == nil {
		t.Fatal("Open accepted a non-envelope")
	}
}

func TestUnmarshalFault(t *testing.T) {
	raw, err := Marshal(&Fault{Code: "soapenv:Server.NotFound", String: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	var resp echoResponse
	err = Unmarshal(raw, &resp)
	var we *mcswire.WireError
	if !errors.As(err, &we) || we.Message != "nope" || we.Code != "Server.NotFound" {
		t.Fatalf("err = %v", err)
	}
	if got := (Codec{}).ReadError(raw); got == nil || *got != *we {
		t.Fatalf("ReadError = %+v, want %+v", got, we)
	}
	// A body that is not a fault is not an error reply.
	ok, _ := Marshal(&echoResponse{Message: "fine"})
	if got := (Codec{}).ReadError(ok); got != nil {
		t.Fatalf("ReadError(reply) = %+v, want nil", got)
	}
}

// Faults travel with HTTP 500 whatever the pipeline's classification (SOAP
// 1.1 binding) — except the 413 of a refused oversize body.
func TestWriteErrorStatusAndFraming(t *testing.T) {
	for pipeline, want := range map[int]int{
		http.StatusBadRequest:            http.StatusInternalServerError,
		http.StatusUnauthorized:          http.StatusInternalServerError,
		http.StatusInternalServerError:   http.StatusInternalServerError,
		http.StatusRequestEntityTooLarge: http.StatusRequestEntityTooLarge,
	} {
		rec := httptest.NewRecorder()
		Codec{}.WriteError(rec, pipeline, &mcswire.WireError{Code: "Client", Message: "bad"})
		if rec.Code != want {
			t.Errorf("pipeline status %d went out as %d, want %d", pipeline, rec.Code, want)
		}
		we := (Codec{}).ReadError(rec.Body.Bytes())
		if we == nil || we.Code != "Client" || we.Message != "bad" {
			t.Errorf("fault did not round-trip: %+v from %s", we, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "<faultcode>soapenv:Client</faultcode>") {
			t.Errorf("fault code not under the soapenv: prefix: %s", rec.Body)
		}
	}
}

func TestEmptyBody(t *testing.T) {
	raw := []byte(xml.Header + `<soapenv:Envelope xmlns:soapenv="` + EnvelopeNS + `"><soapenv:Body></soapenv:Body></soapenv:Envelope>`)
	var resp echoResponse
	if err := Unmarshal(raw, &resp); err == nil {
		t.Fatal("empty body did not fail")
	}
}

func TestWSDLGeneration(t *testing.T) {
	rec := httptest.NewRecorder()
	Codec{}.ServeInfo(rec, httptest.NewRequest(http.MethodGet, "/?wsdl", nil), []string{"echo"})
	wsdl := rec.Body.String()
	if wsdl != WSDL([]string{"echo"}) {
		t.Fatalf("GET ?wsdl served %q", wsdl)
	}
	for _, want := range []string{"definitions", ServiceName, "echoRequest", "echoResponse", "portType"} {
		if !strings.Contains(wsdl, want) {
			t.Errorf("WSDL missing %q", want)
		}
	}
}
