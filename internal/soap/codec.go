package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"

	"mcs/internal/mcswire"
)

// ServiceName names the service in the generated WSDL.
const ServiceName = "MetadataCatalogService"

const contentType = "text/xml; charset=utf-8"

// Codec is the SOAP 1.1 wire as an mcswire.Codec: operations are named by
// the first element of the envelope Body, errors travel as soapenv: faults,
// and GET ?wsdl describes the service. It accepts every request, so it is
// mounted last, as the catch-all beside more specific wires.
type Codec struct{}

var _ mcswire.Codec = Codec{}

// Label is empty: SOAP dispatch metrics render without a transport label,
// as they did before there was a second wire.
func (Codec) Label() string { return "" }

func (Codec) ContentType() string { return contentType }

func (Codec) Marshal(v any) ([]byte, error) { return Marshal(v) }

func (Codec) Accepts(*http.Request) bool { return true }

// ServeInfo answers GET ?wsdl with the service description.
func (Codec) ServeInfo(w http.ResponseWriter, r *http.Request, ops []string) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if _, ok := r.URL.Query()["wsdl"]; ok {
		w.Header().Set("Content-Type", contentType)
		io.WriteString(w, WSDL(ops)) //nolint:errcheck // best-effort response write
		return
	}
	http.Error(w, "MCS SOAP endpoint; POST SOAP envelopes here", http.StatusOK)
}

// Open streams to the first Body element, whose local name is the
// operation; decode then consumes exactly that element.
func (Codec) Open(_ *http.Request, body []byte) (string, func(req any) error, error) {
	dec := xml.NewDecoder(bytes.NewReader(body))
	se, err := decodeBody(dec)
	if err != nil {
		return "", nil, err
	}
	return se.Name.Local, func(req any) error { return dec.DecodeElement(req, &se) }, nil
}

// WriteError sends e as a soapenv: fault. The SOAP 1.1 HTTP binding carries
// every fault with status 500; only a refused oversize body keeps its 413,
// because that status is what tells proxies and clients to stop sending.
func (Codec) WriteError(w http.ResponseWriter, status int, e *mcswire.WireError) {
	if status != http.StatusRequestEntityTooLarge {
		status = http.StatusInternalServerError
	}
	out, err := Marshal(&Fault{Code: "soapenv:" + e.Code, String: e.Message})
	if err != nil {
		http.Error(w, e.Message, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	w.Write(out) //nolint:errcheck // best-effort response write
}

func (Codec) Address(r *http.Request, action string) {
	r.Header.Set("SOAPAction", `"`+action+`"`)
}

func (Codec) Unmarshal(body []byte, v any) error { return Unmarshal(body, v) }

func (Codec) ReadError(body []byte) *mcswire.WireError {
	var we *mcswire.WireError
	if errors.As(Unmarshal(body, nil), &we) {
		return we
	}
	return nil
}

// WSDL renders a minimal WSDL 1.1 description of the given operations. The
// original MCS generated its Java client stubs from exactly this kind of
// document.
func WSDL(ops []string) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s", xml.Header)
	fmt.Fprintf(&b, `<definitions name=%q targetNamespace=%q
  xmlns="http://schemas.xmlsoap.org/wsdl/"
  xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/"
  xmlns:tns=%q>
`, ServiceName, mcswire.NS, mcswire.NS)
	for _, op := range ops {
		fmt.Fprintf(&b, "  <message name=%q/>\n", op+"Request")
		fmt.Fprintf(&b, "  <message name=%q/>\n", op+"Response")
	}
	fmt.Fprintf(&b, "  <portType name=%q>\n", ServiceName+"PortType")
	for _, op := range ops {
		fmt.Fprintf(&b, `    <operation name=%q>
      <input message="tns:%sRequest"/>
      <output message="tns:%sResponse"/>
    </operation>
`, op, op, op)
	}
	fmt.Fprintf(&b, "  </portType>\n</definitions>\n")
	return b.String()
}
