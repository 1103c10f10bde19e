// Package soap is the SOAP 1.1 encoding of the MCS wire: the envelope, the
// fault, the WSDL, and the mcswire.Codec that plugs them into the shared
// request pipeline (internal/mcswire owns everything that is not bytes).
//
// It stands in for the Apache Axis/Tomcat stack of the original deployment:
// requests and responses are Go structs marshalled into a SOAP envelope with
// encoding/xml, carried in an HTTP POST, and dispatched by body element name.
// Application errors travel as SOAP faults. The round trip through XML and
// HTTP is precisely the "web service overhead" the paper's evaluation
// quantifies, so this layer is implemented honestly rather than bypassed.
package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"mcs/internal/mcswire"
)

// EnvelopeNS is the SOAP 1.1 envelope namespace.
const EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"

// envelope is the wire representation of a SOAP message.
type envelope struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Envelope"`
	Body    body     `xml:"http://schemas.xmlsoap.org/soap/envelope/ Body"`
}

type body struct {
	Inner []byte `xml:",innerxml"`
}

// Fault is the XML shape of a SOAP 1.1 fault: an mcswire.WireError on this
// wire, its code under the soapenv: prefix.
type Fault struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Fault"`
	Code    string   `xml:"faultcode"`
	String  string   `xml:"faultstring"`
	Detail  string   `xml:"detail,omitempty"`
}

// envOpen and envClose are the constant envelope bytes around a marshalled
// payload — exactly what xml.Marshal(envelope{...}) used to produce. Writing
// them as literals means one xml.Encoder per message instead of two (each
// xml.Marshal allocates a 4 KiB bufio.Writer internally, which the
// allocation profile showed as the single largest source of garbage on the
// SOAP add path) and no intermediate copy of the payload bytes.
var (
	envOpen  = []byte(xml.Header + `<Envelope xmlns="` + EnvelopeNS + `"><Body xmlns="` + EnvelopeNS + `">`)
	envClose = []byte(`</Body></Envelope>`)
)

// Marshal wraps payload (a struct with an XMLName) in a SOAP envelope.
func Marshal(payload any) ([]byte, error) {
	inner, err := xml.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("soap: marshal payload: %w", err)
	}
	out := make([]byte, 0, len(envOpen)+len(inner)+len(envClose))
	out = append(out, envOpen...)
	out = append(out, inner...)
	out = append(out, envClose...)
	return out, nil
}

// decodeBody advances dec to the first element inside the SOAP Body and
// returns its start element, leaving the decoder positioned so that
// DecodeElement consumes exactly that element. Streaming to the payload in
// one pass matters: the envelope used to be tokenized once to slice out the
// Body and a second time to unmarshal it, which doubled the XML cost of
// every call — and of every operation inside a large batchWrite body.
func decodeBody(dec *xml.Decoder) (xml.StartElement, error) {
	depth := 0
	inBody := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			if inBody {
				return xml.StartElement{}, fmt.Errorf("soap: empty Body")
			}
			return xml.StartElement{}, fmt.Errorf("soap: no Body element")
		}
		if err != nil {
			return xml.StartElement{}, fmt.Errorf("soap: parse envelope: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if inBody {
				return t, nil
			}
			if depth == 1 && (t.Name.Space != EnvelopeNS || t.Name.Local != "Envelope") {
				return xml.StartElement{}, fmt.Errorf("soap: parse envelope: unexpected root element <%s>", t.Name.Local)
			}
			if depth == 2 && t.Name.Space == EnvelopeNS && t.Name.Local == "Body" {
				inBody = true
			}
		case xml.EndElement:
			depth--
			if inBody {
				// Leaving the Body without seeing a payload element.
				return xml.StartElement{}, fmt.Errorf("soap: empty Body")
			}
		}
	}
}

// Unmarshal extracts the first Body element of a SOAP message into v.
// If the body is a Fault, it is returned as a *mcswire.WireError.
func Unmarshal(raw []byte, v any) error {
	dec := xml.NewDecoder(bytes.NewReader(raw))
	se, err := decodeBody(dec)
	if err != nil {
		return err
	}
	if se.Name.Local == "Fault" {
		var f Fault
		if err := dec.DecodeElement(&f, &se); err != nil {
			return fmt.Errorf("soap: parse fault: %w", err)
		}
		return &mcswire.WireError{Code: strings.TrimPrefix(f.Code, "soapenv:"), Message: f.String}
	}
	if err := dec.DecodeElement(v, &se); err != nil {
		return fmt.Errorf("soap: unmarshal %s: %w", se.Name.Local, err)
	}
	return nil
}
