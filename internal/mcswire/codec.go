package mcswire

import (
	"errors"
	"fmt"
	"net/http"
)

// Codec is one wire encoding of the operation set: how a request names its
// operation and carries its arguments, how replies and errors are framed,
// and what the wire serves besides operations. Everything else about a call
// — correlation IDs, the body limit, authentication, fault sites,
// instrumentation, cancellation, signing — belongs to the one pipeline
// (Server and Client) and is therefore identical on every wire.
// internal/soap and internal/jsonwire are the two codecs.
type Codec interface {
	// Label tags the wire's dispatch metrics; "" renders unlabelled series.
	Label() string
	// ContentType is the media type of request and reply bodies.
	ContentType() string
	// Marshal encodes a request (client side) or reply (server side) body.
	Marshal(v any) ([]byte, error)

	// Accepts reports whether an inbound request is addressed to this wire.
	Accepts(r *http.Request) bool
	// ServeInfo answers a non-POST request: service description, operation
	// listing, or method-not-allowed.
	ServeInfo(w http.ResponseWriter, r *http.Request, ops []string)
	// Open finds the operation an inbound request names and returns the
	// function that decodes its arguments into a fresh request struct.
	Open(r *http.Request, body []byte) (op string, decode func(req any) error, err error)
	// WriteError sends e in the wire's error framing. status is the
	// pipeline's HTTP classification; a wire whose binding fixes the status
	// of error replies may override it.
	WriteError(w http.ResponseWriter, status int, e *WireError)

	// Address points an outbound request, already built for the service
	// endpoint, at one operation.
	Address(r *http.Request, action string)
	// Unmarshal decodes a success reply into v; a reply that is an error in
	// disguise comes back as a *WireError.
	Unmarshal(body []byte, v any) error
	// ReadError decodes an error reply, or returns nil when body is not one.
	ReadError(body []byte) *WireError
}

// StreamCodec is a Codec whose encoding can also carry a reply one row at a
// time, so arbitrarily large results materialize on neither side.
type StreamCodec interface {
	Codec
	// WantsStream reports whether an inbound request asked for a streamed
	// reply.
	WantsStream(r *http.Request) bool
	// WriteStream frames the rows produce emits; produce returns the error
	// that ended the stream early, or nil when every row was emitted.
	WriteStream(w http.ResponseWriter, produce func(emit func(row any) error) *WireError)
	// AskStream marks an outbound request as wanting a streamed reply.
	AskStream(r *http.Request)
	// ReadStream decodes a streamed reply, handing rows (decoded into values
	// from newRow) to row as they arrive. A stream cut short of its
	// terminator is a *TransportError.
	ReadStream(action string, resp *http.Response, newRow func() any, row func(any) error) error
}

// WireError is an application error as it travels on either wire: the SOAP
// fault's faultcode/faultstring, the JSON wire's {"error":{code,message}}.
// Code is "Server.<Sentinel>" for catalog verdicts (see Sentinels), plain
// "Server" or "Client[.<Reason>]" otherwise; it unwraps to the sentinel its
// code names, so errors.Is works the same on both sides of any hop.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *WireError) Error() string { return e.Code + ": " + e.Message }

// Unwrap exposes the sentinel the code names (nil for unrecognized codes).
func (e *WireError) Unwrap() error { return SentinelForCode(e.Code) }

// ErrTransport marks calls that failed without a decodable reply — on
// either wire: the request never completed, the connection dropped
// mid-body, or an intermediary answered in the wrong encoding. The server
// may or may not have applied the operation, which is exactly why mutating
// calls carry idempotency keys.
var ErrTransport = errors.New("mcs: transport failure")

// TransportError reports a call that failed without a decodable reply.
// Status and Body carry whatever did arrive — a connection cut while
// streaming the response still yields the HTTP status line and the received
// body prefix, not just a bare read error. It matches ErrTransport.
type TransportError struct {
	Action string
	Status string // HTTP status line; "" when no response arrived at all
	Body   string // prefix of the (possibly partial) body
	Err    error  // underlying cause; nil for a clean non-2xx reply
}

// Error renders the most specific description the available evidence
// allows.
func (e *TransportError) Error() string {
	switch {
	case e.Err == nil:
		return fmt.Sprintf("mcs: call %s: server returned %s: %q", e.Action, e.Status, e.Body)
	case e.Status != "":
		return fmt.Sprintf("mcs: call %s: response truncated after %s: %v (partial body %q)",
			e.Action, e.Status, e.Err, e.Body)
	default:
		return fmt.Sprintf("mcs: call %s: %v", e.Action, e.Err)
	}
}

// Unwrap exposes the underlying cause and the ErrTransport sentinel.
func (e *TransportError) Unwrap() []error {
	if e.Err == nil {
		return []error{ErrTransport}
	}
	return []error{e.Err, ErrTransport}
}
