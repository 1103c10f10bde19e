package mcs

import (
	"context"
	"net/http"

	"mcs/internal/mcswire"
)

// TransportKind selects one of the built-in wire encodings.
type TransportKind string

const (
	// TransportSOAP is the paper-faithful SOAP/HTTP wire (the default).
	TransportSOAP TransportKind = "soap"
	// TransportJSON is the compact JSON/HTTP wire (/api/v1/<op>): the same
	// operations, error identities and retry semantics with cheaper
	// encoding, plus NDJSON streaming for large results.
	TransportJSON TransportKind = "json"
)

// Transport is one wire encoding of the MCS operation set. Both built-in
// transports carry identical semantics — same operations, same
// X-MCS-Request-ID / X-MCS-Idempotency-Key headers, same fault-code-to-
// sentinel mapping — so a Client behaves identically over either; only the
// bytes differ. Implementations must honor extra headers by overriding any
// per-client defaults, because the retry layer pins request IDs and
// idempotency keys through them.
type Transport interface {
	// Call performs one request/response round trip for the named
	// operation, decoding the reply into resp.
	Call(ctx context.Context, action string, extra http.Header, req, resp any) error
}

// StreamTransport is implemented by transports whose encoding supports
// incremental results (NDJSON on the JSON wire). Rows are decoded one at a
// time into values from newRow and handed to row as they arrive.
type StreamTransport interface {
	Transport
	Stream(ctx context.Context, action string, extra http.Header, req any,
		newRow func() any, row func(any) error) error
}

// unaryTransport is the wire client behind a codec with no streamed
// encoding (SOAP): hiding Stream makes the StreamTransport assertion fail,
// so streaming callers fall back to paging.
type unaryTransport struct{ c *mcswire.Client }

func (t unaryTransport) Call(ctx context.Context, action string, extra http.Header, req, resp any) error {
	return t.c.Call(ctx, action, extra, req, resp)
}
