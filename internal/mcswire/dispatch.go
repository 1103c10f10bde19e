package mcswire

import (
	"context"
	"fmt"
	"net/http"
	"sort"
)

// Ctx carries per-request context into transport-neutral operation handlers.
// The pipeline (Server) builds one per request, so a handler never learns
// which encoding carried its call.
type Ctx struct {
	// Context is the inbound request's context: cancelled when the client
	// hangs up. Handlers that do further I/O (the shard router's forwards)
	// derive from it so abandoned work stops.
	Context context.Context
	// DN is the authenticated distinguished name of the caller, or "" when
	// the service runs without authentication.
	DN string
	// RemoteAddr is the peer's network address.
	RemoteAddr string
	// Header exposes the raw request headers (capability assertions etc.).
	Header http.Header
	// RequestID is the correlation ID of this call: taken from the
	// X-MCS-Request-ID request header when present, generated otherwise.
	RequestID string
	// IdempotencyKey is the client's deduplication key for a mutating call
	// (the X-MCS-Idempotency-Key request header), "" when absent.
	IdempotencyKey string
}

// Handler is one catalog operation in the transport-neutral dispatch table:
// a request factory plus a type-erased call, built from the operation's Op
// by Handle or HandleStream. A Codec owns decoding (XML or JSON) into the
// fresh request and encoding of the returned response; everything between
// — authorization, the core call, error identity — is shared and therefore
// provably identical across transports.
type Handler struct {
	// Name is the operation name (SOAP body element / /api/v1/<name> path).
	Name string
	// Mutating is the descriptor's Op.Mutating: the operation changes
	// catalog state, and its calls carry idempotency keys.
	Mutating bool
	// New returns a pointer to a fresh request struct for the decoder.
	New func() any
	// Call executes the operation. req is the pointer New returned, already
	// decoded; the result is the response struct for the encoder.
	Call func(ctx *Ctx, req any) (any, error)
	// Stream, when non-nil, serves the operation incrementally: rows are
	// handed to emit one at a time so arbitrarily large result sets never
	// materialize server-side. Codecs without a streaming encoding (SOAP)
	// use Call.
	Stream func(ctx *Ctx, req any, emit func(row any) error) error
}

// QueryRow is one streamed query result row: a single matched logical name
// per NDJSON line.
type QueryRow struct {
	Name string `json:"name"`
}

// ContentsRow is one streamed collectionContents result row; exactly one of
// File or Collection is set.
type ContentsRow struct {
	File       *WireFile       `json:"file,omitempty"`
	Collection *WireCollection `json:"collection,omitempty"`
}

// Table is the dispatch table a Server serves over every codec. Operations
// are registered exactly once.
type Table struct {
	ops map[string]*Handler
}

// NewTable returns an empty dispatch table.
func NewTable() *Table {
	return &Table{ops: make(map[string]*Handler)}
}

// Register adds a handler; registering the same name twice is a programming
// error and panics.
func (t *Table) Register(h Handler) {
	if h.Name == "" || h.New == nil || h.Call == nil {
		panic("mcswire: incomplete handler registration")
	}
	if _, dup := t.ops[h.Name]; dup {
		panic(fmt.Sprintf("mcswire: operation %q registered twice", h.Name))
	}
	hc := h
	t.ops[h.Name] = &hc
}

// Lookup returns the named handler, or nil when unregistered.
func (t *Table) Lookup(name string) *Handler { return t.ops[name] }

// Ops returns the registered operation names, sorted.
func (t *Table) Ops() []string {
	names := make([]string, 0, len(t.ops))
	for n := range t.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
