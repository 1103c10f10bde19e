// Package jsonwire is the compact JSON encoding of the MCS wire: the same
// operations, sentinel mapping and correlation headers as the SOAP endpoint,
// minus the XML envelope cost. It is bytes only — an mcswire.Codec plugged
// into the request pipeline both wires share.
//
// Requests POST a JSON body to /api/v1/<op>; replies are the bare response
// object. Errors carry {"error":{"code","message"}} where code is the same
// "Server.<Sentinel>" string the SOAP fault code carries, so the client maps
// both wires onto one sentinel table. Streamable operations (query) can ask
// for application/x-ndjson and receive rows one line at a time, terminated
// by {"end":true} — a missing terminator is a truncated reply.
package jsonwire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"mcs/internal/mcswire"
)

// Prefix is the URL prefix all JSON API operations live under.
const Prefix = "/api/v1/"

const ndjson = "application/x-ndjson"

// Codec is the JSON wire as an mcswire.StreamCodec.
type Codec struct{}

var _ mcswire.StreamCodec = Codec{}

// Label tags this wire's metrics ({transport="json"}).
func (Codec) Label() string { return "json" }

func (Codec) ContentType() string { return "application/json" }

func (Codec) Marshal(v any) ([]byte, error) { return json.Marshal(v) }

func (Codec) Accepts(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, Prefix) }

// ServeInfo answers GET /api/v1/ and GET /api/v1/ops with the registered
// operations.
func (Codec) ServeInfo(w http.ResponseWriter, r *http.Request, ops []string) {
	switch op := strings.TrimPrefix(r.URL.Path, Prefix); {
	case r.Method != http.MethodGet:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	case op == "" || op == "ops":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct { //nolint:errcheck // best-effort response write
			Ops []string `json:"ops"`
		}{Ops: ops})
	default:
		http.Error(w, "MCS JSON endpoint; POST JSON requests to /api/v1/<op>", http.StatusMethodNotAllowed)
	}
}

// Open takes the operation from the path; an empty body decodes as the
// zero request.
func (Codec) Open(r *http.Request, body []byte) (string, func(req any) error, error) {
	return strings.TrimPrefix(r.URL.Path, Prefix), func(req any) error {
		if len(body) == 0 {
			return nil
		}
		return json.Unmarshal(body, req)
	}, nil
}

// errEnvelope is the JSON error reply shape.
type errEnvelope struct {
	Error *mcswire.WireError `json:"error"`
}

func (Codec) WriteError(w http.ResponseWriter, status int, e *mcswire.WireError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errEnvelope{Error: e}) //nolint:errcheck // best-effort response write
}

func (Codec) Address(r *http.Request, action string) {
	r.URL.Path = strings.TrimSuffix(r.URL.Path, "/") + Prefix + action
}

func (Codec) Unmarshal(body []byte, v any) error {
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("json: decode reply: %w", err)
	}
	return nil
}

func (Codec) ReadError(body []byte) *mcswire.WireError {
	var env errEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code == "" {
		return nil
	}
	return env.Error
}

// WantsStream reports whether the request asked for an NDJSON streamed
// reply (Accept: application/x-ndjson or ?stream=ndjson / ?stream=1).
func (Codec) WantsStream(r *http.Request) bool {
	if v := r.URL.Query().Get("stream"); v == "ndjson" || v == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), ndjson)
}

// WriteStream answers as NDJSON: one JSON object per row, flushed in small
// batches, terminated by {"end":true}. Rows go out as produce emits them,
// so the reply never materializes server-side. An error before the first
// row is an ordinary error reply; an error mid-stream becomes an
// {"error":...} line, distinguishable from a severed connection by the
// missing terminator.
func (c Codec) WriteStream(w http.ResponseWriter, produce func(emit func(row any) error) *mcswire.WireError) {
	const flushEvery = 64
	wrote := 0
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	failed := produce(func(row any) error {
		if wrote == 0 {
			w.Header().Set("Content-Type", ndjson)
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
		wrote++
		if fl != nil && wrote%flushEvery == 0 {
			fl.Flush()
		}
		return nil
	})
	switch {
	case failed == nil:
		enc.Encode(struct { //nolint:errcheck // best-effort terminator
			End bool `json:"end"`
		}{End: true})
	case wrote == 0:
		c.WriteError(w, http.StatusInternalServerError, failed)
	default:
		enc.Encode(errEnvelope{Error: failed}) //nolint:errcheck // best-effort trailer
	}
}

func (Codec) AskStream(r *http.Request) {
	r.URL.RawQuery = "stream=ndjson"
	r.Header.Set("Accept", ndjson)
}

// ReadStream decodes an NDJSON reply row by row. The server terminates a
// successful stream with {"end":true}; a stream that ends without the
// terminator was severed mid-flight and the result may be incomplete.
func (Codec) ReadStream(action string, resp *http.Response, newRow func() any, row func(any) error) error {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Error *mcswire.WireError `json:"error"`
			End   bool               `json:"end"`
		}
		if err := json.Unmarshal(line, &probe); err == nil {
			if probe.Error != nil {
				return probe.Error
			}
			if probe.End {
				return nil
			}
		}
		r := newRow()
		if err := json.Unmarshal(line, r); err != nil {
			return fmt.Errorf("json: decode %s stream row: %w", action, err)
		}
		if err := row(r); err != nil {
			return err
		}
	}
	cause := sc.Err()
	if cause == nil {
		cause = io.ErrUnexpectedEOF
	}
	return &mcswire.TransportError{Action: action, Status: resp.Status,
		Err: fmt.Errorf("stream ended without terminator: %w", cause)}
}
