package mcswire

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mcs/internal/core"
	"mcs/internal/faultinject"
	"mcs/internal/obs"
)

// MaxRequestBody bounds an operation's request body; a larger one is
// refused with HTTP 413 rather than read.
const MaxRequestBody = 16 << 20

// Config names a Server's collaborators; every field is optional.
type Config struct {
	// Authenticate verifies a request before dispatch and returns the
	// caller's DN (gsi.Verifier.Authenticate); nil serves unauthenticated.
	Authenticate func(r *http.Request, body []byte) (dn string, err error)
	// Metrics records every dispatch, labelled per codec.
	Metrics *obs.Registry
	// SlowOps logs operations over its threshold.
	SlowOps *obs.SlowOpLog
	// Faults injects chaos at the dispatch, after and transport sites; its
	// DefaultErr, when unset, becomes core.ErrUnavailable so injected
	// errors are retryable.
	Faults *faultinject.Injector
}

// Server is the request pipeline in front of a Table: the one path every
// operation takes on its way in, whatever encoded it and whether the table
// belongs to a catalog daemon or to the shard router. The pipeline owns
// correlation, the body limit, authentication, op lookup, the fault sites,
// instrumentation and the slow-op log; a Codec owns only bytes. A request
// is admitted, shed, traced or cancelled here and nowhere else.
type Server struct {
	table  *Table
	cfg    Config
	codecs []Codec
}

// NewServer mounts table behind the given codecs. A request goes to the
// first codec that Accepts it, so a catch-all wire (SOAP) is listed last.
func NewServer(table *Table, cfg Config, codecs ...Codec) *Server {
	if cfg.Faults != nil && cfg.Faults.DefaultErr == nil {
		cfg.Faults.DefaultErr = core.ErrUnavailable
	}
	return &Server{table: table, cfg: cfg, codecs: codecs}
}

// errorCode renders the wire code of a handler error: "Server.<Sentinel>"
// when it wraps a catalog sentinel, plain "Server" otherwise.
func errorCode(err error) string {
	if suffix := CodeForError(err); suffix != "" {
		return "Server." + suffix
	}
	return "Server"
}

// wireError encodes a handler error for the wire. A *WireError — a verdict
// the shard router is relaying — keeps its code and message verbatim.
func wireError(err error) *WireError {
	var we *WireError
	if errors.As(err, &we) {
		return we
	}
	return &WireError{Code: errorCode(err), Message: err.Error()}
}

// ServeHTTP runs one request through the pipeline.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var c Codec
	for _, cand := range s.codecs {
		if cand.Accepts(r) {
			c = cand
			break
		}
	}
	if c == nil {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		c.ServeInfo(w, r, s.table.Ops())
		return
	}

	// Correlate the call: accept the client's request ID or mint one, and
	// echo it so the caller can quote it when chasing a slow or failed op.
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)

	// reject refuses a request before dispatch; such requests count as
	// malformed rather than against any operation.
	reject := func(status int, code, msg string) {
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.Malformed()
		}
		c.WriteError(w, status, &WireError{Code: code, Message: msg})
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			reject(http.StatusRequestEntityTooLarge, "Client",
				fmt.Sprintf("request body exceeds %d MiB", MaxRequestBody>>20))
			return
		}
		reject(http.StatusBadRequest, "Client", fmt.Sprintf("read request: %v", err))
		return
	}
	ctx := &Ctx{
		Context:        r.Context(),
		RemoteAddr:     r.RemoteAddr,
		Header:         r.Header,
		RequestID:      reqID,
		IdempotencyKey: r.Header.Get(obs.IdempotencyKeyHeader),
	}
	if s.cfg.Authenticate != nil {
		if ctx.DN, err = s.cfg.Authenticate(r, body); err != nil {
			reject(http.StatusUnauthorized, "Client.Authentication", err.Error())
			return
		}
	}
	op, decode, err := c.Open(r, body)
	if err != nil {
		reject(http.StatusBadRequest, "Client", err.Error())
		return
	}
	h := s.table.Lookup(op)
	if h == nil {
		reject(http.StatusNotFound, "Client", fmt.Sprintf("unknown operation %q", op))
		return
	}
	req := h.New()
	if err := decode(req); err != nil {
		reject(http.StatusBadRequest, "Client", fmt.Sprintf("decode %s request: %v", op, err))
		return
	}

	// Dispatch site: the call fails before its handler runs, so it has no
	// effect to deduplicate — the plainest retryable failure.
	if s.inject(c, w, faultinject.SiteDispatch, op, reqID, "before %s", nil) {
		return
	}

	if sc, ok := c.(StreamCodec); ok && h.Stream != nil && sc.WantsStream(r) {
		sc.WriteStream(w, func(emit func(row any) error) *WireError {
			if err := s.observe(c, op, ctx, func() error { return h.Stream(ctx, req, emit) }); err != nil {
				return wireError(err)
			}
			return nil
		})
		return
	}

	var resp any
	err = s.observe(c, op, ctx, func() (err error) {
		resp, err = h.Call(ctx, req)
		return err
	})
	if err != nil {
		c.WriteError(w, http.StatusInternalServerError, wireError(err))
		return
	}

	// After site: the handler has run (and committed) but the reply is
	// lost. Only an idempotent retry recovers from this one.
	if s.inject(c, w, faultinject.SiteAfter, op, reqID, "after %s", nil) {
		return
	}
	out, err := c.Marshal(resp)
	if err != nil {
		c.WriteError(w, http.StatusInternalServerError, &WireError{Code: "Server", Message: err.Error()})
		return
	}
	// Transport site: the response write itself misbehaves.
	if s.inject(c, w, faultinject.SiteTransport, op, reqID, "writing %s reply", out) {
		return
	}
	w.Header().Set("Content-Type", c.ContentType())
	w.Write(out) //nolint:errcheck // best-effort response write
}

// observe runs one handler invocation instrumented: the in-flight gauge
// around it, then request/error counters, the latency histogram and the
// slow-op log on completion.
func (s *Server) observe(c Codec, op string, ctx *Ctx, call func() error) error {
	var om *obs.OpMetrics
	if s.cfg.Metrics != nil {
		om = s.cfg.Metrics.TransportOp(c.Label(), op)
		om.Begin()
	}
	start := time.Now()
	err := call()
	elapsed := time.Since(start)
	if om != nil {
		om.End(elapsed, err)
	}
	s.cfg.SlowOps.Record(op, ctx.RequestID, ctx.DN, elapsed, err)
	return err
}

// inject evaluates one fault site and applies what it decides, reporting
// whether the fault ended the request. where, a format taking the operation,
// completes the message of an injected error reply; out, at the transport
// site only, is the encoded reply a partial fault truncates.
func (s *Server) inject(c Codec, w http.ResponseWriter, site faultinject.Site, op, reqID, where string, out []byte) bool {
	f := s.cfg.Faults.Eval(site, op, reqID)
	if f == nil {
		return false
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.FaultInjected(string(site))
	}
	if f.Delay > 0 {
		s.cfg.Faults.Sleep(f.Delay)
	}
	switch {
	case f.Kind == faultinject.KindLatency:
		return false // slow only; the request carries on
	case f.Kind == faultinject.KindDrop:
		panic(http.ErrAbortHandler)
	case f.Kind == faultinject.KindPartial && out != nil:
		// Advertise the full length, deliver a prefix, sever the
		// connection: the client's body read fails mid-stream with the
		// status line already in hand.
		n := f.TruncateAt
		if n <= 0 || n >= len(out) {
			n = len(out) / 2
		}
		w.Header().Set("Content-Type", c.ContentType())
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		w.Write(out[:n]) //nolint:errcheck // deliberately truncated write
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	c.WriteError(w, http.StatusInternalServerError, &WireError{
		Code:    errorCode(f.Err),
		Message: fmt.Sprintf("injected %s fault "+where+": %v", f.Kind, op, f.Err),
	})
	return true
}
