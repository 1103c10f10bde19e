package mcswire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"mcs/internal/obs"
)

// Client issues operations to one endpoint: the single outbound path of the
// typed mcs.Client (either wire) and of the shard router's forwards. It
// satisfies mcs.Transport, and mcs.StreamTransport when its Codec streams.
type Client struct {
	Endpoint string
	HTTP     *http.Client
	// Codec encodes the calls; swapping it switches wires and nothing else.
	Codec Codec
	// Sign, when set, is called with the serialized body and may add
	// authentication headers (gsi.Credential.Sign).
	Sign func(req *http.Request, body []byte) error
	// Header holds extra headers attached to every request (e.g. CAS
	// capability assertions).
	Header http.Header
	// RequestIDHeader names the header carrying the per-call correlation
	// ID; "" disables request-ID propagation entirely.
	RequestIDHeader string
}

// NewClient returns a client for endpoint speaking codec. A nil h gives the
// client a dedicated connection pool, so benchmark harnesses can model
// independent "client hosts" with one Client each; the shard router passes
// one shared pool to every backend instead.
func NewClient(endpoint string, codec Codec, h *http.Client) *Client {
	if h == nil {
		h = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
			},
		}
	}
	return &Client{
		Endpoint: endpoint, HTTP: h, Codec: codec,
		Header:          make(http.Header),
		RequestIDHeader: obs.RequestIDHeader,
	}
}

// identify gives h what names one logical call: a correlation ID, unless
// propagation is off or h already carries one, and — when key is set — a
// fresh idempotency key. Every ID the client side mints comes from here.
func (c *Client) identify(h http.Header, key bool) {
	if name := c.RequestIDHeader; name != "" && h.Get(name) == "" {
		h.Set(name, obs.NewRequestID())
	}
	if key {
		h.Set(obs.IdempotencyKeyHeader, obs.NewRequestID())
	}
}

// PinCall returns the extra headers a retry layer repeats verbatim on every
// attempt of one logical call: its correlation ID and, for mutating
// actions, an idempotency key, so the server recognizes replays and the
// audit log shows one request.
func (c *Client) PinCall(action string) http.Header {
	hdr := make(http.Header, 2)
	if name := c.RequestIDHeader; name != "" {
		if id := c.Header.Get(name); id != "" {
			hdr.Set(name, id) // the caller pinned one for every call
		}
	}
	c.identify(hdr, MutatingOps[action])
	return hdr
}

// send builds and issues one request. extra headers override the client's
// own, and are applied before the request ID is minted so a pinned ID
// suppresses it. ask, when non-nil, marks the request as wanting a
// streamed reply.
func (c *Client) send(ctx context.Context, action string, extra http.Header, req any, ask func(*http.Request)) (*http.Response, error) {
	payload, err := c.Codec.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("mcs: marshal %s request: %w", action, err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("mcs: build request: %w", err)
	}
	httpReq.Header.Set("Content-Type", c.Codec.ContentType())
	c.Codec.Address(httpReq, action)
	if ask != nil {
		ask(httpReq)
	}
	for k, vals := range c.Header {
		for _, v := range vals {
			httpReq.Header.Add(k, v)
		}
	}
	for k, vals := range extra {
		httpReq.Header.Del(k)
		for _, v := range vals {
			httpReq.Header.Add(k, v)
		}
	}
	c.identify(httpReq.Header, false)
	if c.Sign != nil {
		if err := c.Sign(httpReq, payload); err != nil {
			return nil, fmt.Errorf("mcs: sign request: %w", err)
		}
	}
	resp, err := c.HTTP.Do(httpReq)
	if err != nil {
		return nil, &TransportError{Action: action, Err: err}
	}
	return resp, nil
}

// replyError interprets a non-2xx reply. Servers report application errors
// in the wire's error framing with an error status; those surface as
// *WireError. Anything else — typically an intermediary's error page — must
// not reach the decoder as if it were a reply, so it becomes a
// *TransportError quoting the status and a body prefix.
func (c *Client) replyError(action string, resp *http.Response, body []byte) error {
	if we := c.Codec.ReadError(body); we != nil {
		return we
	}
	return &TransportError{Action: action, Status: resp.Status, Body: bodyPrefix(body)}
}

// Call performs one request/response round trip for the named operation,
// decoding the reply into resp. The context's deadline and cancellation
// abort the request, including any in-flight response read, and surface in
// the returned error chain.
func (c *Client) Call(ctx context.Context, action string, extra http.Header, req, resp any) error {
	httpResp, err := c.send(ctx, action, extra, req, nil)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
	if err != nil {
		// The connection dropped mid-body. The status line and whatever
		// bytes did arrive are still diagnostic gold, so carry them.
		return &TransportError{Action: action, Status: httpResp.Status, Body: bodyPrefix(body), Err: err}
	}
	if httpResp.StatusCode < 200 || httpResp.StatusCode > 299 {
		return c.replyError(action, httpResp, body)
	}
	return c.Codec.Unmarshal(body, resp)
}

// Stream performs one streamed call: rows are decoded into fresh values
// from newRow and handed to row as they arrive.
func (c *Client) Stream(ctx context.Context, action string, extra http.Header, req any,
	newRow func() any, row func(any) error) error {
	sc, ok := c.Codec.(StreamCodec)
	if !ok {
		return fmt.Errorf("mcs: call %s: %T cannot stream", action, c.Codec)
	}
	httpResp, err := c.send(ctx, action, extra, req, sc.AskStream)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode < 200 || httpResp.StatusCode > 299 {
		body, _ := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
		return c.replyError(action, httpResp, body)
	}
	return sc.ReadStream(action, httpResp, newRow, row)
}

// bodyPrefix returns the leading bytes of a response body for error
// messages, truncating long bodies.
func bodyPrefix(raw []byte) string {
	const max = 256
	if len(raw) > max {
		return string(raw[:max]) + "..."
	}
	return string(raw)
}
