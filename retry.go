package mcs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"net/http"
	"time"

	"mcs/internal/mcswire"
)

// Retryable reports whether err is worth retrying: the server said it was
// temporarily unavailable (ErrUnavailable) or the call failed without a
// decodable reply (ErrTransport). Catalog verdicts — ErrNotFound, ErrExists,
// ErrDenied and the rest — are final and retrying them cannot help.
func Retryable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrTransport)
}

// RetryStats reports the client's cumulative retry activity.
type RetryStats struct {
	// Attempts counts HTTP round trips issued by retry-enabled calls.
	Attempts int64
	// Retries counts attempts beyond the first, i.e. Attempts minus the
	// number of logical calls.
	Retries int64
}

// RetryStats returns cumulative counters for retry-enabled calls. Calls made
// with retries off (the default) are not counted.
func (c *Client) RetryStats() RetryStats {
	return RetryStats{Attempts: c.attempts.Load(), Retries: c.retries.Load()}
}

// callRetry runs one logical call of op as up to c.retryAttempts attempts.
// The request correlation ID and (for a mutating op) the idempotency key
// are pinned once and repeated verbatim on every attempt, so the server can
// recognize replays and the audit log shows one logical request.
func callRetry[Req, Resp any](ctx context.Context, c *Client, op mcswire.Op[Req, Resp], req *Req) (*Resp, error) {
	hdr := c.wire.PinCall(op.Mutating)
	for attempt := 1; ; attempt++ {
		c.attempts.Add(1)
		resp, err := callOnce(ctx, c, op, hdr, req)
		if err == nil || attempt >= c.retryAttempts || ctx.Err() != nil || !Retryable(err) {
			return resp, err
		}
		c.retries.Add(1)
		if c.sleep(ctx, c.backoffFor(attempt)) != nil {
			// The caller's context died while we were backing off; the last
			// attempt's error describes the failure better than ctx.Err alone.
			return nil, err
		}
	}
}

// callOnce performs a single attempt, decoding into a fresh response: wire
// decoding can append to slices, and a failed attempt can partially fill
// its response before erroring, so no attempt sees doubled slice elements
// or fields left over from a dead one, and a failed attempt's is dropped.
func callOnce[Req, Resp any](ctx context.Context, c *Client, op mcswire.Op[Req, Resp], hdr http.Header, req *Req) (*Resp, error) {
	resp := new(Resp)
	if err := c.wire.Call(ctx, op.Name, hdr, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// backoffFor returns the pause before the next attempt: exponential in the
// attempt number, capped at backoffMax, with jitter drawn uniformly from
// [d/2, d) so a fleet of clients recovering from the same outage does not
// retry in lockstep.
func (c *Client) backoffFor(attempt int) time.Duration {
	d := c.backoffBase
	for i := 1; i < attempt && d < c.backoffMax; i++ {
		d *= 2
	}
	if d > c.backoffMax {
		d = c.backoffMax
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	c.rngMu.Lock()
	c.rngState += 0x9e3779b97f4a7c15
	z := c.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	c.rngMu.Unlock()
	return half + time.Duration(z%uint64(half))
}

// ctxSleep pauses for d or until ctx is done, whichever comes first.
func ctxSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// seedRNG seeds the jitter generator from the OS entropy pool; jitter
// quality is not security-sensitive, so a failed read just falls back to a
// fixed odd constant.
func seedRNG() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return 0x9e3779b97f4a7c15
	}
	return binary.LittleEndian.Uint64(b[:])
}
