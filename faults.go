package mcs

import "mcs/internal/mcswire"

// faultSentinels is the exhaustive, symmetric mapping between the catalog's
// sentinel errors and wire error-code suffixes. It lives in
// internal/mcswire so the shard router maps errors identically without
// importing this package; every core.Err* sentinel must appear there
// exactly once (TestFaultSentinelTableExhaustive enforces it). A wire error
// (*mcswire.WireError) unwraps to the sentinel its code names, so a failed
// call matches errors.Is(err, mcs.ErrNotFound) etc. over either wire with
// no client-side translation.
var faultSentinels = mcswire.Sentinels

// ErrTransport marks calls that failed without a decodable reply — on
// either wire: the request never completed, the connection dropped
// mid-body, or an intermediary answered in the wrong encoding. The server
// may or may not have applied the operation, which is exactly why mutating
// calls carry idempotency keys; with retries enabled the client re-sends
// these automatically.
var ErrTransport = mcswire.ErrTransport
