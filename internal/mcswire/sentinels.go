package mcswire

import (
	"errors"
	"strings"

	"mcs/internal/core"
)

// ErrPartialResult marks a scatter-gather operation that could not reach
// every shard it needed: the router returns no data rather than a silently
// truncated result set. It deliberately does not wrap ErrUnavailable or the
// client transport sentinel — a retried scatter would re-run healthy
// subqueries against a shard that is still down, so the caller (not the
// retry loop) decides whether to retry, degrade, or surface the outage.
var ErrPartialResult = errors.New("mcs: partial result: one or more shards unavailable")

// Sentinels is the exhaustive, symmetric mapping between the catalog's
// sentinel errors and wire error-code suffixes. The server encodes a handler
// error as faultcode soapenv:Server.<Code> (SOAP) or code Server.<Code>
// (JSON); the client decodes the code back to the same sentinel, so
// errors.Is works identically on both sides of the wire — and across the
// router's extra hop. Every core.Err* sentinel must appear here exactly once
// (TestFaultSentinelTableExhaustive enforces it).
var Sentinels = []struct {
	Code string
	Err  error
}{
	{"NotFound", core.ErrNotFound},
	{"Exists", core.ErrExists},
	{"Denied", core.ErrDenied},
	{"InvalidInput", core.ErrInvalidInput},
	{"Cycle", core.ErrCycle},
	{"NotEmpty", core.ErrNotEmpty},
	{"AmbiguousFile", core.ErrAmbiguousFile},
	{"Unavailable", core.ErrUnavailable},
	{"PartialResult", ErrPartialResult},
}

// CodeForError maps a handler error to its wire code suffix ("" when the
// error wraps no known sentinel).
func CodeForError(err error) string {
	for _, s := range Sentinels {
		if errors.Is(err, s.Err) {
			return s.Code
		}
	}
	return ""
}

// SentinelForCode maps a wire error code (e.g. "soapenv:Server.NotFound" or
// "Server.NotFound") back to its sentinel, or nil for unrecognized codes.
func SentinelForCode(code string) error {
	i := strings.LastIndex(code, ".")
	if i < 0 {
		return nil
	}
	suffix := code[i+1:]
	for _, s := range Sentinels {
		if s.Code == suffix {
			return s.Err
		}
	}
	return nil
}
