package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mcs/internal/federation"
	"mcs/internal/mcswire"
)

// backend is the router's view of one shard: a JSON wire client (the
// compact wire — the router never re-encodes XML shard-side) plus the
// shard's last soft-state discovery summary and health.
type backend struct {
	name   string // the shard's endpoint URL; also its identity in metrics
	client *mcswire.Client

	// forwarded counts operations sent to this shard; unreachable counts
	// transport-level failures talking to it.
	forwarded   atomic.Int64
	unreachable atomic.Int64

	// dirty marks a mutation forwarded to this shard since its summary was
	// last pulled. A dirty shard is never screened out of a scatter: the
	// bloom cannot know about objects added after it was built, and missing
	// a just-written object would be a wrong answer, not a wasted subquery.
	// (Writes that bypass the router are outside this guarantee; see the
	// package comment.)
	dirty atomic.Bool

	mu        sync.Mutex
	summary   *federation.Summary
	summaryAt time.Time
	polled    bool // a pull has finished, so healthy is a verdict
	healthy   bool // the last pull succeeded
	lastErr   string
}

// freshSummary returns the shard's summary when it is younger than ttl.
// A stale or missing summary means the shard cannot be screened out — the
// soft-state contract: staleness degrades to a wasted subquery, never a
// missed result.
func (b *backend) freshSummary(now time.Time, ttl time.Duration) (*federation.Summary, bool) {
	if b.dirty.Load() {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.summary == nil || now.Sub(b.summaryAt) > ttl {
		return nil, false
	}
	return b.summary, true
}

// refreshSummary pulls one discovery summary from the shard and installs it.
// The dirty flag is cleared before the pull starts — a write racing the pull
// re-marks it, so the installed summary never silently claims to cover
// writes it might predate. A failed pull restores dirty: with no fresh
// summary the shard must stay unscreenable.
func (b *backend) refreshSummary(ctx context.Context, fp float64, now func() time.Time) error {
	b.dirty.Store(false)
	var resp mcswire.DiscoverySummaryResponse
	err := b.client.Call(ctx, mcswire.DiscoverySummary.Name, nil, &mcswire.DiscoverySummaryRequest{FP: fp}, &resp)
	var sum *federation.Summary
	if err == nil {
		if sum, err = federation.Decode(&resp); err != nil {
			err = fmt.Errorf("shard %s: %w", b.name, err)
		}
	}
	if err != nil {
		b.dirty.Store(true)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.polled = true
	if err != nil {
		b.healthy, b.lastErr = false, err.Error()
		return err
	}
	b.summary, b.summaryAt, b.healthy, b.lastErr = sum, now(), true, ""
	return nil
}

// status is one backend's snapshot for /statz. Healthy is null until the
// router has pulled the shard's summary once: with polling off it never
// does, and it has no verdict to report.
type status struct {
	Endpoint       string  `json:"endpoint"`
	Healthy        *bool   `json:"healthy"`
	Forwarded      int64   `json:"forwarded"`
	Unreachable    int64   `json:"unreachable"`
	SummaryAgeSec  float64 `json:"summary_age_sec"`
	SummaryObjects int     `json:"summary_objects"`
	LastError      string  `json:"last_error,omitempty"`
}

func (b *backend) status(now time.Time) status {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := status{
		Endpoint:    b.name,
		Forwarded:   b.forwarded.Load(),
		Unreachable: b.unreachable.Load(),
		LastError:   b.lastErr,
	}
	if b.polled {
		healthy := b.healthy
		st.Healthy = &healthy
	}
	if b.summary != nil {
		st.SummaryAgeSec = now.Sub(b.summaryAt).Seconds()
		st.SummaryObjects = b.summary.Objects
	}
	return st
}
