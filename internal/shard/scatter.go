package shard

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mcs/internal/core"
	"mcs/internal/mcswire"
)

// candidate is one shard selected for a scatter: screened marks backends a
// fresh bloom summary positively admitted (so an empty result counts as a
// bloom false positive in the metrics).
type candidate struct {
	b        *backend
	screened bool
}

// screenQuery selects the shards a discovery query must visit. Shards whose
// fresh bloom summary proves "no object here can match" are screened out;
// everything else — stale summary, missing summary, unscreenable predicate
// shape — is included. Summaries index file attribute pairs only, so only
// file-target queries screen at all. A predicate that fails to parse
// disables screening entirely: every shard then reproduces exactly the
// invalid-input error a direct server would report, so the router's own
// parse error is not needed.
func (r *Router) screenQuery(target string, preds []mcswire.WirePredicate) []candidate {
	q, err := mcswire.QueryFromWire(target, 0, preds)
	screenable := err == nil && (target == "" || target == string(core.ObjectFile))
	now := r.now()
	cands := make([]candidate, 0, len(r.backends))
	for _, b := range r.backends {
		if screenable {
			if sum, ok := b.freshSummary(now, r.ttl); ok {
				if !sum.MayMatch(q) {
					continue
				}
				cands = append(cands, candidate{b: b, screened: true})
				continue
			}
		}
		cands = append(cands, candidate{b: b})
	}
	return cands
}

// partialError reports a scatter that lost one or more shards while others
// answered. It unwraps to mcswire.ErrPartialResult only — deliberately NOT
// to the per-shard cause — so a partial result is never mistaken for a
// retryable transport failure (retrying cannot conjure the dead shard's
// rows) and maps to the PartialResult wire code, not the cause's.
type partialError struct {
	failed []string // shard endpoints that failed
	cause  error    // first shard error, for the message
}

func (e *partialError) Error() string {
	return fmt.Sprintf("%v: shards %s failed: %v",
		mcswire.ErrPartialResult, strings.Join(e.failed, ", "), e.cause)
}

func (e *partialError) Unwrap() error { return mcswire.ErrPartialResult }

// gather resolves a scatter's errors. All-shards-failed with one shared
// sentinel keeps the shards' verdict (a total Unavailable outage stays
// retryable, a unanimous Denied stays Denied); a mixed or partial failure
// becomes ErrPartialResult.
func (r *Router) gather(cands []candidate, errs []error) error {
	var failed []string
	var firstErr error
	sameCode, code := true, ""
	for i, err := range errs {
		if err == nil {
			continue
		}
		failed = append(failed, cands[i].b.name)
		if firstErr == nil {
			firstErr = err
			code = mcswire.CodeForError(err)
		} else if mcswire.CodeForError(err) != code {
			sameCode = false
		}
	}
	if firstErr == nil {
		return nil
	}
	if len(failed) == len(cands) && sameCode && code != "" {
		return firstErr
	}
	return &partialError{failed: failed, cause: firstErr}
}

// scatterCall is the common unary scatter body: inject the authenticated
// caller once, fan out concurrently, account bloom false positives via
// empty, then gather errors. resps[i]/errs[i] belong to cands[i].
func scatterCall[Req, Resp any](r *Router, ctx *mcswire.Ctx, op string, req *Req, cands []candidate, empty func(*Resp) bool) ([]*Resp, error) {
	injectCaller(req, ctx.DN)
	hdr := forwardHeaders(ctx, op, "")
	resps := make([]*Resp, len(cands))
	errs := make([]error, len(cands))
	var wg sync.WaitGroup
	for i, c := range cands {
		wg.Add(1)
		go func(i int, c candidate) {
			defer wg.Done()
			resps[i] = new(Resp)
			errs[i] = r.forward(ctx.Context, c.b, op, hdr, req, resps[i])
		}(i, c)
	}
	wg.Wait()
	r.fanout.Observe(len(cands))
	for i, resp := range resps {
		if errs[i] == nil && cands[i].screened && empty(resp) {
			r.bloomFP.Add(1)
		}
	}
	if err := r.gather(cands, errs); err != nil {
		return nil, err
	}
	return resps, nil
}

// registerScatterOps mounts the cross-shard reads: query (unary + streamed),
// queryAttrs, queryPage, listCollections and stats.
func (r *Router) registerScatterOps() {
	r.table.Register(mcswire.Handler{
		Name: "query",
		New:  func() any { return new(mcswire.QueryRequest) },
		Call: func(ctx *mcswire.Ctx, req any) (any, error) {
			q := req.(*mcswire.QueryRequest)
			cands := r.screenQuery(q.Target, q.Predicates)
			resps, err := scatterCall[mcswire.QueryRequest, mcswire.QueryResponse](
				r, ctx, "query", q, cands,
				func(resp *mcswire.QueryResponse) bool { return len(resp.Names) == 0 })
			if err != nil {
				return nil, err
			}
			// Shards are disjoint, so the union has no duplicates; each shard
			// applied Limit locally, so the union is a superset of the global
			// top-Limit and truncating the sorted union is exact.
			var names []string
			for _, resp := range resps {
				names = append(names, resp.Names...)
			}
			sort.Strings(names)
			if q.Limit > 0 && len(names) > q.Limit {
				names = names[:q.Limit]
			}
			return &mcswire.QueryResponse{Names: names}, nil
		},
		Stream: func(ctx *mcswire.Ctx, req any, emit func(row any) error) error {
			return r.streamQuery(ctx, req.(*mcswire.QueryRequest), emit)
		},
	})

	r.table.Register(mcswire.Handler{
		Name: "queryAttrs",
		New:  func() any { return new(mcswire.QueryAttrsRequest) },
		Call: func(ctx *mcswire.Ctx, req any) (any, error) {
			q := req.(*mcswire.QueryAttrsRequest)
			cands := r.screenQuery(q.Target, q.Predicates)
			resps, err := scatterCall[mcswire.QueryAttrsRequest, mcswire.QueryAttrsResponse](
				r, ctx, "queryAttrs", q, cands,
				func(resp *mcswire.QueryAttrsResponse) bool { return len(resp.Results) == 0 })
			if err != nil {
				return nil, err
			}
			var results []mcswire.WireQueryResult
			for _, resp := range resps {
				results = append(results, resp.Results...)
			}
			sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
			if q.Limit > 0 && len(results) > q.Limit {
				results = results[:q.Limit]
			}
			return &mcswire.QueryAttrsResponse{Results: results}, nil
		},
	})

	// listCollections scatters unscreened: its LIKE pattern is opaque to
	// bloom summaries (which index attribute pairs, not name shapes).
	r.table.Register(mcswire.Handler{
		Name: "listCollections",
		New:  func() any { return new(mcswire.ListCollectionsRequest) },
		Call: func(ctx *mcswire.Ctx, req any) (any, error) {
			q := req.(*mcswire.ListCollectionsRequest)
			cands := r.allCandidates()
			resps, err := scatterCall[mcswire.ListCollectionsRequest, mcswire.ListCollectionsResponse](
				r, ctx, "listCollections", q, cands,
				func(resp *mcswire.ListCollectionsResponse) bool { return len(resp.Names) == 0 })
			if err != nil {
				return nil, err
			}
			var names []string
			for _, resp := range resps {
				names = append(names, resp.Names...)
			}
			sort.Strings(names)
			return &mcswire.ListCollectionsResponse{Names: names}, nil
		},
	})

	// stats sums per-shard row counts, except AttrDefs: attribute
	// definitions are broadcast-replicated to every shard, so the first
	// shard's count is the deployment's count — summing would multiply it.
	r.table.Register(mcswire.Handler{
		Name: "stats",
		New:  func() any { return new(mcswire.StatsRequest) },
		Call: func(ctx *mcswire.Ctx, req any) (any, error) {
			q := req.(*mcswire.StatsRequest)
			cands := r.allCandidates()
			resps, err := scatterCall[mcswire.StatsRequest, mcswire.StatsResponse](
				r, ctx, "stats", q, cands,
				func(*mcswire.StatsResponse) bool { return false })
			if err != nil {
				return nil, err
			}
			out := &mcswire.StatsResponse{AttrDefs: resps[0].AttrDefs}
			for _, resp := range resps {
				out.Files += resp.Files
				out.Collections += resp.Collections
				out.Views += resp.Views
				out.Attributes += resp.Attributes
			}
			return out, nil
		},
	})

	r.table.Register(mcswire.Handler{
		Name: "queryPage",
		New:  func() any { return new(mcswire.QueryPageRequest) },
		Call: func(ctx *mcswire.Ctx, req any) (any, error) {
			return r.queryPage(ctx, req.(*mcswire.QueryPageRequest))
		},
	})
}

// allCandidates returns every backend, unscreened.
func (r *Router) allCandidates() []candidate {
	cands := make([]candidate, len(r.backends))
	for i, b := range r.backends {
		cands[i] = candidate{b: b}
	}
	return cands
}

// --- Composed pagination ---

// pageToken is the router's composed continuation token: which shard (by
// index into the deterministic sorted-endpoint order) the scan is on, plus
// that shard's own opaque token. Shard tokens are stateless cursor
// encodings, so a composed token survives both shard and router restarts.
type pageToken struct {
	Shard int    `json:"s"`
	Inner string `json:"t,omitempty"`
}

func encodePageToken(t pageToken) string {
	raw, _ := json.Marshal(t)
	return base64.URLEncoding.EncodeToString(raw)
}

func decodePageToken(s string) (pageToken, error) {
	var t pageToken
	raw, err := base64.URLEncoding.DecodeString(s)
	if err == nil {
		err = json.Unmarshal(raw, &t)
	}
	if err != nil {
		return pageToken{}, fmt.Errorf("%w: malformed page token", core.ErrInvalidInput)
	}
	return t, nil
}

// queryPage walks the shards in deterministic order, one shard at a time,
// composing each shard's continuation token into the router's own. Pages
// arrive shard-grouped rather than globally sorted; a full iteration yields
// exactly the union of the shards' results.
func (r *Router) queryPage(ctx *mcswire.Ctx, q *mcswire.QueryPageRequest) (*mcswire.QueryPageResponse, error) {
	tok := pageToken{}
	if q.Token != "" {
		var err error
		if tok, err = decodePageToken(q.Token); err != nil {
			return nil, err
		}
	}
	if tok.Shard < 0 || tok.Shard >= len(r.backends) {
		return nil, fmt.Errorf("%w: page token names shard %d of %d", core.ErrInvalidInput, tok.Shard, len(r.backends))
	}
	for {
		b := r.backends[tok.Shard]
		fwd := *q
		fwd.Token = tok.Inner
		resp, err := call[mcswire.QueryPageResponse](r, ctx, b, "queryPage", &fwd, "")
		if err != nil {
			return nil, err
		}
		if resp.Next != "" {
			return &mcswire.QueryPageResponse{
				Names: resp.Names,
				Next:  encodePageToken(pageToken{Shard: tok.Shard, Inner: resp.Next}),
			}, nil
		}
		// This shard is exhausted; hand the scan to the next one.
		if tok.Shard+1 < len(r.backends) {
			if len(resp.Names) > 0 {
				return &mcswire.QueryPageResponse{
					Names: resp.Names,
					Next:  encodePageToken(pageToken{Shard: tok.Shard + 1}),
				}, nil
			}
			// Empty final page: advance immediately rather than returning a
			// zero-row page mid-scan.
			tok = pageToken{Shard: tok.Shard + 1}
			continue
		}
		return &mcswire.QueryPageResponse{Names: resp.Names}, nil
	}
}

// streamQuery serves the streamed query by merging the shards' individually
// sorted streams into one globally sorted stream, row by row.
func (r *Router) streamQuery(ctx *mcswire.Ctx, q *mcswire.QueryRequest, emit func(row any) error) error {
	cands := r.screenQuery(q.Target, q.Predicates)
	injectCaller(q, ctx.DN)
	hdr := forwardHeaders(ctx, "query", "")

	// Stream without a limit shard-side: the global limit can only be
	// applied after the merge (any one shard might hold all the winners).
	fwd := *q
	fwd.Limit = 0

	cctx, cancel := context.WithCancel(ctx.Context)
	defer cancel()

	chans := make([]chan string, len(cands))
	errs := make([]error, len(cands))
	counts := make([]int, len(cands))
	var wg sync.WaitGroup
	for i, c := range cands {
		chans[i] = make(chan string, 64)
		wg.Add(1)
		go func(i int, c candidate) {
			defer wg.Done()
			defer close(chans[i])
			err := r.forwardStream(cctx, c.b, "query", hdr, &fwd,
				func() any { return new(mcswire.QueryRow) },
				func(row any) error {
					select {
					case chans[i] <- row.(*mcswire.QueryRow).Name:
						counts[i]++
						return nil
					case <-cctx.Done():
						return cctx.Err()
					}
				})
			// This write precedes the deferred close(chans[i]), so the merge
			// loop observing the close also observes the error.
			if cctx.Err() == nil {
				errs[i] = err
			}
		}(i, c)
	}
	r.fanout.Observe(len(cands))

	// Linear-scan k-way merge: per-shard streams are name-sorted, so the
	// smallest head across shards is the globally next row.
	heads := make([]*string, len(cands))
	open := make([]bool, len(cands))
	for i := range cands {
		open[i] = true
	}
	sent := 0
	for {
		minIdx := -1
		for i := range cands {
			if heads[i] == nil && open[i] {
				name, ok := <-chans[i]
				if !ok {
					open[i] = false
					continue
				}
				heads[i] = &name
			}
			if heads[i] != nil && (minIdx == -1 || *heads[i] < *heads[minIdx]) {
				minIdx = i
			}
		}
		if minIdx == -1 {
			break
		}
		if err := emit(mcswire.QueryRow{Name: *heads[minIdx]}); err != nil {
			cancel()
			wg.Wait()
			return err
		}
		heads[minIdx] = nil
		sent++
		if q.Limit > 0 && sent >= q.Limit {
			// Limit reached: tear the remaining shard streams down; their
			// cancellation errors are expected, not failures.
			cancel()
			wg.Wait()
			return nil
		}
	}
	wg.Wait()
	// All streams closed; surface shard failures and count bloom FPs.
	for i, c := range cands {
		if errs[i] == nil && c.screened && counts[i] == 0 {
			r.bloomFP.Add(1)
		}
	}
	return r.gather(cands, errs)
}
