package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcs/internal/core"
	"mcs/internal/faultinject"
	"mcs/internal/gsi"
	"mcs/internal/jsonwire"
	"mcs/internal/mcswire"
	"mcs/internal/obs"
	"mcs/internal/soap"
)

// Options configures a Router.
type Options struct {
	// Map is the shard map (required).
	Map *Map
	// FP is the bloom false-positive rate requested from shard summaries
	// (default 0.01).
	FP float64
	// SummaryInterval is the period of background summary polls. A pulled
	// summary screens queries for 3×SummaryInterval. 0 disables polling and
	// with it screening, except for summaries pulled by RefreshSummaries,
	// which then screen for 45s (tests pull that way for determinism).
	SummaryInterval time.Duration
	// CallTimeout bounds each forwarded call (default 30s).
	CallTimeout time.Duration
	// DisableMetrics turns off the registry and diagnostic endpoints.
	DisableMetrics bool
	// FaultInjector, when non-nil, injects failures into the router's own
	// wire dispatch (chaos tests of the extra hop); shard-side faults are
	// configured on the shards themselves.
	FaultInjector *faultinject.Injector
}

// Router is the stateless scatter-gather front of a sharded MCS deployment.
// It serves the same transport-neutral operation table as mcsd through the
// same request pipeline and codecs, so any MCS client — either transport,
// retries and all — works unchanged against it. It implements http.Handler.
type Router struct {
	mapp     *Map
	backends []*backend // sorted by endpoint: the deterministic shard order
	byName   map[string]*backend

	table   *mcswire.Table
	wire    *mcswire.Server
	metrics *obs.Registry

	fp          float64
	ttl         time.Duration
	interval    time.Duration
	callTimeout time.Duration
	now         func() time.Time
	started     time.Time

	// Scatter-gather observability: the fan-out distribution of executed
	// scatters, and subqueries a fresh bloom summary admitted that returned
	// nothing (false positives — the cost of soft-state routing).
	fanout  obs.SizeDist
	bloomFP atomic.Int64

	stopPoll chan struct{}
	pollDone chan struct{}
}

// NewRouter builds a router over the shard map. It performs no I/O; call
// Start (or RefreshSummaries) afterwards to begin pulling shard summaries.
func NewRouter(opts Options) (*Router, error) {
	if opts.Map == nil {
		return nil, fmt.Errorf("shard: Options.Map is required")
	}
	endpoints := opts.Map.Endpoints()
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("shard: map names no endpoints")
	}
	r := &Router{
		mapp:        opts.Map,
		byName:      make(map[string]*backend, len(endpoints)),
		fp:          opts.FP,
		ttl:         45 * time.Second,
		interval:    opts.SummaryInterval,
		callTimeout: opts.CallTimeout,
		now:         time.Now,
	}
	if r.fp <= 0 || r.fp >= 1 {
		r.fp = 0.01
	}
	if r.callTimeout <= 0 {
		r.callTimeout = 30 * time.Second
	}
	if r.interval > 0 {
		r.ttl = 3 * r.interval
	}
	r.started = r.now()
	pool := &http.Client{
		Timeout: r.callTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
		},
	}
	for _, ep := range endpoints {
		b := &backend{name: ep, client: mcswire.NewClient(ep, jsonwire.Codec{}, pool)}
		r.backends = append(r.backends, b)
		r.byName[ep] = b
	}
	if !opts.DisableMetrics {
		r.metrics = obs.NewRegistry()
		r.registerCounters()
	}
	r.table = mcswire.NewTable()
	r.buildTable()

	r.wire = mcswire.NewServer(r.table,
		mcswire.Config{Metrics: r.metrics, Faults: opts.FaultInjector},
		jsonwire.Codec{}, soap.Codec{})
	return r, nil
}

// registerCounters exposes the router-wide counters on /metrics; per-shard
// forwarded-op counts and latency render as ordinary op metrics under
// transport="shard:<endpoint>" labels, and per-shard health lives in /statz.
func (r *Router) registerCounters() {
	r.metrics.RegisterCounter("mcs_router_scatter_ops_total",
		"Cross-shard scatter-gather operations executed by the router.",
		func() int64 { return r.fanout.Count() })
	r.metrics.RegisterCounter("mcs_router_scatter_subqueries_total",
		"Shard subqueries issued by scatter-gather operations (fan-out sum).",
		func() int64 { return r.fanout.Sum() })
	r.metrics.RegisterCounter("mcs_router_scatter_fanout_max",
		"Largest scatter fan-out observed.",
		func() int64 { return r.fanout.Max() })
	r.metrics.RegisterCounter("mcs_router_bloom_fp_subqueries_total",
		"Subqueries admitted by a fresh bloom summary that matched nothing (false positives).",
		func() int64 { return r.bloomFP.Load() })
	r.metrics.RegisterCounter("mcs_router_shard_forwarded_total",
		"Operations forwarded to shards (all shards; per-shard counts in /statz).",
		func() int64 {
			var n int64
			for _, b := range r.backends {
				n += b.forwarded.Load()
			}
			return n
		})
	r.metrics.RegisterCounter("mcs_router_shard_unreachable_total",
		"Transport-level failures reaching shards.",
		func() int64 {
			var n int64
			for _, b := range r.backends {
				n += b.unreachable.Load()
			}
			return n
		})
}

// Table exposes the router's dispatch table (tests compare its op coverage
// against the server's).
func (r *Router) Table() *mcswire.Table { return r.table }

// Start begins background summary polling; with SummaryInterval 0 it does
// nothing. The first poll runs synchronously so a freshly started router
// screens queries immediately; its errors are soft (an unreachable shard
// simply stays unscreenable).
func (r *Router) Start() {
	if r.interval <= 0 || r.stopPoll != nil {
		return
	}
	r.RefreshSummaries()
	r.stopPoll = make(chan struct{})
	r.pollDone = make(chan struct{})
	go func() {
		defer close(r.pollDone)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-r.stopPoll:
				return
			case <-t.C:
				r.RefreshSummaries()
			}
		}
	}()
}

// Stop halts background polling; safe to call without Start.
func (r *Router) Stop() {
	if r.stopPoll == nil {
		return
	}
	select {
	case <-r.stopPoll:
	default:
		close(r.stopPoll)
	}
	<-r.pollDone
	r.stopPoll = nil
}

// RefreshSummaries pulls a discovery summary from every shard, in parallel,
// and returns the first error (diagnostics only — routing tolerates failed
// refreshes by treating those shards as unscreenable).
func (r *Router) RefreshSummaries() error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.backends))
	for i, b := range r.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.callTimeout)
			defer cancel()
			errs[i] = b.refreshSummary(ctx, r.fp, r.now)
		}(i, b)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// owner resolves the shard owning a logical name.
func (r *Router) owner(name string) (*backend, error) {
	ep, ok := r.mapp.Route(name)
	if !ok {
		return nil, fmt.Errorf("%w: no shard owns name %q", core.ErrInvalidInput, name)
	}
	return r.byName[ep], nil
}

// mapBackendError translates a shard-side failure for the client. A wire
// error is the shard's verdict and passes through — code and message — so
// the router's own pipeline re-encodes exactly what a direct server would
// have sent. A transport failure becomes ErrUnavailable (the shard may be
// down — retryable, and the idempotency key forwarded with the original
// attempt makes the retry safe), unless the call was cancelled: a caller
// who hung up says nothing about the shard.
func (r *Router) mapBackendError(b *backend, err error) error {
	var te *mcswire.TransportError
	if !errors.As(err, &te) || errors.Is(err, context.Canceled) {
		return err
	}
	b.unreachable.Add(1)
	return &mcswire.WireError{
		Code:    "Server.Unavailable",
		Message: fmt.Sprintf("shard %s unreachable: %v", b.name, err),
	}
}

// forwardHeaders builds the extra headers for one forwarded call: the
// client's request correlation ID and (for mutating ops) its idempotency
// key pass through verbatim, so a WithRetry client's replay reaches the
// owning shard's replay cache unchanged and the mutation applies exactly
// once across the extra hop. idemSuffix derives distinct per-shard keys for
// broadcast ops (each shard keeps its own replay cache). A CAS capability
// assertion passes through too: the shard, not the router, holds the
// community key and decides what the assertion grants.
func forwardHeaders(ctx *mcswire.Ctx, mutating bool, idemSuffix string) http.Header {
	hdr := make(http.Header, 3)
	if ctx.RequestID != "" {
		hdr.Set(obs.RequestIDHeader, ctx.RequestID)
	}
	if a := ctx.Header.Get(gsi.AssertionHeader); a != "" {
		hdr.Set(gsi.AssertionHeader, a)
	}
	if mutating && ctx.IdempotencyKey != "" {
		hdr.Set(obs.IdempotencyKeyHeader, ctx.IdempotencyKey+idemSuffix)
	}
	return hdr
}

// injectCaller overwrites the request's declared Caller with the DN the
// router authenticated, when it authenticated one. The router-to-shard hop
// runs unauthenticated (a trusted backend network), so the shard trusts the
// declared field.
func injectCaller(req any, dn string) {
	if dn == "" {
		return
	}
	v := reflect.ValueOf(req)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return
	}
	f := v.Elem().FieldByName("Caller")
	if f.IsValid() && f.Kind() == reflect.String && f.CanSet() {
		f.SetString(dn)
	}
}

// forward issues one instrumented unary call to a backend on behalf of an
// inbound request, whose context ctx is: bounded by the call timeout,
// cancelled when that request's client hangs up, counted against the
// shard, and with its failure translated for the client.
func (r *Router) forward(ctx context.Context, b *backend, op string, hdr http.Header, req, resp any) error {
	var om *obs.OpMetrics
	if r.metrics != nil {
		om = r.metrics.TransportOp("shard:"+b.name, op)
		om.Begin()
	}
	cctx, cancel := context.WithTimeout(ctx, r.callTimeout)
	defer cancel()
	start := time.Now()
	err := b.client.Call(cctx, op, hdr, req, resp)
	if om != nil {
		om.End(time.Since(start), err)
	}
	b.forwarded.Add(1)
	return r.mapBackendError(b, err)
}

// forwardStream is forward for a streamed call: rows pass to row as the
// shard produces them.
func (r *Router) forwardStream(ctx context.Context, b *backend, op string, hdr http.Header, req any,
	newRow func() any, row func(any) error) error {
	cctx, cancel := context.WithTimeout(ctx, r.callTimeout)
	defer cancel()
	err := b.client.Stream(cctx, op, hdr, req, newRow, row)
	b.forwarded.Add(1)
	return r.mapBackendError(b, err)
}

// call forwards one typed request of op to one backend and decodes the
// reply.
func call[Req, Resp any](r *Router, ctx *mcswire.Ctx, b *backend, op mcswire.Op[Req, Resp], req *Req, idemSuffix string) (*Resp, error) {
	injectCaller(req, ctx.DN)
	if op.Mutating {
		// Marked before the forward so a concurrent scatter can never screen
		// this shard out while the write is in flight...
		b.dirty.Store(true)
	}
	resp := new(Resp)
	err := r.forward(ctx.Context, b, op.Name, forwardHeaders(ctx, op.Mutating, idemSuffix), req, resp)
	if op.Mutating {
		// ...and re-marked after it returns, in case a summary refresh that
		// sampled the shard before this write committed cleared the flag
		// mid-flight.
		b.dirty.Store(true)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// route1 registers op as a single-shard forward: key extracts the logical
// name whose prefix picks the owning shard.
func route1[Req, Resp any](r *Router, op mcswire.Op[Req, Resp], key func(*Req) string) {
	mcswire.Handle(r.table, op, func(ctx *mcswire.Ctx, req *Req) (*Resp, error) {
		b, err := r.owner(key(req))
		if err != nil {
			return nil, err
		}
		return call(r, ctx, b, op, req, "")
	})
}

// broadcast registers op as an all-shards forward in deterministic shard
// order: global-namespace mutations (attribute definitions, writer and
// external-catalog registrations, global grants) replicate to every shard so
// each shard remains a self-consistent catalog. Each shard sees a distinct
// derived idempotency key; the first shard's response answers the client.
func broadcast[Req, Resp any](r *Router, op mcswire.Op[Req, Resp]) {
	mcswire.Handle(r.table, op, func(ctx *mcswire.Ctx, req *Req) (*Resp, error) {
		return broadcastCall(r, ctx, op, req)
	})
}

func broadcastCall[Req, Resp any](r *Router, ctx *mcswire.Ctx, op mcswire.Op[Req, Resp], req *Req) (*Resp, error) {
	var first *Resp
	for i, b := range r.backends {
		resp, err := call(r, ctx, b, op, req, fmt.Sprintf("#%d", i))
		if err != nil {
			// Surviving shards already applied the mutation; the derived
			// idempotency keys make the client's retry of the whole
			// broadcast safe (applied shards answer from replay cache).
			return nil, err
		}
		if first == nil {
			first = resp
		}
	}
	return first, nil
}

// pinned registers op as a forward to the first shard: read-only lookups of
// broadcast-replicated state, identical on every shard by construction.
func pinned[Req, Resp any](r *Router, op mcswire.Op[Req, Resp]) {
	mcswire.Handle(r.table, op, func(ctx *mcswire.Ctx, req *Req) (*Resp, error) {
		return call(r, ctx, r.backends[0], op, req, "")
	})
}

// buildTable registers every routed operation. Single-collection operations
// (all mutations, lookups, contents listings — the collection is already the
// authorization and transaction scope) forward to exactly one shard;
// global-namespace mutations broadcast; cross-shard reads scatter-gather
// (scatter.go). discoverySummary is deliberately not mounted: the router is
// the aggregating index that pulls summaries, not a catalog that has one.
func (r *Router) buildTable() {
	// Liveness is answered locally: the router itself is the probed service.
	mcswire.Handle(r.table, mcswire.Ping, func(ctx *mcswire.Ctx, _ *mcswire.PingRequest) (*mcswire.PingResponse, error) {
		return &mcswire.PingResponse{DN: ctx.DN}, nil
	})

	// Files route by their logical name; createFile routes by its collection
	// when one is named so the file always lands on its collection's shard.
	// Deployments name files under the same prefix as their collection (the
	// convention the shard map encodes), so both keys agree.
	route1(r, mcswire.CreateFile, func(q *mcswire.CreateFileRequest) string {
		if q.Collection != "" {
			return q.Collection
		}
		return q.Name
	})
	route1(r, mcswire.GetFile, func(q *mcswire.GetFileRequest) string { return q.Name })
	route1(r, mcswire.FileVersions, func(q *mcswire.FileVersionsRequest) string { return q.Name })
	route1(r, mcswire.UpdateFile, func(q *mcswire.UpdateFileRequest) string { return q.Name })
	route1(r, mcswire.DeleteFile, func(q *mcswire.DeleteFileRequest) string { return q.Name })
	route1(r, mcswire.AddProvenance, func(q *mcswire.AddProvenanceRequest) string { return q.Name })
	route1(r, mcswire.GetProvenance, func(q *mcswire.GetProvenanceRequest) string { return q.Name })

	// moveFile is single-shard only: collections are the transaction scope,
	// and a cross-shard move would need a distributed transaction this
	// design deliberately avoids.
	mcswire.Handle(r.table, mcswire.MoveFile, func(ctx *mcswire.Ctx, q *mcswire.MoveFileRequest) (*mcswire.MoveFileResponse, error) {
		b, err := r.owner(q.Name)
		if err != nil {
			return nil, err
		}
		if q.Collection != "" {
			dst, err := r.owner(q.Collection)
			if err != nil {
				return nil, err
			}
			if dst != b {
				return nil, fmt.Errorf("%w: cross-shard move: file %q is on %s but collection %q is on %s",
					core.ErrInvalidInput, q.Name, b.name, q.Collection, dst.name)
			}
		}
		return call(r, ctx, b, mcswire.MoveFile, q, "")
	})

	// batchWrite keeps its all-or-nothing contract by requiring every op in
	// the batch to route to one shard; the whole batch then forwards as-is.
	mcswire.Handle(r.table, mcswire.BatchWrite, func(ctx *mcswire.Ctx, q *mcswire.BatchWriteRequest) (*mcswire.BatchWriteResponse, error) {
		var b *backend
		for i, op := range q.Ops {
			key, err := batchOpKey(op)
			if err != nil {
				return nil, fmt.Errorf("%w: batch op %d: %v", core.ErrInvalidInput, i, err)
			}
			owner, err := r.owner(key)
			if err != nil {
				return nil, err
			}
			if b == nil {
				b = owner
			} else if owner != b {
				return nil, fmt.Errorf("%w: batch spans shards: op %d (%q) routes to %s, earlier ops to %s — split the batch per shard",
					core.ErrInvalidInput, i, key, owner.name, b.name)
			}
		}
		if b == nil {
			b = r.backends[0] // empty batch: any shard validates it
		}
		return call(r, ctx, b, mcswire.BatchWrite, q, "")
	})

	// Collections route by name; contents listings are single-shard because
	// a collection subtree never spans shards.
	route1(r, mcswire.CreateCollection, func(q *mcswire.CreateCollectionRequest) string { return q.Name })
	route1(r, mcswire.GetCollection, func(q *mcswire.GetCollectionRequest) string { return q.Name })
	route1(r, mcswire.DeleteCollection, func(q *mcswire.DeleteCollectionRequest) string { return q.Name })
	route1(r, mcswire.CollectionContentsPage, func(q *mcswire.CollectionContentsPageRequest) string { return q.Name })
	r.registerCollectionContents()

	// Views route by view name and are single-shard; deployments name a view
	// under the prefix of the objects it aggregates.
	route1(r, mcswire.CreateView, func(q *mcswire.CreateViewRequest) string { return q.Name })
	route1(r, mcswire.DeleteView, func(q *mcswire.DeleteViewRequest) string { return q.Name })
	route1(r, mcswire.ViewContents, func(q *mcswire.ViewContentsRequest) string { return q.Name })
	route1(r, mcswire.ExpandView, func(q *mcswire.ExpandViewRequest) string { return q.Name })
	route1(r, mcswire.AddToView, func(q *mcswire.AddToViewRequest) string { return q.View })
	route1(r, mcswire.RemoveFromView, func(q *mcswire.RemoveFromViewRequest) string { return q.View })

	// Attribute bindings, annotations and audit trails live with the object.
	route1(r, mcswire.SetAttribute, func(q *mcswire.SetAttributeRequest) string { return q.Object })
	route1(r, mcswire.UnsetAttribute, func(q *mcswire.UnsetAttributeRequest) string { return q.Object })
	route1(r, mcswire.GetAttributes, func(q *mcswire.GetAttributesRequest) string { return q.Object })
	route1(r, mcswire.Annotate, func(q *mcswire.AnnotateRequest) string { return q.Object })
	route1(r, mcswire.GetAnnotations, func(q *mcswire.GetAnnotationsRequest) string { return q.Object })
	route1(r, mcswire.AuditLog, func(q *mcswire.AuditLogRequest) string { return q.Object })

	// Object-scoped grants route with the object; global grants (Object "")
	// are namespace-wide policy and broadcast like other global mutations.
	objectScoped(r, mcswire.Grant, func(q *mcswire.GrantRequest) string { return q.Object })
	objectScoped(r, mcswire.Revoke, func(q *mcswire.RevokeRequest) string { return q.Object })

	// Global-namespace mutations broadcast; their read-backs pin to the
	// first shard (replicated state is identical everywhere).
	broadcast(r, mcswire.DefineAttribute)
	broadcast(r, mcswire.RegisterWriter)
	broadcast(r, mcswire.RegisterExternalCatalog)
	pinned(r, mcswire.ListAttributeDefs)
	pinned(r, mcswire.GetWriter)
	pinned(r, mcswire.ListExternalCatalogs)

	// Cross-shard reads scatter-gather.
	r.registerScatterOps()
}

// objectScoped registers op (grant or revoke) keyed by its object when one
// is named, broadcast when it is global. object reads the request's object.
func objectScoped[Req, Resp any](r *Router, op mcswire.Op[Req, Resp], object func(*Req) string) {
	mcswire.Handle(r.table, op, func(ctx *mcswire.Ctx, req *Req) (*Resp, error) {
		if object(req) == "" {
			return broadcastCall(r, ctx, op, req)
		}
		b, err := r.owner(object(req))
		if err != nil {
			return nil, err
		}
		return call(r, ctx, b, op, req, "")
	})
}

// registerCollectionContents mounts collectionContents with both the unary
// and the streamed (NDJSON passthrough) paths.
func (r *Router) registerCollectionContents() {
	op := mcswire.CollectionContents
	mcswire.HandleStream(r.table, op, func(ctx *mcswire.Ctx, q *mcswire.CollectionContentsRequest) (*mcswire.CollectionContentsResponse, error) {
		b, err := r.owner(q.Name)
		if err != nil {
			return nil, err
		}
		return call(r, ctx, b, op, q, "")
	}, func(ctx *mcswire.Ctx, q *mcswire.CollectionContentsRequest, emit func(row any) error) error {
		b, err := r.owner(q.Name)
		if err != nil {
			return err
		}
		injectCaller(q, ctx.DN)
		return r.forwardStream(ctx.Context, b, op.Name, forwardHeaders(ctx, op.Mutating, ""), q,
			func() any { return new(mcswire.ContentsRow) }, emit)
	})
}

// batchOpKey extracts the routing name of one batched mutation.
func batchOpKey(op mcswire.WireBatchOp) (string, error) {
	switch {
	case op.Create != nil:
		if op.Create.Collection != "" {
			return op.Create.Collection, nil
		}
		return op.Create.Name, nil
	case op.Update != nil:
		return op.Update.Name, nil
	case op.Delete != nil:
		return op.Delete.Name, nil
	case op.SetAttr != nil:
		return op.SetAttr.Object, nil
	case op.Annotate != nil:
		return op.Annotate.Object, nil
	}
	return "", fmt.Errorf("empty batch op")
}

// ServeHTTP routes diagnostics, then both wires through the request
// pipeline — the same surface a single mcsd presents, so clients and probes
// need no router-specific configuration.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if r.metrics != nil {
		switch req.URL.Path {
		case "/metrics":
			r.serveMetrics(w, req)
			return
		case "/healthz":
			r.serveHealthz(w, req)
			return
		case "/statz":
			r.serveStatz(w, req)
			return
		}
	}
	r.wire.ServeHTTP(w, req)
}

func (r *Router) serveMetrics(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		r.metrics.WriteJSON(w) //nolint:errcheck // best-effort response write
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.metrics.WritePrometheus(w) //nolint:errcheck // best-effort response write
}

// serveHealthz probes every shard with a cheap ping. The router is healthy
// while at least one shard answers — single-shard operations on surviving
// shards keep succeeding — and reports "degraded" with the unreachable
// endpoints listed; it only goes 503 when no shard answers at all.
func (r *Router) serveHealthz(w http.ResponseWriter, req *http.Request) {
	down := r.probeShards(req.Context())
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case len(down) == 0:
		io.WriteString(w, "ok\n") //nolint:errcheck // best-effort response write
	case len(down) < len(r.backends):
		fmt.Fprintf(w, "degraded: unreachable shards: %s\n", strings.Join(down, ", "))
	default:
		http.Error(w, fmt.Sprintf("all shards unreachable: %s", strings.Join(down, ", ")),
			http.StatusServiceUnavailable)
	}
}

// probeShards pings every shard concurrently and returns the endpoints that
// failed to answer.
func (r *Router) probeShards(ctx context.Context) []string {
	errs := make([]error, len(r.backends))
	var wg sync.WaitGroup
	for i, b := range r.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			errs[i] = b.client.Call(ctx, mcswire.Ping.Name, nil, &mcswire.PingRequest{}, &mcswire.PingResponse{})
		}(i, b)
	}
	wg.Wait()
	var down []string
	for i, err := range errs {
		if err != nil {
			down = append(down, r.backends[i].name)
		}
	}
	return down
}

func (r *Router) serveStatz(w http.ResponseWriter, _ *http.Request) {
	now := r.now()
	shards := make([]status, len(r.backends))
	for i, b := range r.backends {
		shards[i] = b.status(now)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct { //nolint:errcheck // best-effort response write
		Role                string   `json:"role"`
		UptimeSeconds       int64    `json:"uptime_seconds"`
		Shards              []status `json:"shards"`
		ScatterOps          int64    `json:"scatter_ops"`
		ScatterSubqueries   int64    `json:"scatter_subqueries"`
		ScatterFanoutMax    int64    `json:"scatter_fanout_max"`
		ScatterFanoutMean   float64  `json:"scatter_fanout_mean"`
		BloomFalsePositives int64    `json:"bloom_fp_subqueries"`
	}{
		Role:                "router",
		UptimeSeconds:       int64(now.Sub(r.started).Seconds()),
		Shards:              shards,
		ScatterOps:          r.fanout.Count(),
		ScatterSubqueries:   r.fanout.Sum(),
		ScatterFanoutMax:    r.fanout.Max(),
		ScatterFanoutMean:   r.fanout.Mean(),
		BloomFalsePositives: r.bloomFP.Load(),
	})
}
