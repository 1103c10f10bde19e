// Package mcs is the public API of the Metadata Catalog Service
// reproduction: an embeddable catalog engine, a SOAP-over-HTTP server, and a
// typed client — the Go equivalent of the paper's Tomcat/Axis service and
// its generated Java client library.
//
// Quick start:
//
//	srv, _ := mcs.NewServer(mcs.ServerOptions{})
//	ln, _ := net.Listen("tcp", "127.0.0.1:0")
//	go http.Serve(ln, srv)
//	client := mcs.NewClient("http://"+ln.Addr().String(), "/O=Grid/CN=me")
//	client.CreateFile(mcs.FileSpec{Name: "run42.dat"})
package mcs

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"mcs/internal/core"
	"mcs/internal/faultinject"
	"mcs/internal/federation"
	"mcs/internal/gsi"
	"mcs/internal/jsonwire"
	"mcs/internal/mcswire"
	"mcs/internal/obs"
	"mcs/internal/soap"
	"mcs/internal/sqldb"
)

// Re-exported write-ahead-log types (see Catalog.OpenWAL): the daemon opens
// and checkpoints the log; embedders get per-commit durability the same way.
type (
	// WAL is the catalog's write-ahead log, opened with Catalog.OpenWAL.
	WAL = sqldb.WAL
	// WALOptions configures a WAL (sync policy).
	WALOptions = sqldb.WALOptions
	// WALStats reports WAL counters (appends, fsyncs, replayed records).
	WALStats = sqldb.WALStats
	// WALReplayStats reports what recovery found in the log at open.
	WALReplayStats = sqldb.ReplayStats
	// WALFault is an injected WAL failure (chaos harness).
	WALFault = sqldb.WALFault
)

// Re-exported core types, so downstream users only import this package.
type (
	// Catalog is the embedded MCS engine (usable without the web service).
	Catalog = core.Catalog
	// Options configures an embedded Catalog.
	Options = core.Options
	// FileSpec describes a logical file to create.
	FileSpec = core.FileSpec
	// CollectionSpec describes a logical collection to create.
	CollectionSpec = core.CollectionSpec
	// ViewSpec describes a logical view to create.
	ViewSpec = core.ViewSpec
	// File is logical-file static metadata.
	File = core.File
	// Collection is logical-collection metadata.
	Collection = core.Collection
	// View is logical-view metadata.
	View = core.View
	// ViewMember is one element of a view.
	ViewMember = core.ViewMember
	// Attribute is a user-defined attribute binding.
	Attribute = core.Attribute
	// AttributeDef is a user-defined attribute declaration.
	AttributeDef = core.AttributeDef
	// AttrValue is a typed user-defined attribute value.
	AttrValue = core.AttrValue
	// AttrType enumerates attribute value types.
	AttrType = core.AttrType
	// ObjectType distinguishes files, collections and views.
	ObjectType = core.ObjectType
	// Query is an attribute-based discovery request.
	Query = core.Query
	// Predicate is one query constraint.
	Predicate = core.Predicate
	// Op is a query comparison operator.
	Op = core.Op
	// Permission names one right on an object.
	Permission = core.Permission
	// Annotation is a free-text note on an object.
	Annotation = core.Annotation
	// ProvenanceRecord is one transformation-history entry.
	ProvenanceRecord = core.ProvenanceRecord
	// AuditRecord is one audit-log entry.
	AuditRecord = core.AuditRecord
	// Writer is a metadata-writer contact record.
	Writer = core.Writer
	// ExternalCatalog points at another metadata catalog.
	ExternalCatalog = core.ExternalCatalog
	// FileUpdate selects static file attributes to modify.
	FileUpdate = core.FileUpdate
	// BatchOp is one mutation inside a BatchWrite.
	BatchOp = core.BatchOp
	// BatchFileUpdate is a batched file update (name + FileUpdate).
	BatchFileUpdate = core.BatchFileUpdate
	// BatchFileRef identifies a file version for a batched delete.
	BatchFileRef = core.BatchFileRef
	// BatchSetAttribute is a batched attribute binding.
	BatchSetAttribute = core.BatchSetAttribute
	// BatchAnnotation is a batched annotation.
	BatchAnnotation = core.BatchAnnotation
	// BatchResult reports one op's outcome in a committed batch.
	BatchResult = core.BatchResult
	// Stats reports catalog row counts.
	Stats = core.Stats
	// QueryResult couples a matched logical name with requested attributes.
	QueryResult = core.QueryResult
)

// Attribute value constructors and helpers, re-exported.
var (
	String    = core.String
	Int       = core.Int
	Float     = core.Float
	Date      = core.Date
	TimeOfDay = core.TimeOfDay
	DateTime  = core.DateTime
	// ParseAttrValue parses the Render()ed form of an attribute value.
	ParseAttrValue = core.ParseAttrValue
)

// Object types, attribute types, operators and permissions.
const (
	ObjectFile       = core.ObjectFile
	ObjectCollection = core.ObjectCollection
	ObjectView       = core.ObjectView
	ObjectService    = core.ObjectService

	AttrString   = core.AttrString
	AttrInt      = core.AttrInt
	AttrFloat    = core.AttrFloat
	AttrDate     = core.AttrDate
	AttrTime     = core.AttrTime
	AttrDateTime = core.AttrDateTime

	OpEq   = core.OpEq
	OpNe   = core.OpNe
	OpLt   = core.OpLt
	OpLe   = core.OpLe
	OpGt   = core.OpGt
	OpGe   = core.OpGe
	OpLike = core.OpLike

	PermRead     = core.PermRead
	PermWrite    = core.PermWrite
	PermCreate   = core.PermCreate
	PermDelete   = core.PermDelete
	PermAnnotate = core.PermAnnotate
)

// Sentinel errors, re-exported.
var (
	ErrNotFound      = core.ErrNotFound
	ErrExists        = core.ErrExists
	ErrDenied        = core.ErrDenied
	ErrInvalidInput  = core.ErrInvalidInput
	ErrCycle         = core.ErrCycle
	ErrNotEmpty      = core.ErrNotEmpty
	ErrAmbiguousFile = core.ErrAmbiguousFile
	ErrUnavailable   = core.ErrUnavailable
	// ErrPartialResult is returned by the shard router when a scatter-gather
	// operation could not reach every shard it needed.
	ErrPartialResult = mcswire.ErrPartialResult
)

// Fault-injection surface, re-exported so chaos harnesses and operators only
// import this package. A FaultInjector built from rules (literal or parsed
// from a -fault-spec string) is handed to ServerOptions.FaultInjector; the
// server then injects deterministic, seed-reproducible failures at four
// sites: SOAP dispatch, post-handler (reply lost after commit — the case
// idempotency keys exist for), the HTTP transport, and individual database
// statements.
type (
	// FaultInjector decides, deterministically per (site, op, call), whether
	// a request suffers an injected fault.
	FaultInjector = faultinject.Injector
	// FaultRule is one injection rule (site, kind, and selection gates).
	FaultRule = faultinject.Rule
	// FaultSite names a code location faults can be injected at.
	FaultSite = faultinject.Site
	// FaultKind names a failure mode (error, latency, drop, partial).
	FaultKind = faultinject.Kind
)

// Fault sites and kinds, re-exported.
const (
	FaultSiteDispatch  = faultinject.SiteDispatch
	FaultSiteAfter     = faultinject.SiteAfter
	FaultSiteTransport = faultinject.SiteTransport
	FaultSiteDB        = faultinject.SiteDB
	FaultSiteWAL       = faultinject.SiteWAL

	FaultKindError   = faultinject.KindError
	FaultKindLatency = faultinject.KindLatency
	FaultKindDrop    = faultinject.KindDrop
	FaultKindPartial = faultinject.KindPartial
)

// NewFaultInjector builds a deterministic injector from a seed and rules.
var NewFaultInjector = faultinject.New

// ParseFaultSpec parses the -fault-spec rule syntax, e.g.
// "site=dispatch,kind=error,op=createFile,calls=1-3".
var ParseFaultSpec = faultinject.ParseSpec

// OpOption threads per-call settings (request ID, idempotency key) into an
// embedded Catalog mutation, as the SOAP layer does for remote callers.
type OpOption = core.OpOption

// WithRequestID tags a catalog mutation with a correlation ID (audit trail,
// slow-op log).
var WithRequestID = core.WithRequestID

// WithIdempotencyKey marks a catalog mutation replayable: a retry carrying
// the same key returns the recorded response instead of applying twice.
var WithIdempotencyKey = core.WithIdempotencyKey

// OpenCatalog creates an embedded catalog engine (no web service).
func OpenCatalog(opts Options) (*Catalog, error) { return core.Open(opts) }

// RestoreCatalog opens a catalog from a snapshot stream previously written
// with Catalog.Snapshot (daemon restart durability).
var RestoreCatalog = core.Restore

// CASIntegration configures Community Authorization Service support — the
// integration the paper lists as modeled but unimplemented ("we will
// integrate the MCS with the Community Authorization Service"). A request
// carrying a valid CAS assertion (header gsi.AssertionHeader) whose subject
// matches the caller and whose scope and rights cover the operation runs as
// the community identity, to which the catalog administrator grants the
// community's coarse-grained rights. Fine-grained per-member policy lives
// at the CAS, exactly as in the CAS paper's model.
type CASIntegration struct {
	// Community is the expected community name of assertions.
	Community string
	// Key validates assertion signatures (cas.PublicKey()).
	Key ed25519.PublicKey
	// CommunityDN is the catalog identity community operations run as.
	CommunityDN string
}

// ObsOptions configures the server's observability layer. Dispatch
// instrumentation is always on; the zero value also serves the /metrics,
// /healthz and /statz endpoints, with the slow-operation log off.
type ObsOptions struct {
	// DisableEndpoints removes the /metrics, /healthz and /statz HTTP
	// endpoints, leaving only the SOAP endpoint.
	DisableEndpoints bool
	// SlowOpThreshold logs operations slower than this, with their request
	// ID and caller DN, to SlowOpLogger. Zero disables the slow-op log.
	SlowOpThreshold time.Duration
	// SlowOpLogger receives slow-op lines; nil uses the process default
	// logger.
	SlowOpLogger *log.Logger
}

// ServerOptions configures an MCS server.
type ServerOptions struct {
	// Catalog embeds an existing catalog; nil opens a fresh one with
	// CatalogOptions.
	Catalog *Catalog
	// CatalogOptions configures the catalog opened when Catalog is nil.
	CatalogOptions Options
	// TrustStore enables GSI authentication of requests when non-nil.
	TrustStore *gsi.TrustStore
	// CAS enables Community Authorization Service assertions when non-nil.
	CAS *CASIntegration
	// Obs configures metrics, diagnostic endpoints and the slow-op log.
	Obs ObsOptions
	// FaultInjector, when non-nil, injects deterministic failures into
	// dispatch, reply writing, the HTTP transport and database statements —
	// the chaos-testing harness. Production servers leave it nil; there is
	// no injection code on any hot path when disabled.
	FaultInjector *FaultInjector
	// WAL, when non-nil, is the catalog's write-ahead log (already opened
	// and attached via Catalog.OpenWAL). The server only observes it —
	// wal_appends/wal_fsyncs/wal_replayed counters on /metrics and /statz —
	// and routes "wal"-site fault-injection rules into it.
	WAL *WAL
}

// Server is the MCS web service: the SOAP endpoint at / and the compact
// JSON wire under /api/v1/, one request pipeline in front of a Catalog. It
// implements http.Handler.
//
// Unless disabled via ObsOptions, the handler also serves:
//
//	/metrics — per-operation request/error counts, in-flight gauges and
//	           latency histograms; Prometheus text format by default,
//	           expvar-style JSON with ?format=json
//	/healthz — liveness probe (checks the catalog answers queries)
//	/statz   — catalog row counts (Catalog.Stats) as JSON
type Server struct {
	catalog   *Catalog
	cas       *CASIntegration
	metrics   *obs.Registry
	slow      *obs.SlowOpLog
	faults    *faultinject.Injector
	wal       *WAL
	table     *mcswire.Table
	wire      *mcswire.Server
	endpoints bool
	started   time.Time

	// What RecordCheckpoint has been told.
	ckptCount, ckptNanos, ckptBytes atomic.Int64
	ckptLast                        atomic.Pointer[checkpointReport]
}

// checkpointReport is one checkpoint as RecordCheckpoint was told of it.
type checkpointReport struct {
	lsn         uint64
	bytes       int64
	total, dump time.Duration
	err         error
	at          time.Time
}

// RecordCheckpoint publishes one finished checkpoint as whoever runs
// checkpoints (mcsd) saw it: a snapshot covering lsn, bytes long, written in
// total of which Catalog.Snapshot took dump, or failed with err. It feeds
// mcs_checkpoints_total, mcs_checkpoint_seconds_total and mcs_snapshot_bytes
// on /metrics and becomes last_checkpoint on /statz.
func (s *Server) RecordCheckpoint(lsn uint64, bytes int64, total, dump time.Duration, err error) {
	s.ckptNanos.Add(int64(total))
	if err == nil {
		s.ckptCount.Add(1)
		s.ckptBytes.Store(bytes)
	}
	s.ckptLast.Store(&checkpointReport{lsn, bytes, total, dump, err, time.Now()})
}

// FaultInjector returns the server's fault injector, or nil when chaos
// testing is not configured.
func (s *Server) FaultInjector() *FaultInjector { return s.faults }

// Catalog returns the server's underlying catalog engine.
func (s *Server) Catalog() *Catalog { return s.catalog }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// SlowOps returns the server's slow-operation log, or nil when disabled.
func (s *Server) SlowOps() *obs.SlowOpLog { return s.slow }

// Table returns the transport-neutral dispatch table: every catalog
// operation, registered exactly once and served over both wires.
func (s *Server) Table() *mcswire.Table { return s.table }

// caller resolves the effective identity of a request: the authenticated
// GSI DN when available, otherwise the client-declared identity (the mode
// the paper's scalability study ran in). When CAS integration is on and
// the request bears a valid assertion for this caller covering (right,
// resource), the operation runs as the community identity instead.
func (s *Server) caller(ctx *mcswire.Ctx, declared string, right gsi.Right, resource string) string {
	dn := ctx.DN
	if dn == "" {
		dn = declared
	}
	if dn == "" {
		dn = "anonymous"
	}
	if s.cas == nil {
		return dn
	}
	encoded := ctx.Header.Get(gsi.AssertionHeader)
	if encoded == "" {
		return dn
	}
	a, err := gsi.DecodeAssertion(encoded, s.cas.Key)
	if err != nil || a.Community != s.cas.Community || a.Subject != dn {
		return dn
	}
	if !a.Grants(right, resource, time.Now()) {
		return dn
	}
	return s.cas.CommunityDN
}

// NewServer builds an MCS server with every catalog operation registered.
func NewServer(opts ServerOptions) (*Server, error) {
	cat := opts.Catalog
	if cat == nil {
		var err error
		cat, err = core.Open(opts.CatalogOptions)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		catalog: cat, cas: opts.CAS,
		wal:       opts.WAL,
		endpoints: !opts.Obs.DisableEndpoints,
		started:   time.Now(),
	}
	s.metrics = obs.NewRegistry()
	if w := opts.WAL; w != nil {
		s.metrics.RegisterCounter("mcs_wal_appends_total",
			"Commit records appended to the write-ahead log.",
			func() int64 { return int64(w.Stats().Appends) })
		s.metrics.RegisterCounter("mcs_wal_fsyncs_total",
			"Group-commit fsync rounds on the write-ahead log.",
			func() int64 { return int64(w.Stats().Fsyncs) })
		s.metrics.RegisterCounter("mcs_wal_replayed_total",
			"Log records replayed during recovery at startup.",
			func() int64 { return int64(w.Stats().Replayed) })
	}
	s.metrics.RegisterCounter("mcs_checkpoints_total",
		"Checkpoints completed (snapshot durable, covered log dropped).",
		s.ckptCount.Load)
	s.metrics.RegisterFloat("mcs_checkpoint_seconds_total",
		"Time spent in checkpoints, failed ones included.", "counter",
		func() float64 { return time.Duration(s.ckptNanos.Load()).Seconds() })
	s.metrics.RegisterFloat("mcs_snapshot_bytes",
		"Size of the snapshot the last completed checkpoint wrote.", "gauge",
		func() float64 { return float64(s.ckptBytes.Load()) })
	if opts.Obs.SlowOpThreshold > 0 {
		s.slow = obs.NewSlowOpLog(opts.Obs.SlowOpThreshold, opts.Obs.SlowOpLogger)
	}
	if inj := opts.FaultInjector; inj != nil {
		// mcswire.NewServer below defaults inj.DefaultErr to ErrUnavailable,
		// for these hooks as much as for its own sites.
		s.faults = inj
		cat.DB().SetFaultHook(func(verb string) error {
			f := inj.Eval(faultinject.SiteDB, verb, "")
			if f == nil {
				return nil
			}
			s.metrics.FaultInjected(string(faultinject.SiteDB))
			if f.Delay > 0 {
				inj.Sleep(f.Delay)
			}
			if f.Kind == faultinject.KindLatency {
				return nil
			}
			return fmt.Errorf("%w: injected %s fault on db %s", f.Err, f.Kind, verb)
		})
		if w := opts.WAL; w != nil {
			w.SetFaultHook(func(op string) *WALFault {
				f := inj.Eval(faultinject.SiteWAL, op, "")
				if f == nil {
					return nil
				}
				s.metrics.FaultInjected(string(faultinject.SiteWAL))
				wf := &WALFault{Delay: f.Delay}
				switch f.Kind {
				case faultinject.KindLatency:
					// delay only
				case faultinject.KindPartial:
					wf.ShortWrite = f.TruncateAt
					if wf.ShortWrite <= 0 {
						wf.ShortWrite = 5 // into the header: an undeniably torn record
					}
					wf.Err = fmt.Errorf("%w: injected torn write on wal %s", f.Err, op)
				default:
					wf.Err = fmt.Errorf("%w: injected %s fault on wal %s", f.Err, f.Kind, op)
				}
				return wf
			})
		}
	}
	s.register()
	cfg := mcswire.Config{Metrics: s.metrics, SlowOps: s.slow, Faults: s.faults}
	if opts.TrustStore != nil {
		cfg.Authenticate = (&gsi.Verifier{Trust: opts.TrustStore}).Authenticate
	}
	s.wire = mcswire.NewServer(s.table, cfg, jsonwire.Codec{}, soap.Codec{})
	return s, nil
}

// ListenAndServe runs the server on addr until the listener fails.
func (s *Server) ListenAndServe(addr string) error {
	return http.ListenAndServe(addr, s)
}

// ServeHTTP routes the diagnostic endpoints when enabled and hands
// everything else — both wires — to the request pipeline.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.endpoints {
		switch r.URL.Path {
		case "/metrics":
			s.serveMetrics(w, r)
			return
		case "/healthz":
			s.serveHealthz(w, r)
			return
		case "/statz":
			s.serveStatz(w, r)
			return
		}
	}
	s.wire.ServeHTTP(w, r)
}

// serveMetrics renders the registry: Prometheus text exposition format by
// default (the conventional /metrics contract), expvar-style JSON with
// ?format=json.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		s.metrics.WriteJSON(w) //nolint:errcheck // best-effort response write
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w) //nolint:errcheck // best-effort response write
}

// serveHealthz reports liveness: 200 when the catalog answers queries.
func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	if _, err := s.catalog.Stats(); err != nil {
		http.Error(w, fmt.Sprintf("catalog unhealthy: %v", err), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n") //nolint:errcheck // best-effort response write
}

// serveStatz reports catalog row counts as JSON.
func (s *Server) serveStatz(w http.ResponseWriter, _ *http.Request) {
	st, err := s.catalog.Stats()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	var faultsInjected int64
	if s.faults != nil {
		faultsInjected = int64(s.faults.Total())
	}
	var wal WALStats
	if s.wal != nil {
		wal = s.wal.Stats()
	}
	type checkpointStatz struct {
		LSN         uint64  `json:"lsn"`
		Bytes       int64   `json:"bytes"`
		Seconds     float64 `json:"seconds"`
		DumpSeconds float64 `json:"dump_seconds"`
		AgeSeconds  float64 `json:"age_seconds"`
		Error       string  `json:"error"`
	}
	var lastCheckpoint *checkpointStatz
	if last := s.ckptLast.Load(); last != nil {
		lastCheckpoint = &checkpointStatz{
			LSN: last.lsn, Bytes: last.bytes,
			Seconds: last.total.Seconds(), DumpSeconds: last.dump.Seconds(),
			AgeSeconds: time.Since(last.at).Seconds(),
		}
		if last.err != nil {
			lastCheckpoint.Error = last.err.Error()
		}
	}
	enc.Encode(struct { //nolint:errcheck // best-effort response write
		UptimeSeconds  int64  `json:"uptime_seconds"`
		Files          int    `json:"files"`
		Collections    int    `json:"collections"`
		Views          int    `json:"views"`
		Attributes     int    `json:"attributes"`
		AttrDefs       int    `json:"attr_defs"`
		FaultsInjected int64  `json:"faults_injected"`
		ReplayedWrites int64  `json:"replayed_writes"`
		WALAppends     uint64 `json:"wal_appends"`
		WALFsyncs      uint64 `json:"wal_fsyncs"`
		WALReplayed    uint64 `json:"wal_replayed"`
		WALDurableLSN  uint64 `json:"wal_durable_lsn"`
		// LastCheckpoint is absent until a checkpoint has been reported.
		LastCheckpoint *checkpointStatz `json:"last_checkpoint,omitempty"`
	}{
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
		Files:         st.Files, Collections: st.Collections, Views: st.Views,
		Attributes: st.Attributes, AttrDefs: st.AttrDefs,
		FaultsInjected: faultsInjected,
		ReplayedWrites: s.catalog.ReplayHits(),
		WALAppends:     wal.Appends,
		WALFsyncs:      wal.Fsyncs,
		WALReplayed:    wal.Replayed,
		WALDurableLSN:  wal.DurableLSN,
		LastCheckpoint: lastCheckpoint,
	})
}

// streamPageSize bounds how many result rows a streamed operation holds in
// memory at once: the server walks the catalog page by page and writes rows
// out as they surface, so response size never drives server memory.
const streamPageSize = 512

// register builds the transport-neutral dispatch table: every catalog
// operation, registered exactly once under its mcswire descriptor.
func (s *Server) register() {
	cat := s.catalog
	t := mcswire.NewTable()
	s.table = t

	// opOpts threads per-request correlation into every mutating catalog
	// call: the request ID (audit trail, slow-op log) and the idempotency
	// key (replay detection for retried writes).
	opOpts := func(ctx *mcswire.Ctx) []core.OpOption {
		return []core.OpOption{
			core.WithRequestID(ctx.RequestID),
			core.WithIdempotencyKey(ctx.IdempotencyKey),
		}
	}

	mcswire.Handle(t, mcswire.Ping, func(ctx *mcswire.Ctx, req *mcswire.PingRequest) (*mcswire.PingResponse, error) {
		return &mcswire.PingResponse{DN: ctx.DN}, nil
	})

	mcswire.Handle(t, mcswire.CreateFile, func(ctx *mcswire.Ctx, req *mcswire.CreateFileRequest) (*mcswire.CreateFileResponse, error) {
		attrs, err := mcswire.AttrsFromWire(req.Attributes)
		if err != nil {
			return nil, err
		}
		f, err := cat.CreateFile(s.caller(ctx, req.Caller, gsi.RightCreate, req.Name), FileSpec{
			Name: req.Name, Version: req.Version, DataType: req.DataType,
			Collection: req.Collection, ContainerID: req.ContainerID,
			ContainerService: req.ContainerService, MasterCopy: req.MasterCopy,
			Audited: req.Audited, Provenance: req.Provenance, Attributes: attrs,
		}, opOpts(ctx)...)
		if err != nil {
			return nil, err
		}
		return &mcswire.CreateFileResponse{File: mcswire.FileToWire(f)}, nil
	})

	mcswire.Handle(t, mcswire.GetFile, func(ctx *mcswire.Ctx, req *mcswire.GetFileRequest) (*mcswire.GetFileResponse, error) {
		f, err := cat.GetFile(s.caller(ctx, req.Caller, gsi.RightRead, req.Name), req.Name, req.Version)
		if err != nil {
			return nil, err
		}
		return &mcswire.GetFileResponse{File: mcswire.FileToWire(f)}, nil
	})

	mcswire.Handle(t, mcswire.FileVersions, func(ctx *mcswire.Ctx, req *mcswire.FileVersionsRequest) (*mcswire.FileVersionsResponse, error) {
		fs, err := cat.FileVersions(s.caller(ctx, req.Caller, gsi.RightRead, req.Name), req.Name)
		if err != nil {
			return nil, err
		}
		resp := &mcswire.FileVersionsResponse{}
		for _, f := range fs {
			resp.Files = append(resp.Files, mcswire.FileToWire(f))
		}
		return resp, nil
	})

	mcswire.Handle(t, mcswire.UpdateFile, func(ctx *mcswire.Ctx, req *mcswire.UpdateFileRequest) (*mcswire.UpdateFileResponse, error) {
		var upd FileUpdate
		if req.SetDataType {
			upd.DataType = &req.DataType
		}
		if req.SetValid {
			upd.Valid = &req.Valid
		}
		if req.SetContainerID {
			upd.ContainerID = &req.ContainerID
		}
		if req.SetContainerService {
			upd.ContainerService = &req.ContainerService
		}
		if req.SetMasterCopy {
			upd.MasterCopy = &req.MasterCopy
		}
		f, err := cat.UpdateFile(s.caller(ctx, req.Caller, gsi.RightWrite, req.Name), req.Name, req.Version, upd,
			opOpts(ctx)...)
		if err != nil {
			return nil, err
		}
		return &mcswire.UpdateFileResponse{File: mcswire.FileToWire(f)}, nil
	})

	mcswire.Handle(t, mcswire.DeleteFile, func(ctx *mcswire.Ctx, req *mcswire.DeleteFileRequest) (*mcswire.DeleteFileResponse, error) {
		if err := cat.DeleteFile(s.caller(ctx, req.Caller, gsi.RightDelete, req.Name), req.Name, req.Version,
			opOpts(ctx)...); err != nil {
			return nil, err
		}
		return &mcswire.DeleteFileResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.MoveFile, func(ctx *mcswire.Ctx, req *mcswire.MoveFileRequest) (*mcswire.MoveFileResponse, error) {
		if err := cat.MoveFile(s.caller(ctx, req.Caller, gsi.RightWrite, req.Name), req.Name, req.Version, req.Collection, opOpts(ctx)...); err != nil {
			return nil, err
		}
		return &mcswire.MoveFileResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.BatchWrite, func(ctx *mcswire.Ctx, req *mcswire.BatchWriteRequest) (*mcswire.BatchWriteResponse, error) {
		ops := make([]BatchOp, 0, len(req.Ops))
		for i, wo := range req.Ops {
			op, err := mcswire.BatchOpFromWire(wo)
			if err != nil {
				return nil, fmt.Errorf("%w: batch op %d: %v", ErrInvalidInput, i, err)
			}
			ops = append(ops, op)
		}
		// Per-object authorization happens per op inside the transaction;
		// the transport-level CAS check covers the batch as one write.
		results, err := cat.BatchWrite(s.caller(ctx, req.Caller, gsi.RightWrite, ""), ops,
			opOpts(ctx)...)
		if err != nil {
			return nil, err
		}
		s.metrics.ObserveBatchSize(len(ops))
		resp := &mcswire.BatchWriteResponse{Count: len(results)}
		if !req.Quiet {
			for _, r := range results {
				resp.Results = append(resp.Results, mcswire.WireBatchResult{
					Action: r.Action, ID: r.ID, Version: r.Version,
				})
			}
		}
		return resp, nil
	})

	mcswire.Handle(t, mcswire.CreateCollection, func(ctx *mcswire.Ctx, req *mcswire.CreateCollectionRequest) (*mcswire.CreateCollectionResponse, error) {
		attrs, err := mcswire.AttrsFromWire(req.Attributes)
		if err != nil {
			return nil, err
		}
		col, err := cat.CreateCollection(s.caller(ctx, req.Caller, gsi.RightCreate, req.Name), CollectionSpec{
			Name: req.Name, Description: req.Description, Parent: req.Parent,
			Audited: req.Audited, Attributes: attrs,
		}, opOpts(ctx)...)
		if err != nil {
			return nil, err
		}
		return &mcswire.CreateCollectionResponse{Collection: mcswire.CollectionToWire(col)}, nil
	})

	mcswire.Handle(t, mcswire.GetCollection, func(ctx *mcswire.Ctx, req *mcswire.GetCollectionRequest) (*mcswire.GetCollectionResponse, error) {
		col, err := cat.GetCollection(s.caller(ctx, req.Caller, gsi.RightRead, req.Name), req.Name)
		if err != nil {
			return nil, err
		}
		return &mcswire.GetCollectionResponse{Collection: mcswire.CollectionToWire(col)}, nil
	})

	// collectionContents also streams: large collections page through the
	// catalog and emit one member per row instead of one giant reply.
	mcswire.HandleStream(t, mcswire.CollectionContents, func(ctx *mcswire.Ctx, req *mcswire.CollectionContentsRequest) (*mcswire.CollectionContentsResponse, error) {
		files, subs, err := cat.CollectionContents(s.caller(ctx, req.Caller, gsi.RightRead, req.Name), req.Name)
		if err != nil {
			return nil, err
		}
		resp := &mcswire.CollectionContentsResponse{}
		for _, f := range files {
			resp.Files = append(resp.Files, mcswire.FileToWire(f))
		}
		for _, c := range subs {
			resp.SubCollections = append(resp.SubCollections, mcswire.CollectionToWire(c))
		}
		return resp, nil
	}, func(ctx *mcswire.Ctx, req *mcswire.CollectionContentsRequest, emit func(row any) error) error {
		who := s.caller(ctx, req.Caller, gsi.RightRead, req.Name)
		token := ""
		for {
			files, subs, next, err := cat.CollectionContentsPage(who, req.Name, streamPageSize, token)
			if err != nil {
				return err
			}
			for _, f := range files {
				wf := mcswire.FileToWire(f)
				if err := emit(mcswire.ContentsRow{File: &wf}); err != nil {
					return err
				}
			}
			for _, c := range subs {
				wc := mcswire.CollectionToWire(c)
				if err := emit(mcswire.ContentsRow{Collection: &wc}); err != nil {
					return err
				}
			}
			if next == "" {
				return nil
			}
			token = next
		}
	})

	mcswire.Handle(t, mcswire.CollectionContentsPage, func(ctx *mcswire.Ctx, req *mcswire.CollectionContentsPageRequest) (*mcswire.CollectionContentsPageResponse, error) {
		files, subs, next, err := cat.CollectionContentsPage(
			s.caller(ctx, req.Caller, gsi.RightRead, req.Name), req.Name, req.PageSize, req.Token)
		if err != nil {
			return nil, err
		}
		s.metrics.ObservePageSize(len(files) + len(subs))
		resp := &mcswire.CollectionContentsPageResponse{Next: next}
		for _, f := range files {
			resp.Files = append(resp.Files, mcswire.FileToWire(f))
		}
		for _, c := range subs {
			resp.SubCollections = append(resp.SubCollections, mcswire.CollectionToWire(c))
		}
		return resp, nil
	})

	mcswire.Handle(t, mcswire.DeleteCollection, func(ctx *mcswire.Ctx, req *mcswire.DeleteCollectionRequest) (*mcswire.DeleteCollectionResponse, error) {
		if err := cat.DeleteCollection(s.caller(ctx, req.Caller, gsi.RightDelete, req.Name), req.Name,
			opOpts(ctx)...); err != nil {
			return nil, err
		}
		return &mcswire.DeleteCollectionResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.ListCollections, func(ctx *mcswire.Ctx, req *mcswire.ListCollectionsRequest) (*mcswire.ListCollectionsResponse, error) {
		names, err := cat.ListCollections(s.caller(ctx, req.Caller, gsi.RightRead, ""), req.Pattern)
		if err != nil {
			return nil, err
		}
		return &mcswire.ListCollectionsResponse{Names: names}, nil
	})

	mcswire.Handle(t, mcswire.CreateView, func(ctx *mcswire.Ctx, req *mcswire.CreateViewRequest) (*mcswire.CreateViewResponse, error) {
		attrs, err := mcswire.AttrsFromWire(req.Attributes)
		if err != nil {
			return nil, err
		}
		v, err := cat.CreateView(s.caller(ctx, req.Caller, gsi.RightCreate, req.Name), ViewSpec{
			Name: req.Name, Description: req.Description, Audited: req.Audited, Attributes: attrs,
		}, opOpts(ctx)...)
		if err != nil {
			return nil, err
		}
		return &mcswire.CreateViewResponse{View: mcswire.ViewToWire(v)}, nil
	})

	mcswire.Handle(t, mcswire.AddToView, func(ctx *mcswire.Ctx, req *mcswire.AddToViewRequest) (*mcswire.AddToViewResponse, error) {
		if err := cat.AddToView(s.caller(ctx, req.Caller, gsi.RightWrite, req.View), req.View, ObjectType(req.ObjectType), req.Member,
			opOpts(ctx)...); err != nil {
			return nil, err
		}
		return &mcswire.AddToViewResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.RemoveFromView, func(ctx *mcswire.Ctx, req *mcswire.RemoveFromViewRequest) (*mcswire.RemoveFromViewResponse, error) {
		if err := cat.RemoveFromView(s.caller(ctx, req.Caller, gsi.RightWrite, req.View), req.View, ObjectType(req.ObjectType), req.Member, opOpts(ctx)...); err != nil {
			return nil, err
		}
		return &mcswire.RemoveFromViewResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.ViewContents, func(ctx *mcswire.Ctx, req *mcswire.ViewContentsRequest) (*mcswire.ViewContentsResponse, error) {
		members, err := cat.ViewContents(s.caller(ctx, req.Caller, gsi.RightRead, req.Name), req.Name)
		if err != nil {
			return nil, err
		}
		resp := &mcswire.ViewContentsResponse{}
		for _, m := range members {
			resp.Members = append(resp.Members, mcswire.WireViewMember{
				Type: string(m.Type), ID: m.ID, Name: m.Name,
			})
		}
		return resp, nil
	})

	mcswire.Handle(t, mcswire.ExpandView, func(ctx *mcswire.Ctx, req *mcswire.ExpandViewRequest) (*mcswire.ExpandViewResponse, error) {
		names, err := cat.ExpandView(s.caller(ctx, req.Caller, gsi.RightRead, req.Name), req.Name)
		if err != nil {
			return nil, err
		}
		return &mcswire.ExpandViewResponse{Names: names}, nil
	})

	mcswire.Handle(t, mcswire.DeleteView, func(ctx *mcswire.Ctx, req *mcswire.DeleteViewRequest) (*mcswire.DeleteViewResponse, error) {
		if err := cat.DeleteView(s.caller(ctx, req.Caller, gsi.RightDelete, req.Name), req.Name,
			opOpts(ctx)...); err != nil {
			return nil, err
		}
		return &mcswire.DeleteViewResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.DefineAttribute, func(ctx *mcswire.Ctx, req *mcswire.DefineAttributeRequest) (*mcswire.DefineAttributeResponse, error) {
		def, err := cat.DefineAttribute(s.caller(ctx, req.Caller, gsi.RightCreate, req.Name), req.Name, AttrType(req.Type), req.Description, opOpts(ctx)...)
		if err != nil {
			return nil, err
		}
		return &mcswire.DefineAttributeResponse{
			ID: def.ID, Name: def.Name, Type: string(def.Type), Description: def.Description,
		}, nil
	})

	mcswire.Handle(t, mcswire.ListAttributeDefs, func(ctx *mcswire.Ctx, req *mcswire.ListAttributeDefsRequest) (*mcswire.ListAttributeDefsResponse, error) {
		defs, err := cat.ListAttributeDefs()
		if err != nil {
			return nil, err
		}
		resp := &mcswire.ListAttributeDefsResponse{}
		for _, d := range defs {
			resp.Defs = append(resp.Defs, mcswire.WireAttrDef{
				ID: d.ID, Name: d.Name, Type: string(d.Type), Description: d.Description,
			})
		}
		return resp, nil
	})

	mcswire.Handle(t, mcswire.SetAttribute, func(ctx *mcswire.Ctx, req *mcswire.SetAttributeRequest) (*mcswire.SetAttributeResponse, error) {
		a, err := req.Attribute.ToCore()
		if err != nil {
			return nil, err
		}
		if err := cat.SetAttribute(s.caller(ctx, req.Caller, gsi.RightWrite, req.Object), ObjectType(req.ObjectType), req.Object, a.Name, a.Value, opOpts(ctx)...); err != nil {
			return nil, err
		}
		return &mcswire.SetAttributeResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.UnsetAttribute, func(ctx *mcswire.Ctx, req *mcswire.UnsetAttributeRequest) (*mcswire.UnsetAttributeResponse, error) {
		if err := cat.UnsetAttribute(s.caller(ctx, req.Caller, gsi.RightWrite, req.Object), ObjectType(req.ObjectType), req.Object, req.Attribute, opOpts(ctx)...); err != nil {
			return nil, err
		}
		return &mcswire.UnsetAttributeResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.GetAttributes, func(ctx *mcswire.Ctx, req *mcswire.GetAttributesRequest) (*mcswire.GetAttributesResponse, error) {
		attrs, err := cat.GetAttributes(s.caller(ctx, req.Caller, gsi.RightRead, req.Object), ObjectType(req.ObjectType), req.Object)
		if err != nil {
			return nil, err
		}
		return &mcswire.GetAttributesResponse{Attributes: mcswire.AttrsToWire(attrs)}, nil
	})

	// query carries a Stream implementation beside the unary call: over a
	// streaming transport the server pages through the catalog and emits one
	// row per match, so neither side ever materializes the full result.
	mcswire.HandleStream(t, mcswire.Query, func(ctx *mcswire.Ctx, req *mcswire.QueryRequest) (*mcswire.QueryResponse, error) {
		q, err := mcswire.QueryFromWire(req.Target, req.Limit, req.Predicates)
		if err != nil {
			return nil, err
		}
		names, err := cat.RunQuery(s.caller(ctx, req.Caller, gsi.RightRead, ""), q)
		if err != nil {
			return nil, err
		}
		return &mcswire.QueryResponse{Names: names}, nil
	}, func(ctx *mcswire.Ctx, req *mcswire.QueryRequest, emit func(row any) error) error {
		q, err := mcswire.QueryFromWire(req.Target, 0, req.Predicates)
		if err != nil {
			return err
		}
		who := s.caller(ctx, req.Caller, gsi.RightRead, "")
		sent, token := 0, ""
		for {
			names, next, err := cat.RunQueryPage(who, q, streamPageSize, token)
			if err != nil {
				return err
			}
			for _, n := range names {
				if req.Limit > 0 && sent >= req.Limit {
					return nil
				}
				if err := emit(mcswire.QueryRow{Name: n}); err != nil {
					return err
				}
				sent++
			}
			if next == "" {
				return nil
			}
			token = next
		}
	})

	mcswire.Handle(t, mcswire.QueryPage, func(ctx *mcswire.Ctx, req *mcswire.QueryPageRequest) (*mcswire.QueryPageResponse, error) {
		q, err := mcswire.QueryFromWire(req.Target, 0, req.Predicates)
		if err != nil {
			return nil, err
		}
		names, next, err := cat.RunQueryPage(s.caller(ctx, req.Caller, gsi.RightRead, ""), q, req.PageSize, req.Token)
		if err != nil {
			return nil, err
		}
		s.metrics.ObservePageSize(len(names))
		return &mcswire.QueryPageResponse{Names: names, Next: next}, nil
	})

	mcswire.Handle(t, mcswire.QueryAttrs, func(ctx *mcswire.Ctx, req *mcswire.QueryAttrsRequest) (*mcswire.QueryAttrsResponse, error) {
		q, err := mcswire.QueryFromWire(req.Target, req.Limit, req.Predicates)
		if err != nil {
			return nil, err
		}
		results, err := cat.RunQueryAttrs(s.caller(ctx, req.Caller, gsi.RightRead, ""), q, req.Return)
		if err != nil {
			return nil, err
		}
		resp := &mcswire.QueryAttrsResponse{}
		for _, r := range results {
			resp.Results = append(resp.Results, mcswire.WireQueryResult{
				Name: r.Name, Attributes: mcswire.AttrsToWire(r.Attributes),
			})
		}
		return resp, nil
	})

	mcswire.Handle(t, mcswire.Annotate, func(ctx *mcswire.Ctx, req *mcswire.AnnotateRequest) (*mcswire.AnnotateResponse, error) {
		a, err := cat.Annotate(s.caller(ctx, req.Caller, gsi.RightAnnotate, req.Object), ObjectType(req.ObjectType), req.Object, req.Text, opOpts(ctx)...)
		if err != nil {
			return nil, err
		}
		return &mcswire.AnnotateResponse{ID: a.ID}, nil
	})

	mcswire.Handle(t, mcswire.GetAnnotations, func(ctx *mcswire.Ctx, req *mcswire.GetAnnotationsRequest) (*mcswire.GetAnnotationsResponse, error) {
		anns, err := cat.Annotations(s.caller(ctx, req.Caller, gsi.RightRead, req.Object), ObjectType(req.ObjectType), req.Object)
		if err != nil {
			return nil, err
		}
		resp := &mcswire.GetAnnotationsResponse{}
		for _, a := range anns {
			resp.Annotations = append(resp.Annotations, mcswire.WireAnnotation{
				ID: a.ID, Text: a.Text, Creator: a.Creator, At: a.CreatedAt,
			})
		}
		return resp, nil
	})

	mcswire.Handle(t, mcswire.AddProvenance, func(ctx *mcswire.Ctx, req *mcswire.AddProvenanceRequest) (*mcswire.AddProvenanceResponse, error) {
		if err := cat.AddProvenance(s.caller(ctx, req.Caller, gsi.RightWrite, req.Name), req.Name, req.Version, req.Description, opOpts(ctx)...); err != nil {
			return nil, err
		}
		return &mcswire.AddProvenanceResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.GetProvenance, func(ctx *mcswire.Ctx, req *mcswire.GetProvenanceRequest) (*mcswire.GetProvenanceResponse, error) {
		recs, err := cat.Provenance(s.caller(ctx, req.Caller, gsi.RightRead, req.Name), req.Name, req.Version)
		if err != nil {
			return nil, err
		}
		resp := &mcswire.GetProvenanceResponse{}
		for _, r := range recs {
			resp.Records = append(resp.Records, mcswire.WireProvenance{
				ID: r.ID, Description: r.Description, At: r.At,
			})
		}
		return resp, nil
	})

	mcswire.Handle(t, mcswire.AuditLog, func(ctx *mcswire.Ctx, req *mcswire.AuditLogRequest) (*mcswire.AuditLogResponse, error) {
		recs, err := cat.AuditLog(s.caller(ctx, req.Caller, gsi.RightRead, req.Object), ObjectType(req.ObjectType), req.Object)
		if err != nil {
			return nil, err
		}
		resp := &mcswire.AuditLogResponse{}
		for _, r := range recs {
			resp.Records = append(resp.Records, mcswire.WireAudit{
				ID: r.ID, Action: r.Action, DN: r.DN, Detail: r.Detail,
				RequestID: r.RequestID, At: r.At,
			})
		}
		return resp, nil
	})

	mcswire.Handle(t, mcswire.Grant, func(ctx *mcswire.Ctx, req *mcswire.GrantRequest) (*mcswire.GrantResponse, error) {
		err := cat.Grant(s.caller(ctx, req.Caller, gsi.RightWrite, req.Object), ObjectType(req.ObjectType), req.Object,
			req.Principal, Permission(req.Permission))
		if err != nil {
			return nil, err
		}
		return &mcswire.GrantResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.Revoke, func(ctx *mcswire.Ctx, req *mcswire.RevokeRequest) (*mcswire.RevokeResponse, error) {
		err := cat.Revoke(s.caller(ctx, req.Caller, gsi.RightWrite, req.Object), ObjectType(req.ObjectType), req.Object,
			req.Principal, Permission(req.Permission))
		if err != nil {
			return nil, err
		}
		return &mcswire.RevokeResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.RegisterWriter, func(ctx *mcswire.Ctx, req *mcswire.RegisterWriterRequest) (*mcswire.RegisterWriterResponse, error) {
		err := cat.RegisterWriter(s.caller(ctx, req.Caller, gsi.RightWrite, ""), Writer{
			DN: req.DN, Description: req.Description, Institution: req.Institution,
			Address: req.Address, Phone: req.Phone, Email: req.Email,
		}, opOpts(ctx)...)
		if err != nil {
			return nil, err
		}
		return &mcswire.RegisterWriterResponse{OK: true}, nil
	})

	mcswire.Handle(t, mcswire.GetWriter, func(ctx *mcswire.Ctx, req *mcswire.GetWriterRequest) (*mcswire.GetWriterResponse, error) {
		w, err := cat.GetWriter(s.caller(ctx, req.Caller, gsi.RightRead, ""), req.DN)
		if err != nil {
			return nil, err
		}
		return &mcswire.GetWriterResponse{
			DN: w.DN, Description: w.Description, Institution: w.Institution,
			Address: w.Address, Phone: w.Phone, Email: w.Email,
		}, nil
	})

	mcswire.Handle(t, mcswire.RegisterExternalCatalog, func(ctx *mcswire.Ctx, req *mcswire.RegisterExternalCatalogRequest) (*mcswire.RegisterExternalCatalogResponse, error) {
		ec, err := cat.RegisterExternalCatalog(s.caller(ctx, req.Caller, gsi.RightCreate, req.Name), ExternalCatalog{
			Name: req.Name, Type: req.Type, Host: req.Host, IP: req.IP, Description: req.Description,
		}, opOpts(ctx)...)
		if err != nil {
			return nil, err
		}
		return &mcswire.RegisterExternalCatalogResponse{ID: ec.ID}, nil
	})

	mcswire.Handle(t, mcswire.ListExternalCatalogs, func(ctx *mcswire.Ctx, req *mcswire.ListExternalCatalogsRequest) (*mcswire.ListExternalCatalogsResponse, error) {
		list, err := cat.ExternalCatalogs(s.caller(ctx, req.Caller, gsi.RightRead, ""))
		if err != nil {
			return nil, err
		}
		resp := &mcswire.ListExternalCatalogsResponse{}
		for _, ec := range list {
			resp.Catalogs = append(resp.Catalogs, mcswire.WireExternalCatalog{
				ID: ec.ID, Name: ec.Name, Type: ec.Type, Host: ec.Host,
				IP: ec.IP, Description: ec.Description,
			})
		}
		return resp, nil
	})

	mcswire.Handle(t, mcswire.Stats, func(ctx *mcswire.Ctx, req *mcswire.StatsRequest) (*mcswire.StatsResponse, error) {
		st, err := cat.Stats()
		if err != nil {
			return nil, err
		}
		return &mcswire.StatsResponse{
			Files: st.Files, Collections: st.Collections, Views: st.Views,
			Attributes: st.Attributes, AttrDefs: st.AttrDefs,
		}, nil
	})

	// discoverySummary checks no rights: its bloom filter tells any caller
	// whether an (attribute, value) binding exists here (DESIGN.md §8).
	mcswire.Handle(t, mcswire.DiscoverySummary, func(ctx *mcswire.Ctx, req *mcswire.DiscoverySummaryRequest) (*mcswire.DiscoverySummaryResponse, error) {
		sum, err := federation.Summarize(cat, req.FP)
		if err != nil {
			return nil, err
		}
		return sum.Encode()
	})
}
