package mcs

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mcs/internal/gsi"
	"mcs/internal/jsonwire"
	"mcs/internal/mcswire"
	"mcs/internal/soap"
)

// Client is a typed MCS client over SOAP/HTTP or the compact JSON wire: the
// equivalent of the Java client library generated from the service's WSDL
// in the original system.
//
// Each Client owns an independent HTTP connection pool, so one Client models
// one "client host" in the scalability experiments. A Client is safe for
// concurrent use by multiple goroutines ("client threads").
//
// Construction takes functional options:
//
//	c := mcs.NewClient(url, dn,
//		mcs.WithTimeout(2*time.Minute),
//		mcs.WithCredential(cred))
//
// Every operation has two forms: a plain method (GetFile) that runs with
// context.Background, and a context-aware variant (GetFileCtx) whose
// deadline and cancellation are honored by the HTTP transport. Both go
// through one typed call per operation, named by its internal/mcswire
// descriptor, over the one built-in wire client; the wire (WithTransport)
// only swaps that client's codec. Each call carries a request correlation
// ID in the X-MCS-Request-ID header (generated per call); the server echoes
// it, attaches it to audit records and quotes it in its slow-operation log.
//
// Errors returned by the service preserve their identity across the wire:
// a failed call can be matched with errors.Is against the package sentinels
// (ErrNotFound, ErrExists, ErrDenied, ErrInvalidInput, ErrCycle,
// ErrNotEmpty, ErrAmbiguousFile, ErrUnavailable), exactly as if the catalog
// were embedded. Calls that fail without a decodable reply match
// ErrTransport; WithRetry makes the client retry those (and ErrUnavailable)
// automatically with idempotency keys on mutating operations.
type Client struct {
	// wire is the one built-in wire client; WithTransport swaps only its
	// codec, so every other option applies whichever wire is (or later
	// becomes) selected.
	wire *mcswire.Client
	kind TransportKind
	// dn is the identity declared on unauthenticated deployments. When a
	// GSI credential is attached with WithCredential, the server derives
	// the identity from the credential instead.
	dn string

	// Retry policy (off unless WithRetry raises retryAttempts above 1).
	retryAttempts int
	backoffBase   time.Duration
	backoffMax    time.Duration
	// sleep pauses between attempts; tests substitute a recorder.
	sleep func(ctx context.Context, d time.Duration) error
	// rngState drives backoff jitter (splitmix64; cheap, no global lock).
	rngMu    sync.Mutex
	rngState uint64
	attempts atomic.Int64
	retries  atomic.Int64
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithTimeout sets the per-call HTTP timeout (default 30s). Long-running
// complex queries against large catalogs may need more on loaded servers;
// per-call deadlines via the ...Ctx variants compose with (and can be
// shorter than) this ceiling.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.wire.HTTP.Timeout = d }
}

// WithCredential attaches a GSI credential: every request is signed and the
// server authenticates the chain instead of trusting the declared DN.
func WithCredential(cred *gsi.Credential) ClientOption {
	return func(c *Client) { c.wire.Sign = cred.Sign }
}

// WithAssertion attaches an encoded CAS capability assertion (from
// gsi.EncodeAssertion) to every request, enabling community-authorized
// operations on servers configured with CASIntegration.
func WithAssertion(encoded string) ClientOption {
	return func(c *Client) { c.wire.Header.Set(gsi.AssertionHeader, encoded) }
}

// TransportKind selects one of the built-in wire encodings.
type TransportKind string

const (
	// TransportSOAP is the paper-faithful SOAP/HTTP wire (the default).
	TransportSOAP TransportKind = "soap"
	// TransportJSON is the compact JSON/HTTP wire (/api/v1/<op>): the same
	// operations, error identities and retry semantics with cheaper
	// encoding, plus NDJSON streaming for large results.
	TransportJSON TransportKind = "json"
)

// WithTransport selects the wire encoding: TransportSOAP (the default, and
// the paper-faithful one) or TransportJSON (the compact /api/v1 wire). The
// two carry identical semantics — every operation, error sentinel, request
// correlation ID and idempotent-retry guarantee works the same over either.
func WithTransport(kind TransportKind) ClientOption {
	return func(c *Client) { c.setTransport(kind) }
}

// WithHTTPClient substitutes the *http.Client the wire client uses —
// custom TLS configuration, proxies or instrumentation. It replaces the
// default pool including its timeout, so combine with WithTimeout (after
// this option) when a call ceiling is still wanted.
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.wire.HTTP = h }
}

// WithRetry enables automatic retry of failed calls: each logical call makes
// up to attempts HTTP round trips (attempts <= 1 disables retry, the
// default). Only transient failures are retried — server-declared
// unavailability (ErrUnavailable) and transport failures with no decodable
// reply (ErrTransport); catalog verdicts like ErrNotFound or ErrDenied are
// returned immediately. Every attempt of a logical call repeats the same
// request correlation ID, and mutating calls also carry a pinned idempotency
// key, so a server that already applied the operation answers the replay
// from its replay cache instead of applying it twice: with retries on, every
// mutation is applied exactly once even when replies are lost mid-flight.
func WithRetry(attempts int) ClientOption {
	return func(c *Client) { c.retryAttempts = attempts }
}

// WithBackoff tunes the pause between retry attempts (default 25ms base,
// 1s cap): attempt n waits base*2^(n-1) capped at max, jittered down by up
// to half so concurrent clients do not retry in lockstep. Only meaningful
// together with WithRetry.
func WithBackoff(base, max time.Duration) ClientOption {
	return func(c *Client) {
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// WithRequestIDHeader renames the header carrying the per-call request
// correlation ID (default obs.RequestIDHeader, "X-MCS-Request-ID"), for
// deployments that standardize on another name; "" disables request-ID
// propagation.
func WithRequestIDHeader(name string) ClientOption {
	return func(c *Client) { c.wire.RequestIDHeader = name }
}

// NewClient returns a client for the MCS at endpoint, acting as dn.
func NewClient(endpoint, dn string, opts ...ClientOption) *Client {
	c := &Client{
		wire:        mcswire.NewClient(endpoint, nil, nil),
		dn:          dn,
		backoffBase: 25 * time.Millisecond,
		backoffMax:  time.Second,
		sleep:       ctxSleep,
		rngState:    seedRNG(),
	}
	c.setTransport(TransportSOAP)
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// setTransport points the client at one of the built-in wires.
func (c *Client) setTransport(kind TransportKind) {
	switch kind {
	case TransportJSON:
		c.wire.Codec, c.kind = jsonwire.Codec{}, TransportJSON
	default:
		c.wire.Codec, c.kind = soap.Codec{}, TransportSOAP
	}
}

// TransportName reports which wire the client is using: TransportSOAP or
// TransportJSON.
func (c *Client) TransportName() TransportKind { return c.kind }

// call performs one logical call of op: a single wire round trip, or a
// retry loop when WithRetry is configured.
func call[Req, Resp any](ctx context.Context, c *Client, op mcswire.Op[Req, Resp], req *Req) (*Resp, error) {
	if c.retryAttempts <= 1 {
		return callOnce(ctx, c, op, nil, req)
	}
	return callRetry(ctx, c, op, req)
}

// Ping checks liveness with context.Background.
func (c *Client) Ping() (string, error) { return c.PingCtx(context.Background()) }

// PingCtx checks liveness and returns the DN the server sees for this
// client.
func (c *Client) PingCtx(ctx context.Context) (string, error) {
	resp, err := call(ctx, c, mcswire.Ping, &mcswire.PingRequest{})
	if err != nil {
		return "", err
	}
	return resp.DN, nil
}

// CreateFile registers a logical file with context.Background.
func (c *Client) CreateFile(spec FileSpec) (File, error) {
	return c.CreateFileCtx(context.Background(), spec)
}

// CreateFileCtx registers a logical file with its user-defined attributes.
func (c *Client) CreateFileCtx(ctx context.Context, spec FileSpec) (File, error) {
	req := &mcswire.CreateFileRequest{
		Caller: c.dn, Name: spec.Name, Version: spec.Version, DataType: spec.DataType,
		Collection: spec.Collection, ContainerID: spec.ContainerID,
		ContainerService: spec.ContainerService, MasterCopy: spec.MasterCopy,
		Audited: spec.Audited, Provenance: spec.Provenance, Attributes: mcswire.AttrsToWire(spec.Attributes),
	}
	resp, err := call(ctx, c, mcswire.CreateFile, req)
	if err != nil {
		return File{}, err
	}
	return mcswire.FileFromWire(resp.File), nil
}

// GetFile fetches file metadata with context.Background.
func (c *Client) GetFile(name string, version int) (File, error) {
	return c.GetFileCtx(context.Background(), name, version)
}

// GetFileCtx fetches static file metadata; version 0 selects the sole
// version.
func (c *Client) GetFileCtx(ctx context.Context, name string, version int) (File, error) {
	resp, err := call(ctx, c, mcswire.GetFile, &mcswire.GetFileRequest{Caller: c.dn, Name: name, Version: version})
	if err != nil {
		return File{}, err
	}
	return mcswire.FileFromWire(resp.File), nil
}

// FileVersions lists versions with context.Background.
func (c *Client) FileVersions(name string) ([]File, error) {
	return c.FileVersionsCtx(context.Background(), name)
}

// FileVersionsCtx lists every version of a logical name, oldest first.
func (c *Client) FileVersionsCtx(ctx context.Context, name string) ([]File, error) {
	resp, err := call(ctx, c, mcswire.FileVersions, &mcswire.FileVersionsRequest{Caller: c.dn, Name: name})
	if err != nil {
		return nil, err
	}
	files := make([]File, 0, len(resp.Files))
	for _, wf := range resp.Files {
		files = append(files, mcswire.FileFromWire(wf))
	}
	return files, nil
}

// UpdateFile modifies file attributes with context.Background.
func (c *Client) UpdateFile(name string, version int, upd FileUpdate) (File, error) {
	return c.UpdateFileCtx(context.Background(), name, version, upd)
}

// UpdateFileCtx modifies static file attributes (nil fields are unchanged).
func (c *Client) UpdateFileCtx(ctx context.Context, name string, version int, upd FileUpdate) (File, error) {
	req := &mcswire.UpdateFileRequest{Caller: c.dn, Name: name, Version: version}
	if upd.DataType != nil {
		req.SetDataType, req.DataType = true, *upd.DataType
	}
	if upd.Valid != nil {
		req.SetValid, req.Valid = true, *upd.Valid
	}
	if upd.ContainerID != nil {
		req.SetContainerID, req.ContainerID = true, *upd.ContainerID
	}
	if upd.ContainerService != nil {
		req.SetContainerService, req.ContainerService = true, *upd.ContainerService
	}
	if upd.MasterCopy != nil {
		req.SetMasterCopy, req.MasterCopy = true, *upd.MasterCopy
	}
	resp, err := call(ctx, c, mcswire.UpdateFile, req)
	if err != nil {
		return File{}, err
	}
	return mcswire.FileFromWire(resp.File), nil
}

// InvalidateFile clears a file's valid flag with context.Background.
func (c *Client) InvalidateFile(name string, version int) error {
	return c.InvalidateFileCtx(context.Background(), name, version)
}

// InvalidateFileCtx clears a file's valid flag.
func (c *Client) InvalidateFileCtx(ctx context.Context, name string, version int) error {
	valid := false
	_, err := c.UpdateFileCtx(ctx, name, version, FileUpdate{Valid: &valid})
	return err
}

// DeleteFile removes a logical file with context.Background.
func (c *Client) DeleteFile(name string, version int) error {
	return c.DeleteFileCtx(context.Background(), name, version)
}

// DeleteFileCtx removes a logical file and its dependent metadata.
func (c *Client) DeleteFileCtx(ctx context.Context, name string, version int) error {
	_, err := call(ctx, c, mcswire.DeleteFile, &mcswire.DeleteFileRequest{Caller: c.dn, Name: name, Version: version})
	return err
}

// MoveFile reassigns a file's collection with context.Background.
func (c *Client) MoveFile(name string, version int, collection string) error {
	return c.MoveFileCtx(context.Background(), name, version, collection)
}

// MoveFileCtx reassigns a file's logical collection ("" removes it).
func (c *Client) MoveFileCtx(ctx context.Context, name string, version int, collection string) error {
	_, err := call(ctx, c, mcswire.MoveFile, &mcswire.MoveFileRequest{
		Caller: c.dn, Name: name, Version: version, Collection: collection,
	})
	return err
}

// CreateCollection registers a collection with context.Background.
func (c *Client) CreateCollection(spec CollectionSpec) (Collection, error) {
	return c.CreateCollectionCtx(context.Background(), spec)
}

// CreateCollectionCtx registers a logical collection.
func (c *Client) CreateCollectionCtx(ctx context.Context, spec CollectionSpec) (Collection, error) {
	req := &mcswire.CreateCollectionRequest{
		Caller: c.dn, Name: spec.Name, Description: spec.Description,
		Parent: spec.Parent, Audited: spec.Audited, Attributes: mcswire.AttrsToWire(spec.Attributes),
	}
	resp, err := call(ctx, c, mcswire.CreateCollection, req)
	if err != nil {
		return Collection{}, err
	}
	return mcswire.CollectionFromWire(resp.Collection), nil
}

// GetCollection fetches collection metadata with context.Background.
func (c *Client) GetCollection(name string) (Collection, error) {
	return c.GetCollectionCtx(context.Background(), name)
}

// GetCollectionCtx fetches collection metadata by name.
func (c *Client) GetCollectionCtx(ctx context.Context, name string) (Collection, error) {
	resp, err := call(ctx, c, mcswire.GetCollection, &mcswire.GetCollectionRequest{Caller: c.dn, Name: name})
	if err != nil {
		return Collection{}, err
	}
	return mcswire.CollectionFromWire(resp.Collection), nil
}

// CollectionContents lists a collection with context.Background.
func (c *Client) CollectionContents(name string) ([]File, []Collection, error) {
	return c.CollectionContentsCtx(context.Background(), name)
}

// CollectionContentsCtx lists a collection's direct files and
// sub-collections.
func (c *Client) CollectionContentsCtx(ctx context.Context, name string) ([]File, []Collection, error) {
	resp, err := call(ctx, c, mcswire.CollectionContents, &mcswire.CollectionContentsRequest{Caller: c.dn, Name: name})
	if err != nil {
		return nil, nil, err
	}
	files := make([]File, 0, len(resp.Files))
	for _, wf := range resp.Files {
		files = append(files, mcswire.FileFromWire(wf))
	}
	subs := make([]Collection, 0, len(resp.SubCollections))
	for _, wc := range resp.SubCollections {
		subs = append(subs, mcswire.CollectionFromWire(wc))
	}
	return files, subs, nil
}

// DeleteCollection removes an empty collection with context.Background.
func (c *Client) DeleteCollection(name string) error {
	return c.DeleteCollectionCtx(context.Background(), name)
}

// DeleteCollectionCtx removes an empty collection.
func (c *Client) DeleteCollectionCtx(ctx context.Context, name string) error {
	_, err := call(ctx, c, mcswire.DeleteCollection, &mcswire.DeleteCollectionRequest{Caller: c.dn, Name: name})
	return err
}

// ListCollections lists collection names with context.Background.
func (c *Client) ListCollections(pattern string) ([]string, error) {
	return c.ListCollectionsCtx(context.Background(), pattern)
}

// ListCollectionsCtx lists collection names, optionally LIKE-filtered.
func (c *Client) ListCollectionsCtx(ctx context.Context, pattern string) ([]string, error) {
	resp, err := call(ctx, c, mcswire.ListCollections, &mcswire.ListCollectionsRequest{Caller: c.dn, Pattern: pattern})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// CreateView registers a logical view with context.Background.
func (c *Client) CreateView(spec ViewSpec) (View, error) {
	return c.CreateViewCtx(context.Background(), spec)
}

// CreateViewCtx registers a logical view.
func (c *Client) CreateViewCtx(ctx context.Context, spec ViewSpec) (View, error) {
	resp, err := call(ctx, c, mcswire.CreateView, &mcswire.CreateViewRequest{
		Caller: c.dn, Name: spec.Name, Description: spec.Description, Audited: spec.Audited,
		Attributes: mcswire.AttrsToWire(spec.Attributes),
	})
	if err != nil {
		return View{}, err
	}
	return View{
		ID: resp.View.ID, Name: resp.View.Name, Description: resp.View.Description,
		Creator: resp.View.Creator, LastModifier: resp.View.LastModifier,
		Created: resp.View.Created, Modified: resp.View.Modified, Audited: resp.View.Audited,
	}, nil
}

// AddToView aggregates an object into a view with context.Background.
func (c *Client) AddToView(view string, objType ObjectType, member string) error {
	return c.AddToViewCtx(context.Background(), view, objType, member)
}

// AddToViewCtx aggregates an object into a view.
func (c *Client) AddToViewCtx(ctx context.Context, view string, objType ObjectType, member string) error {
	_, err := call(ctx, c, mcswire.AddToView, &mcswire.AddToViewRequest{
		Caller: c.dn, View: view, ObjectType: string(objType), Member: member,
	})
	return err
}

// RemoveFromView removes a view member with context.Background.
func (c *Client) RemoveFromView(view string, objType ObjectType, member string) error {
	return c.RemoveFromViewCtx(context.Background(), view, objType, member)
}

// RemoveFromViewCtx removes a member from a view.
func (c *Client) RemoveFromViewCtx(ctx context.Context, view string, objType ObjectType, member string) error {
	_, err := call(ctx, c, mcswire.RemoveFromView, &mcswire.RemoveFromViewRequest{
		Caller: c.dn, View: view, ObjectType: string(objType), Member: member,
	})
	return err
}

// ViewContents lists a view's members with context.Background.
func (c *Client) ViewContents(name string) ([]ViewMember, error) {
	return c.ViewContentsCtx(context.Background(), name)
}

// ViewContentsCtx lists a view's direct members.
func (c *Client) ViewContentsCtx(ctx context.Context, name string) ([]ViewMember, error) {
	resp, err := call(ctx, c, mcswire.ViewContents, &mcswire.ViewContentsRequest{Caller: c.dn, Name: name})
	if err != nil {
		return nil, err
	}
	members := make([]ViewMember, 0, len(resp.Members))
	for _, m := range resp.Members {
		members = append(members, ViewMember{Type: ObjectType(m.Type), ID: m.ID, Name: m.Name})
	}
	return members, nil
}

// ExpandView resolves a view with context.Background.
func (c *Client) ExpandView(name string) ([]string, error) {
	return c.ExpandViewCtx(context.Background(), name)
}

// ExpandViewCtx recursively resolves a view to logical file names.
func (c *Client) ExpandViewCtx(ctx context.Context, name string) ([]string, error) {
	resp, err := call(ctx, c, mcswire.ExpandView, &mcswire.ExpandViewRequest{Caller: c.dn, Name: name})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// DeleteView removes a view with context.Background.
func (c *Client) DeleteView(name string) error {
	return c.DeleteViewCtx(context.Background(), name)
}

// DeleteViewCtx removes a view (not its members).
func (c *Client) DeleteViewCtx(ctx context.Context, name string) error {
	_, err := call(ctx, c, mcswire.DeleteView, &mcswire.DeleteViewRequest{Caller: c.dn, Name: name})
	return err
}

// DefineAttribute declares an attribute with context.Background.
func (c *Client) DefineAttribute(name string, typ AttrType, description string) (AttributeDef, error) {
	return c.DefineAttributeCtx(context.Background(), name, typ, description)
}

// DefineAttributeCtx declares a user-defined attribute.
func (c *Client) DefineAttributeCtx(ctx context.Context, name string, typ AttrType, description string) (AttributeDef, error) {
	resp, err := call(ctx, c, mcswire.DefineAttribute, &mcswire.DefineAttributeRequest{
		Caller: c.dn, Name: name, Type: string(typ), Description: description,
	})
	if err != nil {
		return AttributeDef{}, err
	}
	return AttributeDef{ID: resp.ID, Name: resp.Name, Type: AttrType(resp.Type), Description: resp.Description}, nil
}

// ListAttributeDefs lists attribute declarations with context.Background.
func (c *Client) ListAttributeDefs() ([]AttributeDef, error) {
	return c.ListAttributeDefsCtx(context.Background())
}

// ListAttributeDefsCtx lists every declared user-defined attribute.
func (c *Client) ListAttributeDefsCtx(ctx context.Context) ([]AttributeDef, error) {
	resp, err := call(ctx, c, mcswire.ListAttributeDefs, &mcswire.ListAttributeDefsRequest{Caller: c.dn})
	if err != nil {
		return nil, err
	}
	defs := make([]AttributeDef, 0, len(resp.Defs))
	for _, d := range resp.Defs {
		defs = append(defs, AttributeDef{ID: d.ID, Name: d.Name, Type: AttrType(d.Type), Description: d.Description})
	}
	return defs, nil
}

// SetAttribute binds an attribute value with context.Background.
func (c *Client) SetAttribute(objType ObjectType, object, attr string, v AttrValue) error {
	return c.SetAttributeCtx(context.Background(), objType, object, attr, v)
}

// SetAttributeCtx binds a user-defined attribute value on an object.
func (c *Client) SetAttributeCtx(ctx context.Context, objType ObjectType, object, attr string, v AttrValue) error {
	_, err := call(ctx, c, mcswire.SetAttribute, &mcswire.SetAttributeRequest{
		Caller: c.dn, ObjectType: string(objType), Object: object,
		Attribute: mcswire.FromCore(Attribute{Name: attr, Value: v}),
	})
	return err
}

// UnsetAttribute removes an attribute binding with context.Background.
func (c *Client) UnsetAttribute(objType ObjectType, object, attr string) error {
	return c.UnsetAttributeCtx(context.Background(), objType, object, attr)
}

// UnsetAttributeCtx removes a user-defined attribute from an object.
func (c *Client) UnsetAttributeCtx(ctx context.Context, objType ObjectType, object, attr string) error {
	_, err := call(ctx, c, mcswire.UnsetAttribute, &mcswire.UnsetAttributeRequest{
		Caller: c.dn, ObjectType: string(objType), Object: object, Attribute: attr,
	})
	return err
}

// GetAttributes lists an object's attributes with context.Background.
func (c *Client) GetAttributes(objType ObjectType, object string) ([]Attribute, error) {
	return c.GetAttributesCtx(context.Background(), objType, object)
}

// GetAttributesCtx lists an object's user-defined attributes.
func (c *Client) GetAttributesCtx(ctx context.Context, objType ObjectType, object string) ([]Attribute, error) {
	resp, err := call(ctx, c, mcswire.GetAttributes, &mcswire.GetAttributesRequest{
		Caller: c.dn, ObjectType: string(objType), Object: object,
	})
	if err != nil {
		return nil, err
	}
	return mcswire.AttrsFromWire(resp.Attributes)
}

// RunQuery executes a discovery query with context.Background.
func (c *Client) RunQuery(q Query) ([]string, error) {
	return c.RunQueryCtx(context.Background(), q)
}

// RunQueryCtx executes an attribute-based discovery query, returning
// matching logical names.
func (c *Client) RunQueryCtx(ctx context.Context, q Query) ([]string, error) {
	resp, err := call(ctx, c, mcswire.Query, queryToWire(c.dn, q))
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// queryToWire builds the query request for q on behalf of dn.
func queryToWire(dn string, q Query) *mcswire.QueryRequest {
	return &mcswire.QueryRequest{
		Caller: dn, Target: string(q.Target), Limit: q.Limit,
		Predicates: mcswire.PredicatesToWire(q.Predicates),
	}
}

// RunQueryStream streams query matches with context.Background.
func (c *Client) RunQueryStream(q Query, row func(name string) error) error {
	return c.RunQueryStreamCtx(context.Background(), q, row)
}

// RunQueryStreamCtx executes a discovery query and hands each matching name
// to row as it arrives, without materializing the full result on either
// side. Over a streaming transport (TransportJSON) the rows ride one NDJSON
// response; otherwise the client pages through queryPage, which preserves
// the bounded-memory contract at one round trip per page. A non-nil error
// from row aborts the stream and is returned.
func (c *Client) RunQueryStreamCtx(ctx context.Context, q Query, row func(name string) error) error {
	if _, ok := c.wire.Codec.(mcswire.StreamCodec); ok {
		return c.wire.Stream(ctx, mcswire.Query.Name, nil, queryToWire(c.dn, q),
			func() any { return new(mcswire.QueryRow) },
			func(r any) error { return row(r.(*mcswire.QueryRow).Name) })
	}
	sent, token := 0, ""
	for {
		names, next, err := c.RunQueryPageCtx(ctx, q, 512, token)
		if err != nil {
			return err
		}
		for _, n := range names {
			if q.Limit > 0 && sent >= q.Limit {
				return nil
			}
			if err := row(n); err != nil {
				return err
			}
			sent++
		}
		if next == "" {
			return nil
		}
		token = next
	}
}

// RunQueryAttrs executes a query returning attributes with
// context.Background.
func (c *Client) RunQueryAttrs(q Query, returnAttrs []string) ([]QueryResult, error) {
	return c.RunQueryAttrsCtx(context.Background(), q, returnAttrs)
}

// RunQueryAttrsCtx executes a discovery query and also returns the values
// of the named user-defined attributes for every match.
func (c *Client) RunQueryAttrsCtx(ctx context.Context, q Query, returnAttrs []string) ([]QueryResult, error) {
	resp, err := call(ctx, c, mcswire.QueryAttrs, &mcswire.QueryAttrsRequest{
		Caller: c.dn, Target: string(q.Target), Limit: q.Limit, Return: returnAttrs,
		Predicates: mcswire.PredicatesToWire(q.Predicates),
	})
	if err != nil {
		return nil, err
	}
	results := make([]QueryResult, 0, len(resp.Results))
	for _, wr := range resp.Results {
		r := QueryResult{Name: wr.Name}
		if len(wr.Attributes) > 0 { // a match with no values keeps nil, as the catalog returns it
			if r.Attributes, err = mcswire.AttrsFromWire(wr.Attributes); err != nil {
				return nil, err
			}
		}
		results = append(results, r)
	}
	return results, nil
}

// Annotate attaches a note with context.Background.
func (c *Client) Annotate(objType ObjectType, object, text string) (int64, error) {
	return c.AnnotateCtx(context.Background(), objType, object, text)
}

// AnnotateCtx attaches a free-text note to an object.
func (c *Client) AnnotateCtx(ctx context.Context, objType ObjectType, object, text string) (int64, error) {
	resp, err := call(ctx, c, mcswire.Annotate, &mcswire.AnnotateRequest{
		Caller: c.dn, ObjectType: string(objType), Object: object, Text: text,
	})
	if err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// Annotations lists an object's notes with context.Background.
func (c *Client) Annotations(objType ObjectType, object string) ([]Annotation, error) {
	return c.AnnotationsCtx(context.Background(), objType, object)
}

// AnnotationsCtx lists the notes on an object, oldest first.
func (c *Client) AnnotationsCtx(ctx context.Context, objType ObjectType, object string) ([]Annotation, error) {
	resp, err := call(ctx, c, mcswire.GetAnnotations, &mcswire.GetAnnotationsRequest{
		Caller: c.dn, ObjectType: string(objType), Object: object,
	})
	if err != nil {
		return nil, err
	}
	anns := make([]Annotation, 0, len(resp.Annotations))
	for _, a := range resp.Annotations {
		anns = append(anns, Annotation{ID: a.ID, Text: a.Text, Creator: a.Creator, CreatedAt: a.At})
	}
	return anns, nil
}

// AddProvenance appends a history record with context.Background.
func (c *Client) AddProvenance(name string, version int, description string) error {
	return c.AddProvenanceCtx(context.Background(), name, version, description)
}

// AddProvenanceCtx appends a transformation-history record to a file.
func (c *Client) AddProvenanceCtx(ctx context.Context, name string, version int, description string) error {
	_, err := call(ctx, c, mcswire.AddProvenance, &mcswire.AddProvenanceRequest{
		Caller: c.dn, Name: name, Version: version, Description: description,
	})
	return err
}

// Provenance returns a file's history with context.Background.
func (c *Client) Provenance(name string, version int) ([]ProvenanceRecord, error) {
	return c.ProvenanceCtx(context.Background(), name, version)
}

// ProvenanceCtx returns a file's transformation history, oldest first.
func (c *Client) ProvenanceCtx(ctx context.Context, name string, version int) ([]ProvenanceRecord, error) {
	resp, err := call(ctx, c, mcswire.GetProvenance, &mcswire.GetProvenanceRequest{
		Caller: c.dn, Name: name, Version: version,
	})
	if err != nil {
		return nil, err
	}
	recs := make([]ProvenanceRecord, 0, len(resp.Records))
	for _, r := range resp.Records {
		recs = append(recs, ProvenanceRecord{ID: r.ID, Description: r.Description, At: r.At})
	}
	return recs, nil
}

// AuditLog returns an object's audit trail with context.Background.
func (c *Client) AuditLog(objType ObjectType, object string) ([]AuditRecord, error) {
	return c.AuditLogCtx(context.Background(), objType, object)
}

// AuditLogCtx returns the audit trail of an object, oldest first. Records
// written through the web service carry the request correlation ID of the
// call that caused them.
func (c *Client) AuditLogCtx(ctx context.Context, objType ObjectType, object string) ([]AuditRecord, error) {
	resp, err := call(ctx, c, mcswire.AuditLog, &mcswire.AuditLogRequest{
		Caller: c.dn, ObjectType: string(objType), Object: object,
	})
	if err != nil {
		return nil, err
	}
	recs := make([]AuditRecord, 0, len(resp.Records))
	for _, r := range resp.Records {
		recs = append(recs, AuditRecord{
			ID: r.ID, Action: r.Action, DN: r.DN, Detail: r.Detail,
			RequestID: r.RequestID, At: r.At,
		})
	}
	return recs, nil
}

// Grant gives a permission with context.Background.
func (c *Client) Grant(objType ObjectType, object, principal string, perm Permission) error {
	return c.GrantCtx(context.Background(), objType, object, principal, perm)
}

// GrantCtx gives principal a permission on an object ("" + ObjectService
// for service-level rights).
func (c *Client) GrantCtx(ctx context.Context, objType ObjectType, object, principal string, perm Permission) error {
	_, err := call(ctx, c, mcswire.Grant, &mcswire.GrantRequest{
		Caller: c.dn, ObjectType: string(objType), Object: object,
		Principal: principal, Permission: string(perm),
	})
	return err
}

// Revoke removes a permission with context.Background.
func (c *Client) Revoke(objType ObjectType, object, principal string, perm Permission) error {
	return c.RevokeCtx(context.Background(), objType, object, principal, perm)
}

// RevokeCtx removes a granted permission.
func (c *Client) RevokeCtx(ctx context.Context, objType ObjectType, object, principal string, perm Permission) error {
	_, err := call(ctx, c, mcswire.Revoke, &mcswire.RevokeRequest{
		Caller: c.dn, ObjectType: string(objType), Object: object,
		Principal: principal, Permission: string(perm),
	})
	return err
}

// RegisterWriter stores a writer record with context.Background.
func (c *Client) RegisterWriter(w Writer) error {
	return c.RegisterWriterCtx(context.Background(), w)
}

// RegisterWriterCtx stores a metadata-writer contact record.
func (c *Client) RegisterWriterCtx(ctx context.Context, w Writer) error {
	_, err := call(ctx, c, mcswire.RegisterWriter, &mcswire.RegisterWriterRequest{
		Caller: c.dn, DN: w.DN, Description: w.Description, Institution: w.Institution,
		Address: w.Address, Phone: w.Phone, Email: w.Email,
	})
	return err
}

// GetWriter fetches a writer record with context.Background.
func (c *Client) GetWriter(dn string) (Writer, error) {
	return c.GetWriterCtx(context.Background(), dn)
}

// GetWriterCtx fetches a writer contact record by DN.
func (c *Client) GetWriterCtx(ctx context.Context, dn string) (Writer, error) {
	resp, err := call(ctx, c, mcswire.GetWriter, &mcswire.GetWriterRequest{Caller: c.dn, DN: dn})
	if err != nil {
		return Writer{}, err
	}
	return Writer{DN: resp.DN, Description: resp.Description, Institution: resp.Institution,
		Address: resp.Address, Phone: resp.Phone, Email: resp.Email}, nil
}

// RegisterExternalCatalog records a catalog pointer with
// context.Background.
func (c *Client) RegisterExternalCatalog(ec ExternalCatalog) (int64, error) {
	return c.RegisterExternalCatalogCtx(context.Background(), ec)
}

// RegisterExternalCatalogCtx records a pointer to another metadata catalog.
func (c *Client) RegisterExternalCatalogCtx(ctx context.Context, ec ExternalCatalog) (int64, error) {
	resp, err := call(ctx, c, mcswire.RegisterExternalCatalog, &mcswire.RegisterExternalCatalogRequest{
		Caller: c.dn, Name: ec.Name, Type: ec.Type, Host: ec.Host, IP: ec.IP, Description: ec.Description,
	})
	if err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// ListExternalCatalogs lists external catalogs with context.Background.
func (c *Client) ListExternalCatalogs() ([]ExternalCatalog, error) {
	return c.ListExternalCatalogsCtx(context.Background())
}

// ListExternalCatalogsCtx lists the registered external catalogs.
func (c *Client) ListExternalCatalogsCtx(ctx context.Context) ([]ExternalCatalog, error) {
	resp, err := call(ctx, c, mcswire.ListExternalCatalogs, &mcswire.ListExternalCatalogsRequest{Caller: c.dn})
	if err != nil {
		return nil, err
	}
	list := make([]ExternalCatalog, 0, len(resp.Catalogs))
	for _, ec := range resp.Catalogs {
		list = append(list, ExternalCatalog{
			ID: ec.ID, Name: ec.Name, Type: ec.Type, Host: ec.Host, IP: ec.IP, Description: ec.Description,
		})
	}
	return list, nil
}

// Stats returns catalog row counts with context.Background.
func (c *Client) Stats() (Stats, error) { return c.StatsCtx(context.Background()) }

// StatsCtx returns catalog row counts.
func (c *Client) StatsCtx(ctx context.Context) (Stats, error) {
	resp, err := call(ctx, c, mcswire.Stats, &mcswire.StatsRequest{Caller: c.dn})
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Files: resp.Files, Collections: resp.Collections, Views: resp.Views,
		Attributes: resp.Attributes, AttrDefs: resp.AttrDefs,
	}, nil
}

// DiscoverySummary is the soft-state discovery summary a catalog publishes
// for federation and shard routing: its defined attribute names, a bloom
// filter over (attribute, value) bindings, and the binding count.
type DiscoverySummary struct {
	// Attrs lists the attribute names the catalog defines, sorted.
	Attrs []string
	// Pairs is the base64-encoded JSON bloom filter over attribute
	// bindings (internal/federation.Decode reads it).
	Pairs string
	// Objects counts the summarized bindings.
	Objects int
}

// FetchDiscoverySummary fetches the catalog's discovery summary with
// context.Background. FP is the requested bloom false-positive rate
// (0 selects the server default of 0.01).
func (c *Client) FetchDiscoverySummary(fp float64) (DiscoverySummary, error) {
	return c.FetchDiscoverySummaryCtx(context.Background(), fp)
}

// FetchDiscoverySummaryCtx fetches the catalog's discovery summary.
func (c *Client) FetchDiscoverySummaryCtx(ctx context.Context, fp float64) (DiscoverySummary, error) {
	resp, err := call(ctx, c, mcswire.DiscoverySummary, &mcswire.DiscoverySummaryRequest{Caller: c.dn, FP: fp})
	if err != nil {
		return DiscoverySummary{}, err
	}
	return DiscoverySummary{Attrs: resp.Attrs, Pairs: resp.Pairs, Objects: resp.Objects}, nil
}
