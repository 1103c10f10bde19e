package mcswire

// Op declares one catalog operation: its Name, which is its SOAP body
// element and its /api/v1/<Name> path (the reply element is
// Name+"Response"); whether it is Mutating; and, by its type parameters,
// the request and response structs that carry it. The operation set below
// is the one place an operation is named. The server and the router build
// their dispatch tables from it with Handle and HandleStream, and the
// router and the typed client call through it.
type Op[Req, Resp any] struct {
	Name string
	// Mutating marks operations that change catalog state. A retried
	// mutation carries an idempotency key, so the server applies it exactly
	// once however many attempts reach it, and the router passes the key on
	// to the shard; reads are safe to repeat and carry none.
	Mutating bool
}

// The operation set.
var (
	Ping = Op[PingRequest, PingResponse]{Name: "ping"}

	CreateFile   = Op[CreateFileRequest, CreateFileResponse]{Name: "createFile", Mutating: true}
	GetFile      = Op[GetFileRequest, GetFileResponse]{Name: "getFile"}
	FileVersions = Op[FileVersionsRequest, FileVersionsResponse]{Name: "fileVersions"}
	UpdateFile   = Op[UpdateFileRequest, UpdateFileResponse]{Name: "updateFile", Mutating: true}
	DeleteFile   = Op[DeleteFileRequest, DeleteFileResponse]{Name: "deleteFile", Mutating: true}
	MoveFile     = Op[MoveFileRequest, MoveFileResponse]{Name: "moveFile", Mutating: true}
	BatchWrite   = Op[BatchWriteRequest, BatchWriteResponse]{Name: "batchWrite", Mutating: true}

	CreateCollection       = Op[CreateCollectionRequest, CreateCollectionResponse]{Name: "createCollection", Mutating: true}
	GetCollection          = Op[GetCollectionRequest, GetCollectionResponse]{Name: "getCollection"}
	CollectionContents     = Op[CollectionContentsRequest, CollectionContentsResponse]{Name: "collectionContents"}
	CollectionContentsPage = Op[CollectionContentsPageRequest, CollectionContentsPageResponse]{Name: "collectionContentsPage"}
	DeleteCollection       = Op[DeleteCollectionRequest, DeleteCollectionResponse]{Name: "deleteCollection", Mutating: true}
	ListCollections        = Op[ListCollectionsRequest, ListCollectionsResponse]{Name: "listCollections"}

	CreateView     = Op[CreateViewRequest, CreateViewResponse]{Name: "createView", Mutating: true}
	AddToView      = Op[AddToViewRequest, AddToViewResponse]{Name: "addToView", Mutating: true}
	RemoveFromView = Op[RemoveFromViewRequest, RemoveFromViewResponse]{Name: "removeFromView", Mutating: true}
	ViewContents   = Op[ViewContentsRequest, ViewContentsResponse]{Name: "viewContents"}
	ExpandView     = Op[ExpandViewRequest, ExpandViewResponse]{Name: "expandView"}
	DeleteView     = Op[DeleteViewRequest, DeleteViewResponse]{Name: "deleteView", Mutating: true}

	DefineAttribute   = Op[DefineAttributeRequest, DefineAttributeResponse]{Name: "defineAttribute", Mutating: true}
	ListAttributeDefs = Op[ListAttributeDefsRequest, ListAttributeDefsResponse]{Name: "listAttributeDefs"}
	SetAttribute      = Op[SetAttributeRequest, SetAttributeResponse]{Name: "setAttribute", Mutating: true}
	UnsetAttribute    = Op[UnsetAttributeRequest, UnsetAttributeResponse]{Name: "unsetAttribute", Mutating: true}
	GetAttributes     = Op[GetAttributesRequest, GetAttributesResponse]{Name: "getAttributes"}

	Query      = Op[QueryRequest, QueryResponse]{Name: "query"}
	QueryPage  = Op[QueryPageRequest, QueryPageResponse]{Name: "queryPage"}
	QueryAttrs = Op[QueryAttrsRequest, QueryAttrsResponse]{Name: "queryAttrs"}

	Annotate       = Op[AnnotateRequest, AnnotateResponse]{Name: "annotate", Mutating: true}
	GetAnnotations = Op[GetAnnotationsRequest, GetAnnotationsResponse]{Name: "getAnnotations"}
	AddProvenance  = Op[AddProvenanceRequest, AddProvenanceResponse]{Name: "addProvenance", Mutating: true}
	GetProvenance  = Op[GetProvenanceRequest, GetProvenanceResponse]{Name: "getProvenance"}
	AuditLog       = Op[AuditLogRequest, AuditLogResponse]{Name: "auditLog"}

	Grant  = Op[GrantRequest, GrantResponse]{Name: "grant", Mutating: true}
	Revoke = Op[RevokeRequest, RevokeResponse]{Name: "revoke", Mutating: true}

	RegisterWriter          = Op[RegisterWriterRequest, RegisterWriterResponse]{Name: "registerWriter", Mutating: true}
	GetWriter               = Op[GetWriterRequest, GetWriterResponse]{Name: "getWriter"}
	RegisterExternalCatalog = Op[RegisterExternalCatalogRequest, RegisterExternalCatalogResponse]{Name: "registerExternalCatalog", Mutating: true}
	ListExternalCatalogs    = Op[ListExternalCatalogsRequest, ListExternalCatalogsResponse]{Name: "listExternalCatalogs"}
	Stats                   = Op[StatsRequest, StatsResponse]{Name: "stats"}
	DiscoverySummary        = Op[DiscoverySummaryRequest, DiscoverySummaryResponse]{Name: "discoverySummary"}
)

// Handle registers call as op's handler in t.
func Handle[Req, Resp any](t *Table, op Op[Req, Resp], call func(ctx *Ctx, req *Req) (*Resp, error)) {
	HandleStream(t, op, call, nil)
}

// HandleStream registers op in t with a unary call and, when stream is
// non-nil, a streamed one that hands result rows to emit as they surface.
func HandleStream[Req, Resp any](t *Table, op Op[Req, Resp], call func(ctx *Ctx, req *Req) (*Resp, error),
	stream func(ctx *Ctx, req *Req, emit func(row any) error) error) {
	h := Handler{
		Name:     op.Name,
		Mutating: op.Mutating,
		New:      func() any { return new(Req) },
		Call:     func(ctx *Ctx, req any) (any, error) { return call(ctx, req.(*Req)) },
	}
	if stream != nil {
		h.Stream = func(ctx *Ctx, req any, emit func(row any) error) error { return stream(ctx, req.(*Req), emit) }
	}
	t.Register(h)
}
