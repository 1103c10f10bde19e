package mcs

import (
	"context"

	"mcs/internal/mcswire"
)

// BatchBuilder accumulates mutations for one BatchWrite call. Methods chain:
//
//	res, err := c.BatchWrite(mcs.NewBatch().
//		CreateFile(mcs.FileSpec{Name: "f1"}).
//		SetAttribute(mcs.ObjectFile, "f1", mcs.Attribute{Name: "owner", Value: mcs.String("cms")}).
//		Ops())
type BatchBuilder struct {
	ops []BatchOp
}

// NewBatch returns an empty batch builder.
func NewBatch() *BatchBuilder { return &BatchBuilder{} }

// CreateFile appends a file registration.
func (b *BatchBuilder) CreateFile(spec FileSpec) *BatchBuilder {
	b.ops = append(b.ops, BatchOp{CreateFile: &spec})
	return b
}

// UpdateFile appends a static-metadata update of the named file version
// (version 0 = latest).
func (b *BatchBuilder) UpdateFile(name string, version int, upd FileUpdate) *BatchBuilder {
	b.ops = append(b.ops, BatchOp{UpdateFile: &BatchFileUpdate{Name: name, Version: version, Update: upd}})
	return b
}

// DeleteFile appends a file deletion (version 0 = latest).
func (b *BatchBuilder) DeleteFile(name string, version int) *BatchBuilder {
	b.ops = append(b.ops, BatchOp{DeleteFile: &BatchFileRef{Name: name, Version: version}})
	return b
}

// SetAttribute appends a user-defined attribute binding.
func (b *BatchBuilder) SetAttribute(objType ObjectType, object string, a Attribute) *BatchBuilder {
	b.ops = append(b.ops, BatchOp{SetAttribute: &BatchSetAttribute{Object: objType, Name: object, Attribute: a}})
	return b
}

// Annotate appends a free-text annotation.
func (b *BatchBuilder) Annotate(objType ObjectType, object, text string) *BatchBuilder {
	b.ops = append(b.ops, BatchOp{Annotate: &BatchAnnotation{Object: objType, Name: object, Text: text}})
	return b
}

// Len returns the number of accumulated ops.
func (b *BatchBuilder) Len() int { return len(b.ops) }

// Ops returns the accumulated ops in insertion order.
func (b *BatchBuilder) Ops() []BatchOp { return b.ops }

// BatchWrite applies a batch with context.Background.
func (c *Client) BatchWrite(ops []BatchOp) ([]BatchResult, error) {
	return c.BatchWriteCtx(context.Background(), ops)
}

// BatchWriteCtx applies a sequence of mutations in one server-side
// transaction and one SOAP round trip. The batch is all-or-nothing: on
// error nothing was applied, and the error names the failing op by index.
func (c *Client) BatchWriteCtx(ctx context.Context, ops []BatchOp) ([]BatchResult, error) {
	req := &mcswire.BatchWriteRequest{Caller: c.dn}
	for _, op := range ops {
		wo, err := mcswire.BatchOpToWire(op)
		if err != nil {
			return nil, err
		}
		req.Ops = append(req.Ops, wo)
	}
	resp, err := call(ctx, c, mcswire.BatchWrite, req)
	if err != nil {
		return nil, err
	}
	results := make([]BatchResult, 0, len(resp.Results))
	for _, wr := range resp.Results {
		results = append(results, BatchResult{Action: wr.Action, ID: wr.ID, Version: wr.Version})
	}
	return results, nil
}

// BatchWriteQuiet applies a batch without per-op acks, with
// context.Background.
func (c *Client) BatchWriteQuiet(ops []BatchOp) (int, error) {
	return c.BatchWriteQuietCtx(context.Background(), ops)
}

// BatchWriteQuietCtx applies a batch like BatchWriteCtx but asks the server
// to suppress the per-op results, returning only the count of applied ops.
// Bulk loaders that never read the acks save one result element per op in
// serialization, transfer and parsing; atomicity and error reporting are
// identical to BatchWriteCtx.
func (c *Client) BatchWriteQuietCtx(ctx context.Context, ops []BatchOp) (int, error) {
	req := &mcswire.BatchWriteRequest{Caller: c.dn, Quiet: true}
	for _, op := range ops {
		wo, err := mcswire.BatchOpToWire(op)
		if err != nil {
			return 0, err
		}
		req.Ops = append(req.Ops, wo)
	}
	resp, err := call(ctx, c, mcswire.BatchWrite, req)
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// RunQueryPage runs one page of a query with context.Background.
func (c *Client) RunQueryPage(q Query, pageSize int, token string) ([]string, string, error) {
	return c.RunQueryPageCtx(context.Background(), q, pageSize, token)
}

// RunQueryPageCtx executes a discovery query returning at most pageSize
// matching names plus a continuation token; "" means the scan is done. A
// page may come back shorter than pageSize — even empty — with a non-empty
// token when authorization filtering hides names, so iterate until the
// token is "" rather than until a short page.
func (c *Client) RunQueryPageCtx(ctx context.Context, q Query, pageSize int, token string) ([]string, string, error) {
	resp, err := call(ctx, c, mcswire.QueryPage, &mcswire.QueryPageRequest{
		Caller: c.dn, Target: string(q.Target), PageSize: pageSize, Token: token,
		Predicates: mcswire.PredicatesToWire(q.Predicates),
	})
	if err != nil {
		return nil, "", err
	}
	return resp.Names, resp.Next, nil
}

// QueryEachCtx streams every match of a query through fn, fetching pages of
// pageSize behind the scenes. Iteration stops early when fn returns an
// error, which is returned as-is.
func (c *Client) QueryEachCtx(ctx context.Context, q Query, pageSize int, fn func(name string) error) error {
	token := ""
	for {
		names, next, err := c.RunQueryPageCtx(ctx, q, pageSize, token)
		if err != nil {
			return err
		}
		for _, name := range names {
			if err := fn(name); err != nil {
				return err
			}
		}
		if next == "" {
			return nil
		}
		token = next
	}
}

// CollectionContentsPage lists one page of a collection with
// context.Background.
func (c *Client) CollectionContentsPage(name string, pageSize int, token string) ([]File, []Collection, string, error) {
	return c.CollectionContentsPageCtx(context.Background(), name, pageSize, token)
}

// CollectionContentsPageCtx lists up to pageSize direct members of a
// collection (sub-collections first, then files) plus a continuation token;
// "" means the listing is complete.
func (c *Client) CollectionContentsPageCtx(ctx context.Context, name string, pageSize int, token string) ([]File, []Collection, string, error) {
	resp, err := call(ctx, c, mcswire.CollectionContentsPage, &mcswire.CollectionContentsPageRequest{
		Caller: c.dn, Name: name, PageSize: pageSize, Token: token,
	})
	if err != nil {
		return nil, nil, "", err
	}
	files := make([]File, 0, len(resp.Files))
	for _, wf := range resp.Files {
		files = append(files, mcswire.FileFromWire(wf))
	}
	subs := make([]Collection, 0, len(resp.SubCollections))
	for _, wc := range resp.SubCollections {
		subs = append(subs, mcswire.CollectionFromWire(wc))
	}
	return files, subs, resp.Next, nil
}

// CollectionContentsEachCtx streams every direct member of a collection,
// fetching pages of pageSize behind the scenes. Sub-collections arrive via
// onSub (nil to skip), files via onFile (nil to skip); an error from either
// stops the walk and is returned as-is.
func (c *Client) CollectionContentsEachCtx(ctx context.Context, name string, pageSize int,
	onFile func(File) error, onSub func(Collection) error) error {
	token := ""
	for {
		files, subs, next, err := c.CollectionContentsPageCtx(ctx, name, pageSize, token)
		if err != nil {
			return err
		}
		for _, s := range subs {
			if onSub != nil {
				if err := onSub(s); err != nil {
					return err
				}
			}
		}
		for _, f := range files {
			if onFile != nil {
				if err := onFile(f); err != nil {
					return err
				}
			}
		}
		if next == "" {
			return nil
		}
		token = next
	}
}
