// Package mcswire defines the SOAP wire schema of the Metadata Catalog
// Service: one request/response struct pair per operation of the MCS client
// API listed in the paper (create/query/modify/delete of logical objects,
// user-defined attributes, annotations, aggregation, authorization, audit).
//
// Attribute values travel as (name, type, rendered-string) triples; the
// typed forms are reconstructed with core.ParseAttrValue on the receiving
// side, matching how the original Java client marshalled values through
// Axis.
package mcswire

import (
	"encoding/xml"
	"fmt"
	"time"

	"mcs/internal/core"
)

// NS is the XML namespace of all MCS operations.
const NS = "urn:mcs"

// WireAttr is the wire form of one user-defined attribute value.
type WireAttr struct {
	Name  string `xml:"name" json:"name"`
	Type  string `xml:"type" json:"type"`
	Value string `xml:"value" json:"value"`
}

// ToCore converts a wire attribute to its typed form.
func (w WireAttr) ToCore() (core.Attribute, error) {
	v, err := core.ParseAttrValue(core.AttrType(w.Type), w.Value)
	if err != nil {
		return core.Attribute{}, err
	}
	return core.Attribute{Name: w.Name, Value: v}, nil
}

// FromCore converts a typed attribute to its wire form.
func FromCore(a core.Attribute) WireAttr {
	return WireAttr{Name: a.Name, Type: string(a.Value.Type), Value: a.Value.Render()}
}

// WirePredicate is the wire form of one query predicate.
type WirePredicate struct {
	Attribute string `xml:"attribute" json:"attribute"`
	Op        string `xml:"op" json:"op"`
	Type      string `xml:"type" json:"type"`
	Value     string `xml:"value" json:"value"`
}

// QueryFromWire converts a wire query (target + string-typed predicates)
// into a core.Query: the one conversion behind the server's query handlers
// and the router's screening, so both evaluate the same parsed query.
func QueryFromWire(target string, limit int, preds []WirePredicate) (core.Query, error) {
	q := core.Query{Target: core.ObjectType(target), Limit: limit}
	for _, wp := range preds {
		v, err := core.ParseAttrValue(core.AttrType(wp.Type), wp.Value)
		if err != nil {
			return core.Query{}, fmt.Errorf("predicate %q: %w", wp.Attribute, err)
		}
		q.Predicates = append(q.Predicates, core.Predicate{
			Attribute: wp.Attribute, Op: core.Op(wp.Op), Value: v,
		})
	}
	return q, nil
}

// WireFile is the wire form of a logical file's static metadata.
type WireFile struct {
	ID               int64     `xml:"id" json:"id"`
	Name             string    `xml:"name" json:"name"`
	Version          int       `xml:"version" json:"version"`
	DataType         string    `xml:"dataType" json:"dataType"`
	Valid            bool      `xml:"valid" json:"valid"`
	CollectionID     int64     `xml:"collectionId" json:"collectionId"`
	ContainerID      string    `xml:"containerId" json:"containerId"`
	ContainerService string    `xml:"containerService" json:"containerService"`
	MasterCopy       string    `xml:"masterCopy" json:"masterCopy"`
	Creator          string    `xml:"creator" json:"creator"`
	LastModifier     string    `xml:"lastModifier" json:"lastModifier"`
	Created          time.Time `xml:"created" json:"created"`
	Modified         time.Time `xml:"modified" json:"modified"`
	Audited          bool      `xml:"audited" json:"audited"`
}

// FileToWire converts core file metadata to the wire form.
func FileToWire(f core.File) WireFile {
	return WireFile{
		ID: f.ID, Name: f.Name, Version: f.Version, DataType: f.DataType,
		Valid: f.Valid, CollectionID: f.CollectionID, ContainerID: f.ContainerID,
		ContainerService: f.ContainerService, MasterCopy: f.MasterCopy,
		Creator: f.Creator, LastModifier: f.LastModifier,
		Created: f.Created, Modified: f.Modified, Audited: f.Audited,
	}
}

// FileFromWire converts wire file metadata back to the core form.
func FileFromWire(w WireFile) core.File {
	return core.File{
		ID: w.ID, Name: w.Name, Version: w.Version, DataType: w.DataType,
		Valid: w.Valid, CollectionID: w.CollectionID, ContainerID: w.ContainerID,
		ContainerService: w.ContainerService, MasterCopy: w.MasterCopy,
		Creator: w.Creator, LastModifier: w.LastModifier,
		Created: w.Created, Modified: w.Modified, Audited: w.Audited,
	}
}

// --- File operations ---

// CreateFileRequest registers a logical file.
type CreateFileRequest struct {
	XMLName          xml.Name   `xml:"urn:mcs createFile" json:"-"`
	Caller           string     `xml:"caller,omitempty" json:"caller,omitempty"`
	Name             string     `xml:"name" json:"name"`
	Version          int        `xml:"version,omitempty" json:"version,omitempty"`
	DataType         string     `xml:"dataType,omitempty" json:"dataType,omitempty"`
	Collection       string     `xml:"collection,omitempty" json:"collection,omitempty"`
	ContainerID      string     `xml:"containerId,omitempty" json:"containerId,omitempty"`
	ContainerService string     `xml:"containerService,omitempty" json:"containerService,omitempty"`
	MasterCopy       string     `xml:"masterCopy,omitempty" json:"masterCopy,omitempty"`
	Audited          bool       `xml:"audited,omitempty" json:"audited,omitempty"`
	Provenance       string     `xml:"provenance,omitempty" json:"provenance,omitempty"`
	Attributes       []WireAttr `xml:"attributes>attribute" json:"attributes"`
}

// CreateFileResponse returns the created file.
type CreateFileResponse struct {
	XMLName xml.Name `xml:"urn:mcs createFileResponse" json:"-"`
	File    WireFile `xml:"file" json:"file"`
}

// GetFileRequest fetches static file metadata by name (and version).
type GetFileRequest struct {
	XMLName xml.Name `xml:"urn:mcs getFile" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name    string   `xml:"name" json:"name"`
	Version int      `xml:"version,omitempty" json:"version,omitempty"`
}

// GetFileResponse returns static file metadata.
type GetFileResponse struct {
	XMLName xml.Name `xml:"urn:mcs getFileResponse" json:"-"`
	File    WireFile `xml:"file" json:"file"`
}

// FileVersionsRequest lists all versions of a logical name.
type FileVersionsRequest struct {
	XMLName xml.Name `xml:"urn:mcs fileVersions" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name    string   `xml:"name" json:"name"`
}

// FileVersionsResponse returns every version's metadata.
type FileVersionsResponse struct {
	XMLName xml.Name   `xml:"urn:mcs fileVersionsResponse" json:"-"`
	Files   []WireFile `xml:"files>file" json:"files"`
}

// UpdateFileRequest modifies static file attributes; empty strings mean
// "leave unchanged", the Set* flags distinguish clearing from omission.
type UpdateFileRequest struct {
	XMLName             xml.Name `xml:"urn:mcs updateFile" json:"-"`
	Caller              string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name                string   `xml:"name" json:"name"`
	Version             int      `xml:"version,omitempty" json:"version,omitempty"`
	SetDataType         bool     `xml:"setDataType" json:"setDataType"`
	DataType            string   `xml:"dataType,omitempty" json:"dataType,omitempty"`
	SetValid            bool     `xml:"setValid" json:"setValid"`
	Valid               bool     `xml:"valid,omitempty" json:"valid,omitempty"`
	SetContainerID      bool     `xml:"setContainerId" json:"setContainerId"`
	ContainerID         string   `xml:"containerId,omitempty" json:"containerId,omitempty"`
	SetContainerService bool     `xml:"setContainerService" json:"setContainerService"`
	ContainerService    string   `xml:"containerService,omitempty" json:"containerService,omitempty"`
	SetMasterCopy       bool     `xml:"setMasterCopy" json:"setMasterCopy"`
	MasterCopy          string   `xml:"masterCopy,omitempty" json:"masterCopy,omitempty"`
}

// UpdateFileResponse returns the file after the update.
type UpdateFileResponse struct {
	XMLName xml.Name `xml:"urn:mcs updateFileResponse" json:"-"`
	File    WireFile `xml:"file" json:"file"`
}

// DeleteFileRequest removes a logical file.
type DeleteFileRequest struct {
	XMLName xml.Name `xml:"urn:mcs deleteFile" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name    string   `xml:"name" json:"name"`
	Version int      `xml:"version,omitempty" json:"version,omitempty"`
}

// DeleteFileResponse acknowledges a delete.
type DeleteFileResponse struct {
	XMLName xml.Name `xml:"urn:mcs deleteFileResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// MoveFileRequest reassigns a file's logical collection.
type MoveFileRequest struct {
	XMLName    xml.Name `xml:"urn:mcs moveFile" json:"-"`
	Caller     string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name       string   `xml:"name" json:"name"`
	Version    int      `xml:"version,omitempty" json:"version,omitempty"`
	Collection string   `xml:"collection" json:"collection"`
}

// MoveFileResponse acknowledges a move.
type MoveFileResponse struct {
	XMLName xml.Name `xml:"urn:mcs moveFileResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// --- Collection operations ---

// CreateCollectionRequest registers a logical collection.
type CreateCollectionRequest struct {
	XMLName     xml.Name   `xml:"urn:mcs createCollection" json:"-"`
	Caller      string     `xml:"caller,omitempty" json:"caller,omitempty"`
	Name        string     `xml:"name" json:"name"`
	Description string     `xml:"description,omitempty" json:"description,omitempty"`
	Parent      string     `xml:"parent,omitempty" json:"parent,omitempty"`
	Audited     bool       `xml:"audited,omitempty" json:"audited,omitempty"`
	Attributes  []WireAttr `xml:"attributes>attribute" json:"attributes"`
}

// WireCollection is the wire form of collection metadata.
type WireCollection struct {
	ID           int64     `xml:"id" json:"id"`
	Name         string    `xml:"name" json:"name"`
	Description  string    `xml:"description" json:"description"`
	ParentID     int64     `xml:"parentId" json:"parentId"`
	Creator      string    `xml:"creator" json:"creator"`
	LastModifier string    `xml:"lastModifier" json:"lastModifier"`
	Created      time.Time `xml:"created" json:"created"`
	Modified     time.Time `xml:"modified" json:"modified"`
	Audited      bool      `xml:"audited" json:"audited"`
}

// CollectionToWire converts core collection metadata to the wire form.
func CollectionToWire(c core.Collection) WireCollection {
	return WireCollection{
		ID: c.ID, Name: c.Name, Description: c.Description, ParentID: c.ParentID,
		Creator: c.Creator, LastModifier: c.LastModifier,
		Created: c.Created, Modified: c.Modified, Audited: c.Audited,
	}
}

// CollectionFromWire converts wire collection metadata to the core form.
func CollectionFromWire(w WireCollection) core.Collection {
	return core.Collection{
		ID: w.ID, Name: w.Name, Description: w.Description, ParentID: w.ParentID,
		Creator: w.Creator, LastModifier: w.LastModifier,
		Created: w.Created, Modified: w.Modified, Audited: w.Audited,
	}
}

// CreateCollectionResponse returns the created collection.
type CreateCollectionResponse struct {
	XMLName    xml.Name       `xml:"urn:mcs createCollectionResponse" json:"-"`
	Collection WireCollection `xml:"collection" json:"collection"`
}

// GetCollectionRequest fetches collection metadata by name.
type GetCollectionRequest struct {
	XMLName xml.Name `xml:"urn:mcs getCollection" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name    string   `xml:"name" json:"name"`
}

// GetCollectionResponse returns collection metadata.
type GetCollectionResponse struct {
	XMLName    xml.Name       `xml:"urn:mcs getCollectionResponse" json:"-"`
	Collection WireCollection `xml:"collection" json:"collection"`
}

// CollectionContentsRequest lists a collection's direct members.
type CollectionContentsRequest struct {
	XMLName xml.Name `xml:"urn:mcs collectionContents" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name    string   `xml:"name" json:"name"`
}

// CollectionContentsResponse returns files and sub-collections.
type CollectionContentsResponse struct {
	XMLName        xml.Name         `xml:"urn:mcs collectionContentsResponse" json:"-"`
	Files          []WireFile       `xml:"files>file" json:"files"`
	SubCollections []WireCollection `xml:"subCollections>collection" json:"subCollections"`
}

// DeleteCollectionRequest removes an empty collection.
type DeleteCollectionRequest struct {
	XMLName xml.Name `xml:"urn:mcs deleteCollection" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name    string   `xml:"name" json:"name"`
}

// DeleteCollectionResponse acknowledges a delete.
type DeleteCollectionResponse struct {
	XMLName xml.Name `xml:"urn:mcs deleteCollectionResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// ListCollectionsRequest lists collection names matching a LIKE pattern.
type ListCollectionsRequest struct {
	XMLName xml.Name `xml:"urn:mcs listCollections" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Pattern string   `xml:"pattern,omitempty" json:"pattern,omitempty"`
}

// ListCollectionsResponse returns the matching names.
type ListCollectionsResponse struct {
	XMLName xml.Name `xml:"urn:mcs listCollectionsResponse" json:"-"`
	Names   []string `xml:"names>name" json:"names"`
}

// --- View operations ---

// WireView is the wire form of view metadata.
type WireView struct {
	ID           int64     `xml:"id" json:"id"`
	Name         string    `xml:"name" json:"name"`
	Description  string    `xml:"description" json:"description"`
	Creator      string    `xml:"creator" json:"creator"`
	LastModifier string    `xml:"lastModifier" json:"lastModifier"`
	Created      time.Time `xml:"created" json:"created"`
	Modified     time.Time `xml:"modified" json:"modified"`
	Audited      bool      `xml:"audited" json:"audited"`
}

// ViewToWire converts core view metadata to the wire form.
func ViewToWire(v core.View) WireView {
	return WireView{
		ID: v.ID, Name: v.Name, Description: v.Description,
		Creator: v.Creator, LastModifier: v.LastModifier,
		Created: v.Created, Modified: v.Modified, Audited: v.Audited,
	}
}

// CreateViewRequest registers a logical view.
type CreateViewRequest struct {
	XMLName     xml.Name   `xml:"urn:mcs createView" json:"-"`
	Caller      string     `xml:"caller,omitempty" json:"caller,omitempty"`
	Name        string     `xml:"name" json:"name"`
	Description string     `xml:"description,omitempty" json:"description,omitempty"`
	Audited     bool       `xml:"audited,omitempty" json:"audited,omitempty"`
	Attributes  []WireAttr `xml:"attributes>attribute" json:"attributes"`
}

// CreateViewResponse returns the created view.
type CreateViewResponse struct {
	XMLName xml.Name `xml:"urn:mcs createViewResponse" json:"-"`
	View    WireView `xml:"view" json:"view"`
}

// AddToViewRequest aggregates an object into a view.
type AddToViewRequest struct {
	XMLName    xml.Name `xml:"urn:mcs addToView" json:"-"`
	Caller     string   `xml:"caller,omitempty" json:"caller,omitempty"`
	View       string   `xml:"view" json:"view"`
	ObjectType string   `xml:"objectType" json:"objectType"`
	Member     string   `xml:"member" json:"member"`
}

// AddToViewResponse acknowledges the addition.
type AddToViewResponse struct {
	XMLName xml.Name `xml:"urn:mcs addToViewResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// RemoveFromViewRequest removes a member from a view.
type RemoveFromViewRequest struct {
	XMLName    xml.Name `xml:"urn:mcs removeFromView" json:"-"`
	Caller     string   `xml:"caller,omitempty" json:"caller,omitempty"`
	View       string   `xml:"view" json:"view"`
	ObjectType string   `xml:"objectType" json:"objectType"`
	Member     string   `xml:"member" json:"member"`
}

// RemoveFromViewResponse acknowledges the removal.
type RemoveFromViewResponse struct {
	XMLName xml.Name `xml:"urn:mcs removeFromViewResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// WireViewMember is one element of a view listing.
type WireViewMember struct {
	Type string `xml:"type" json:"type"`
	ID   int64  `xml:"id" json:"id"`
	Name string `xml:"name" json:"name"`
}

// ViewContentsRequest lists a view's direct members.
type ViewContentsRequest struct {
	XMLName xml.Name `xml:"urn:mcs viewContents" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name    string   `xml:"name" json:"name"`
}

// ViewContentsResponse returns the members.
type ViewContentsResponse struct {
	XMLName xml.Name         `xml:"urn:mcs viewContentsResponse" json:"-"`
	Members []WireViewMember `xml:"members>member" json:"members"`
}

// ExpandViewRequest recursively resolves a view to file names.
type ExpandViewRequest struct {
	XMLName xml.Name `xml:"urn:mcs expandView" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name    string   `xml:"name" json:"name"`
}

// ExpandViewResponse returns the reachable logical file names.
type ExpandViewResponse struct {
	XMLName xml.Name `xml:"urn:mcs expandViewResponse" json:"-"`
	Names   []string `xml:"names>name" json:"names"`
}

// DeleteViewRequest removes a view.
type DeleteViewRequest struct {
	XMLName xml.Name `xml:"urn:mcs deleteView" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name    string   `xml:"name" json:"name"`
}

// DeleteViewResponse acknowledges a delete.
type DeleteViewResponse struct {
	XMLName xml.Name `xml:"urn:mcs deleteViewResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// --- Attribute operations ---

// DefineAttributeRequest declares a user-defined attribute.
type DefineAttributeRequest struct {
	XMLName     xml.Name `xml:"urn:mcs defineAttribute" json:"-"`
	Caller      string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name        string   `xml:"name" json:"name"`
	Type        string   `xml:"type" json:"type"`
	Description string   `xml:"description,omitempty" json:"description,omitempty"`
}

// DefineAttributeResponse returns the declaration.
type DefineAttributeResponse struct {
	XMLName     xml.Name `xml:"urn:mcs defineAttributeResponse" json:"-"`
	ID          int64    `xml:"id" json:"id"`
	Name        string   `xml:"name" json:"name"`
	Type        string   `xml:"type" json:"type"`
	Description string   `xml:"description" json:"description"`
}

// ListAttributeDefsRequest lists all attribute declarations.
type ListAttributeDefsRequest struct {
	XMLName xml.Name `xml:"urn:mcs listAttributeDefs" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
}

// WireAttrDef is one attribute declaration on the wire.
type WireAttrDef struct {
	ID          int64  `xml:"id" json:"id"`
	Name        string `xml:"name" json:"name"`
	Type        string `xml:"type" json:"type"`
	Description string `xml:"description" json:"description"`
}

// ListAttributeDefsResponse returns all declarations.
type ListAttributeDefsResponse struct {
	XMLName xml.Name      `xml:"urn:mcs listAttributeDefsResponse" json:"-"`
	Defs    []WireAttrDef `xml:"defs>def" json:"defs"`
}

// SetAttributeRequest binds a user-defined attribute value on an object.
type SetAttributeRequest struct {
	XMLName    xml.Name `xml:"urn:mcs setAttribute" json:"-"`
	Caller     string   `xml:"caller,omitempty" json:"caller,omitempty"`
	ObjectType string   `xml:"objectType" json:"objectType"`
	Object     string   `xml:"object" json:"object"`
	Attribute  WireAttr `xml:"attribute" json:"attribute"`
}

// SetAttributeResponse acknowledges the binding.
type SetAttributeResponse struct {
	XMLName xml.Name `xml:"urn:mcs setAttributeResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// UnsetAttributeRequest removes a user-defined attribute from an object.
type UnsetAttributeRequest struct {
	XMLName    xml.Name `xml:"urn:mcs unsetAttribute" json:"-"`
	Caller     string   `xml:"caller,omitempty" json:"caller,omitempty"`
	ObjectType string   `xml:"objectType" json:"objectType"`
	Object     string   `xml:"object" json:"object"`
	Attribute  string   `xml:"attribute" json:"attribute"`
}

// UnsetAttributeResponse acknowledges the removal.
type UnsetAttributeResponse struct {
	XMLName xml.Name `xml:"urn:mcs unsetAttributeResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// GetAttributesRequest lists the user-defined attributes of an object.
type GetAttributesRequest struct {
	XMLName    xml.Name `xml:"urn:mcs getAttributes" json:"-"`
	Caller     string   `xml:"caller,omitempty" json:"caller,omitempty"`
	ObjectType string   `xml:"objectType" json:"objectType"`
	Object     string   `xml:"object" json:"object"`
}

// GetAttributesResponse returns the attribute bindings.
type GetAttributesResponse struct {
	XMLName    xml.Name   `xml:"urn:mcs getAttributesResponse" json:"-"`
	Attributes []WireAttr `xml:"attributes>attribute" json:"attributes"`
}

// --- Query ---

// QueryRequest runs an attribute-based discovery query.
type QueryRequest struct {
	XMLName    xml.Name        `xml:"urn:mcs query" json:"-"`
	Caller     string          `xml:"caller,omitempty" json:"caller,omitempty"`
	Target     string          `xml:"target,omitempty" json:"target,omitempty"`
	Predicates []WirePredicate `xml:"predicates>predicate" json:"predicates"`
	Limit      int             `xml:"limit,omitempty" json:"limit,omitempty"`
}

// QueryResponse returns the matching logical names.
type QueryResponse struct {
	XMLName xml.Name `xml:"urn:mcs queryResponse" json:"-"`
	Names   []string `xml:"names>name" json:"names"`
}

// QueryAttrsRequest runs a discovery query that also returns the values of
// the listed user-defined attributes for every match.
type QueryAttrsRequest struct {
	XMLName    xml.Name        `xml:"urn:mcs queryAttrs" json:"-"`
	Caller     string          `xml:"caller,omitempty" json:"caller,omitempty"`
	Target     string          `xml:"target,omitempty" json:"target,omitempty"`
	Predicates []WirePredicate `xml:"predicates>predicate" json:"predicates"`
	Limit      int             `xml:"limit,omitempty" json:"limit,omitempty"`
	Return     []string        `xml:"return>attribute" json:"return"`
}

// WireQueryResult is one matched name with its requested attribute values.
type WireQueryResult struct {
	Name       string     `xml:"name" json:"name"`
	Attributes []WireAttr `xml:"attributes>attribute" json:"attributes"`
}

// QueryAttrsResponse returns the matches and their attribute values.
type QueryAttrsResponse struct {
	XMLName xml.Name          `xml:"urn:mcs queryAttrsResponse" json:"-"`
	Results []WireQueryResult `xml:"results>result" json:"results"`
}

// --- Annotations, provenance, audit ---

// AnnotateRequest attaches an annotation to an object.
type AnnotateRequest struct {
	XMLName    xml.Name `xml:"urn:mcs annotate" json:"-"`
	Caller     string   `xml:"caller,omitempty" json:"caller,omitempty"`
	ObjectType string   `xml:"objectType" json:"objectType"`
	Object     string   `xml:"object" json:"object"`
	Text       string   `xml:"text" json:"text"`
}

// AnnotateResponse returns the stored annotation's ID.
type AnnotateResponse struct {
	XMLName xml.Name `xml:"urn:mcs annotateResponse" json:"-"`
	ID      int64    `xml:"id" json:"id"`
}

// WireAnnotation is one annotation on the wire.
type WireAnnotation struct {
	ID      int64     `xml:"id" json:"id"`
	Text    string    `xml:"text" json:"text"`
	Creator string    `xml:"creator" json:"creator"`
	At      time.Time `xml:"at" json:"at"`
}

// GetAnnotationsRequest lists the annotations on an object.
type GetAnnotationsRequest struct {
	XMLName    xml.Name `xml:"urn:mcs getAnnotations" json:"-"`
	Caller     string   `xml:"caller,omitempty" json:"caller,omitempty"`
	ObjectType string   `xml:"objectType" json:"objectType"`
	Object     string   `xml:"object" json:"object"`
}

// GetAnnotationsResponse returns the annotations, oldest first.
type GetAnnotationsResponse struct {
	XMLName     xml.Name         `xml:"urn:mcs getAnnotationsResponse" json:"-"`
	Annotations []WireAnnotation `xml:"annotations>annotation" json:"annotations"`
}

// AddProvenanceRequest appends a transformation-history record to a file.
type AddProvenanceRequest struct {
	XMLName     xml.Name `xml:"urn:mcs addProvenance" json:"-"`
	Caller      string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name        string   `xml:"name" json:"name"`
	Version     int      `xml:"version,omitempty" json:"version,omitempty"`
	Description string   `xml:"description" json:"description"`
}

// AddProvenanceResponse acknowledges the append.
type AddProvenanceResponse struct {
	XMLName xml.Name `xml:"urn:mcs addProvenanceResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// WireProvenance is one history record on the wire.
type WireProvenance struct {
	ID          int64     `xml:"id" json:"id"`
	Description string    `xml:"description" json:"description"`
	At          time.Time `xml:"at" json:"at"`
}

// GetProvenanceRequest lists a file's transformation history.
type GetProvenanceRequest struct {
	XMLName xml.Name `xml:"urn:mcs getProvenance" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name    string   `xml:"name" json:"name"`
	Version int      `xml:"version,omitempty" json:"version,omitempty"`
}

// GetProvenanceResponse returns the history, oldest first.
type GetProvenanceResponse struct {
	XMLName xml.Name         `xml:"urn:mcs getProvenanceResponse" json:"-"`
	Records []WireProvenance `xml:"records>record" json:"records"`
}

// WireAudit is one audit record on the wire.
type WireAudit struct {
	ID        int64     `xml:"id" json:"id"`
	Action    string    `xml:"action" json:"action"`
	DN        string    `xml:"dn" json:"dn"`
	Detail    string    `xml:"detail" json:"detail"`
	RequestID string    `xml:"requestId,omitempty" json:"requestId,omitempty"`
	At        time.Time `xml:"at" json:"at"`
}

// AuditLogRequest lists the audit trail of an object.
type AuditLogRequest struct {
	XMLName    xml.Name `xml:"urn:mcs auditLog" json:"-"`
	Caller     string   `xml:"caller,omitempty" json:"caller,omitempty"`
	ObjectType string   `xml:"objectType" json:"objectType"`
	Object     string   `xml:"object" json:"object"`
}

// AuditLogResponse returns the audit records, oldest first.
type AuditLogResponse struct {
	XMLName xml.Name    `xml:"urn:mcs auditLogResponse" json:"-"`
	Records []WireAudit `xml:"records>record" json:"records"`
}

// --- Authorization ---

// GrantRequest grants a permission on an object.
type GrantRequest struct {
	XMLName    xml.Name `xml:"urn:mcs grant" json:"-"`
	Caller     string   `xml:"caller,omitempty" json:"caller,omitempty"`
	ObjectType string   `xml:"objectType" json:"objectType"`
	Object     string   `xml:"object,omitempty" json:"object,omitempty"`
	Principal  string   `xml:"principal" json:"principal"`
	Permission string   `xml:"permission" json:"permission"`
}

// GrantResponse acknowledges the grant.
type GrantResponse struct {
	XMLName xml.Name `xml:"urn:mcs grantResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// RevokeRequest revokes a permission on an object.
type RevokeRequest struct {
	XMLName    xml.Name `xml:"urn:mcs revoke" json:"-"`
	Caller     string   `xml:"caller,omitempty" json:"caller,omitempty"`
	ObjectType string   `xml:"objectType" json:"objectType"`
	Object     string   `xml:"object,omitempty" json:"object,omitempty"`
	Principal  string   `xml:"principal" json:"principal"`
	Permission string   `xml:"permission" json:"permission"`
}

// RevokeResponse acknowledges the revocation.
type RevokeResponse struct {
	XMLName xml.Name `xml:"urn:mcs revokeResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// --- Writers, external catalogs, service ---

// RegisterWriterRequest stores a metadata-writer contact record.
type RegisterWriterRequest struct {
	XMLName     xml.Name `xml:"urn:mcs registerWriter" json:"-"`
	Caller      string   `xml:"caller,omitempty" json:"caller,omitempty"`
	DN          string   `xml:"dn" json:"dn"`
	Description string   `xml:"description,omitempty" json:"description,omitempty"`
	Institution string   `xml:"institution,omitempty" json:"institution,omitempty"`
	Address     string   `xml:"address,omitempty" json:"address,omitempty"`
	Phone       string   `xml:"phone,omitempty" json:"phone,omitempty"`
	Email       string   `xml:"email,omitempty" json:"email,omitempty"`
}

// RegisterWriterResponse acknowledges the registration.
type RegisterWriterResponse struct {
	XMLName xml.Name `xml:"urn:mcs registerWriterResponse" json:"-"`
	OK      bool     `xml:"ok" json:"ok"`
}

// GetWriterRequest fetches a writer contact record.
type GetWriterRequest struct {
	XMLName xml.Name `xml:"urn:mcs getWriter" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
	DN      string   `xml:"dn" json:"dn"`
}

// GetWriterResponse returns the contact record.
type GetWriterResponse struct {
	XMLName     xml.Name `xml:"urn:mcs getWriterResponse" json:"-"`
	DN          string   `xml:"dn" json:"dn"`
	Description string   `xml:"description" json:"description"`
	Institution string   `xml:"institution" json:"institution"`
	Address     string   `xml:"address" json:"address"`
	Phone       string   `xml:"phone" json:"phone"`
	Email       string   `xml:"email" json:"email"`
}

// RegisterExternalCatalogRequest records a pointer to another catalog.
type RegisterExternalCatalogRequest struct {
	XMLName     xml.Name `xml:"urn:mcs registerExternalCatalog" json:"-"`
	Caller      string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name        string   `xml:"name" json:"name"`
	Type        string   `xml:"type" json:"type"`
	Host        string   `xml:"host,omitempty" json:"host,omitempty"`
	IP          string   `xml:"ip,omitempty" json:"ip,omitempty"`
	Description string   `xml:"description,omitempty" json:"description,omitempty"`
}

// RegisterExternalCatalogResponse returns the assigned ID.
type RegisterExternalCatalogResponse struct {
	XMLName xml.Name `xml:"urn:mcs registerExternalCatalogResponse" json:"-"`
	ID      int64    `xml:"id" json:"id"`
}

// WireExternalCatalog is one external catalog pointer on the wire.
type WireExternalCatalog struct {
	ID          int64  `xml:"id" json:"id"`
	Name        string `xml:"name" json:"name"`
	Type        string `xml:"type" json:"type"`
	Host        string `xml:"host" json:"host"`
	IP          string `xml:"ip" json:"ip"`
	Description string `xml:"description" json:"description"`
}

// ListExternalCatalogsRequest lists the registered external catalogs.
type ListExternalCatalogsRequest struct {
	XMLName xml.Name `xml:"urn:mcs listExternalCatalogs" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
}

// ListExternalCatalogsResponse returns the catalog pointers.
type ListExternalCatalogsResponse struct {
	XMLName  xml.Name              `xml:"urn:mcs listExternalCatalogsResponse" json:"-"`
	Catalogs []WireExternalCatalog `xml:"catalogs>catalog" json:"catalogs"`
}

// StatsRequest asks for catalog row counts.
type StatsRequest struct {
	XMLName xml.Name `xml:"urn:mcs stats" json:"-"`
	Caller  string   `xml:"caller,omitempty" json:"caller,omitempty"`
}

// StatsResponse returns the row counts.
type StatsResponse struct {
	XMLName     xml.Name `xml:"urn:mcs statsResponse" json:"-"`
	Files       int      `xml:"files" json:"files"`
	Collections int      `xml:"collections" json:"collections"`
	Views       int      `xml:"views" json:"views"`
	Attributes  int      `xml:"attributes" json:"attributes"`
	AttrDefs    int      `xml:"attrDefs" json:"attrDefs"`
}

// PingRequest is a liveness probe.
type PingRequest struct {
	XMLName xml.Name `xml:"urn:mcs ping" json:"-"`
}

// PingResponse acknowledges a ping and reports the caller's DN as seen by
// the server (useful for verifying authentication end to end).
type PingResponse struct {
	XMLName xml.Name `xml:"urn:mcs pingResponse" json:"-"`
	DN      string   `xml:"dn" json:"dn"`
}
