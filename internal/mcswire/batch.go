package mcswire

import (
	"encoding/xml"
	"fmt"

	"mcs/internal/core"
)

// --- Batched writes ---

// WireBatchCreate is a batched createFile (same fields as CreateFileRequest
// minus the envelope).
type WireBatchCreate struct {
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

// WireBatchUpdate is a batched updateFile; the Set* flags distinguish
// clearing a value from leaving it unchanged, as in UpdateFileRequest.
type WireBatchUpdate struct {
	Name                string `xml:"name" json:"name"`
	Version             int    `xml:"version,omitempty" json:"version,omitempty"`
	SetDataType         bool   `xml:"setDataType" json:"setDataType"`
	DataType            string `xml:"dataType,omitempty" json:"dataType,omitempty"`
	SetValid            bool   `xml:"setValid" json:"setValid"`
	Valid               bool   `xml:"valid,omitempty" json:"valid,omitempty"`
	SetContainerID      bool   `xml:"setContainerId" json:"setContainerId"`
	ContainerID         string `xml:"containerId,omitempty" json:"containerId,omitempty"`
	SetContainerService bool   `xml:"setContainerService" json:"setContainerService"`
	ContainerService    string `xml:"containerService,omitempty" json:"containerService,omitempty"`
	SetMasterCopy       bool   `xml:"setMasterCopy" json:"setMasterCopy"`
	MasterCopy          string `xml:"masterCopy,omitempty" json:"masterCopy,omitempty"`
}

// WireBatchDelete is a batched deleteFile.
type WireBatchDelete struct {
	Name    string `xml:"name" json:"name"`
	Version int    `xml:"version,omitempty" json:"version,omitempty"`
}

// WireBatchSetAttr is a batched setAttribute.
type WireBatchSetAttr struct {
	ObjectType string   `xml:"objectType" json:"objectType"`
	Object     string   `xml:"object" json:"object"`
	Attribute  WireAttr `xml:"attribute" json:"attribute"`
}

// WireBatchAnnotate is a batched annotate.
type WireBatchAnnotate struct {
	ObjectType string `xml:"objectType" json:"objectType"`
	Object     string `xml:"object" json:"object"`
	Text       string `xml:"text" json:"text"`
}

// WireBatchOp is one mutation in a batchWrite; exactly one member element is
// present.
type WireBatchOp struct {
	Create   *WireBatchCreate   `xml:"create" json:"create"`
	Update   *WireBatchUpdate   `xml:"update" json:"update"`
	Delete   *WireBatchDelete   `xml:"delete" json:"delete"`
	SetAttr  *WireBatchSetAttr  `xml:"setAttribute" json:"setAttribute"`
	Annotate *WireBatchAnnotate `xml:"annotate" json:"annotate"`
}

// BatchWriteRequest applies a sequence of mutations in one transaction.
// Quiet suppresses the per-op results: bulk loaders that never read the acks
// save serializing, shipping and parsing one result element per op.
type BatchWriteRequest struct {
	XMLName xml.Name      `xml:"urn:mcs batchWrite" json:"-"`
	Caller  string        `xml:"caller,omitempty" json:"caller,omitempty"`
	Quiet   bool          `xml:"quiet,omitempty" json:"quiet,omitempty"`
	Ops     []WireBatchOp `xml:"ops>op" json:"ops"`
}

// WireBatchResult is the outcome of one op in a committed batch. Results are
// compact acks — action, object ID and (for file ops) the resulting version
// — rather than full file echoes: serializing N WireFiles back would cost as
// much XML as the request itself and defeat the point of batching.
type WireBatchResult struct {
	Action  string `xml:"action" json:"action"`
	ID      int64  `xml:"id,omitempty" json:"id,omitempty"`
	Version int    `xml:"version,omitempty" json:"version,omitempty"`
}

// BatchWriteResponse returns one result per op, in request order. Count is
// the number of ops applied; quiet batches return only the count.
type BatchWriteResponse struct {
	XMLName xml.Name          `xml:"urn:mcs batchWriteResponse" json:"-"`
	Count   int               `xml:"count" json:"count"`
	Results []WireBatchResult `xml:"results>result" json:"results"`
}

// BatchOpToWire converts a core batch op to its wire form.
func BatchOpToWire(op core.BatchOp) (WireBatchOp, error) {
	switch {
	case op.CreateFile != nil:
		s := op.CreateFile
		w := &WireBatchCreate{
			Name: s.Name, Version: s.Version, DataType: s.DataType,
			Collection: s.Collection, ContainerID: s.ContainerID,
			ContainerService: s.ContainerService, MasterCopy: s.MasterCopy,
			Audited: s.Audited, Provenance: s.Provenance, Attributes: AttrsToWire(s.Attributes),
		}
		return WireBatchOp{Create: w}, nil
	case op.UpdateFile != nil:
		u := op.UpdateFile
		w := &WireBatchUpdate{Name: u.Name, Version: u.Version}
		if u.Update.DataType != nil {
			w.SetDataType, w.DataType = true, *u.Update.DataType
		}
		if u.Update.Valid != nil {
			w.SetValid, w.Valid = true, *u.Update.Valid
		}
		if u.Update.ContainerID != nil {
			w.SetContainerID, w.ContainerID = true, *u.Update.ContainerID
		}
		if u.Update.ContainerService != nil {
			w.SetContainerService, w.ContainerService = true, *u.Update.ContainerService
		}
		if u.Update.MasterCopy != nil {
			w.SetMasterCopy, w.MasterCopy = true, *u.Update.MasterCopy
		}
		return WireBatchOp{Update: w}, nil
	case op.DeleteFile != nil:
		return WireBatchOp{Delete: &WireBatchDelete{Name: op.DeleteFile.Name, Version: op.DeleteFile.Version}}, nil
	case op.SetAttribute != nil:
		s := op.SetAttribute
		return WireBatchOp{SetAttr: &WireBatchSetAttr{
			ObjectType: string(s.Object), Object: s.Name, Attribute: FromCore(s.Attribute),
		}}, nil
	case op.Annotate != nil:
		a := op.Annotate
		return WireBatchOp{Annotate: &WireBatchAnnotate{
			ObjectType: string(a.Object), Object: a.Name, Text: a.Text,
		}}, nil
	}
	return WireBatchOp{}, fmt.Errorf("batch op sets no operation")
}

// BatchOpFromWire converts a wire batch op back to the core form.
func BatchOpFromWire(w WireBatchOp) (core.BatchOp, error) {
	switch {
	case w.Create != nil:
		c := w.Create
		attrs, err := AttrsFromWire(c.Attributes)
		if err != nil {
			return core.BatchOp{}, err
		}
		return core.BatchOp{CreateFile: &core.FileSpec{
			Name: c.Name, Version: c.Version, DataType: c.DataType,
			Collection: c.Collection, ContainerID: c.ContainerID,
			ContainerService: c.ContainerService, MasterCopy: c.MasterCopy,
			Audited: c.Audited, Provenance: c.Provenance, Attributes: attrs,
		}}, nil
	case w.Update != nil:
		u := w.Update
		upd := core.BatchFileUpdate{Name: u.Name, Version: u.Version}
		if u.SetDataType {
			upd.Update.DataType = &u.DataType
		}
		if u.SetValid {
			upd.Update.Valid = &u.Valid
		}
		if u.SetContainerID {
			upd.Update.ContainerID = &u.ContainerID
		}
		if u.SetContainerService {
			upd.Update.ContainerService = &u.ContainerService
		}
		if u.SetMasterCopy {
			upd.Update.MasterCopy = &u.MasterCopy
		}
		return core.BatchOp{UpdateFile: &upd}, nil
	case w.Delete != nil:
		return core.BatchOp{DeleteFile: &core.BatchFileRef{Name: w.Delete.Name, Version: w.Delete.Version}}, nil
	case w.SetAttr != nil:
		a, err := w.SetAttr.Attribute.ToCore()
		if err != nil {
			return core.BatchOp{}, err
		}
		return core.BatchOp{SetAttribute: &core.BatchSetAttribute{
			Object: core.ObjectType(w.SetAttr.ObjectType), Name: w.SetAttr.Object, Attribute: a,
		}}, nil
	case w.Annotate != nil:
		return core.BatchOp{Annotate: &core.BatchAnnotation{
			Object: core.ObjectType(w.Annotate.ObjectType), Name: w.Annotate.Object, Text: w.Annotate.Text,
		}}, nil
	}
	return core.BatchOp{}, fmt.Errorf("batch op sets no operation")
}

// --- Paginated queries ---

// QueryPageRequest runs a discovery query returning one bounded page of
// names plus a continuation token.
type QueryPageRequest struct {
	XMLName    xml.Name        `xml:"urn:mcs queryPage" json:"-"`
	Caller     string          `xml:"caller,omitempty" json:"caller,omitempty"`
	Target     string          `xml:"target,omitempty" json:"target,omitempty"`
	Predicates []WirePredicate `xml:"predicates>predicate" json:"predicates"`
	PageSize   int             `xml:"pageSize,omitempty" json:"pageSize,omitempty"`
	Token      string          `xml:"token,omitempty" json:"token,omitempty"`
}

// QueryPageResponse returns one page of matching names. Next is the token
// for the following page; "" means the scan is complete. A page may be
// shorter than pageSize (authorization filtering) while Next is non-empty.
type QueryPageResponse struct {
	XMLName xml.Name `xml:"urn:mcs queryPageResponse" json:"-"`
	Names   []string `xml:"names>name" json:"names"`
	Next    string   `xml:"next,omitempty" json:"next,omitempty"`
}

// CollectionContentsPageRequest lists one bounded page of a collection's
// direct members.
type CollectionContentsPageRequest struct {
	XMLName  xml.Name `xml:"urn:mcs collectionContentsPage" json:"-"`
	Caller   string   `xml:"caller,omitempty" json:"caller,omitempty"`
	Name     string   `xml:"name" json:"name"`
	PageSize int      `xml:"pageSize,omitempty" json:"pageSize,omitempty"`
	Token    string   `xml:"token,omitempty" json:"token,omitempty"`
}

// CollectionContentsPageResponse returns one page of members
// (sub-collections first, then files) and a continuation token.
type CollectionContentsPageResponse struct {
	XMLName        xml.Name         `xml:"urn:mcs collectionContentsPageResponse" json:"-"`
	Files          []WireFile       `xml:"files>file" json:"files"`
	SubCollections []WireCollection `xml:"subCollections>collection" json:"subCollections"`
	Next           string           `xml:"next,omitempty" json:"next,omitempty"`
}
