package core

import (
	"fmt"

	"mcs/internal/sqldb"
)

// BatchOp is one mutation inside a BatchWrite. Exactly one of the pointer
// fields must be set; the rest stay nil.
type BatchOp struct {
	CreateFile   *FileSpec
	UpdateFile   *BatchFileUpdate
	DeleteFile   *BatchFileRef
	SetAttribute *BatchSetAttribute
	Annotate     *BatchAnnotation
}

// BatchFileUpdate names the file (and optionally a version; 0 means latest)
// an embedded FileUpdate applies to.
type BatchFileUpdate struct {
	Name    string
	Version int
	Update  FileUpdate
}

// BatchFileRef identifies a file version for deletion (version 0 = latest).
type BatchFileRef struct {
	Name    string
	Version int
}

// BatchSetAttribute binds one user-defined attribute value on an object.
type BatchSetAttribute struct {
	Object    ObjectType
	Name      string
	Attribute Attribute
}

// BatchAnnotation attaches free text to an object.
type BatchAnnotation struct {
	Object ObjectType
	Name   string
	Text   string
}

// BatchResult reports the outcome of one op in a committed batch.
type BatchResult struct {
	// Action is the op kind: "createFile", "updateFile", "deleteFile",
	// "setAttribute" or "annotate".
	Action string
	// File is the resulting file for create/update ops — in-process callers
	// only. Batch acks over the wire are compact (a bulk load does not need
	// its metadata echoed back N times), so Client.BatchWrite leaves File
	// nil; fetch full metadata with GetFile when needed.
	File *File
	// ID is the object or annotation ID the op touched, when it has one.
	ID int64
	// Version is the resulting file version for create/update ops.
	Version int
}

// kind returns the op's action name, or "" if zero or more than one field
// is set.
func (op BatchOp) kind() string {
	var k string
	set := 0
	if op.CreateFile != nil {
		k, set = "createFile", set+1
	}
	if op.UpdateFile != nil {
		k, set = "updateFile", set+1
	}
	if op.DeleteFile != nil {
		k, set = "deleteFile", set+1
	}
	if op.SetAttribute != nil {
		k, set = "setAttribute", set+1
	}
	if op.Annotate != nil {
		k, set = "annotate", set+1
	}
	if set != 1 {
		return ""
	}
	return k
}

// BatchWrite applies a sequence of heterogeneous mutations in one
// transaction. The whole batch is all-or-nothing: if any op fails, every
// preceding op — including its audit record — is rolled back and the error
// identifies the offending op by index. The write lock is taken once for
// the batch, so a thousand creates cost one lock acquisition and one
// undo-log commit instead of a thousand; attribute definitions referenced
// repeatedly are resolved once per batch.
func (c *Catalog) BatchWrite(dn string, ops []BatchOp, opts ...OpOption) ([]BatchResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalidInput)
	}
	op := applyOpOptions(opts)
	defs := make(map[string]AttributeDef)
	results := make([]BatchResult, 0, len(ops))
	err := c.withReplay(op, "batchWrite", []any{dn, ops}, &results, func(tx *sqldb.Tx) error {
		for i, b := range ops {
			res, err := c.applyBatchOp(tx, dn, b, op, defs)
			if err != nil {
				return fmt.Errorf("batch op %d: %w", i, err)
			}
			results = append(results, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// applyBatchOp dispatches one batch op inside the batch transaction.
func (c *Catalog) applyBatchOp(tx *sqldb.Tx, dn string, b BatchOp, op opSettings, defs map[string]AttributeDef) (BatchResult, error) {
	switch b.kind() {
	case "createFile":
		f, err := c.createFileTx(tx, dn, *b.CreateFile, op, defs)
		if err != nil {
			return BatchResult{}, err
		}
		return BatchResult{Action: "createFile", File: &f, ID: f.ID, Version: f.Version}, nil
	case "updateFile":
		u := b.UpdateFile
		f, err := c.updateFileTx(tx, dn, u.Name, u.Version, u.Update, op)
		if err != nil {
			return BatchResult{}, err
		}
		return BatchResult{Action: "updateFile", File: &f, ID: f.ID, Version: f.Version}, nil
	case "deleteFile":
		d := b.DeleteFile
		id, err := c.deleteFileTx(tx, dn, d.Name, d.Version, op)
		if err != nil {
			return BatchResult{}, err
		}
		return BatchResult{Action: "deleteFile", ID: id}, nil
	case "setAttribute":
		s := b.SetAttribute
		err := c.setAttributeTx(tx, dn, s.Object, s.Name, s.Attribute.Name, s.Attribute.Value, defs)
		if err != nil {
			return BatchResult{}, err
		}
		return BatchResult{Action: "setAttribute"}, nil
	case "annotate":
		a := b.Annotate
		ann, err := c.annotateTx(tx, dn, a.Object, a.Name, a.Text)
		if err != nil {
			return BatchResult{}, err
		}
		return BatchResult{Action: "annotate", ID: ann.ID}, nil
	default:
		return BatchResult{}, fmt.Errorf("%w: batch op must set exactly one operation", ErrInvalidInput)
	}
}
