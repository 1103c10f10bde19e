package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mcs/internal/sqldb"
)

// Sentinel errors surfaced by catalog operations.
var (
	ErrNotFound      = errors.New("mcs: not found")
	ErrExists        = errors.New("mcs: already exists")
	ErrDenied        = errors.New("mcs: permission denied")
	ErrInvalidInput  = errors.New("mcs: invalid input")
	ErrCycle         = errors.New("mcs: operation would create a cycle")
	ErrNotEmpty      = errors.New("mcs: collection not empty")
	ErrAmbiguousFile = errors.New("mcs: multiple versions exist; specify a version")
	// ErrUnavailable marks transient server-side failures (injected faults,
	// overload) that are safe to retry; the SOAP layer maps it to the
	// "Unavailable" fault code.
	ErrUnavailable = errors.New("mcs: temporarily unavailable")
)

// Options configures a Catalog.
type Options struct {
	// Owner is the DN bootstrapped with service-level rights. Required when
	// EnforceAuthz is set.
	Owner string
	// EnforceAuthz turns on authorization checks. When false the catalog
	// trusts every caller (the mode used for the scalability study).
	EnforceAuthz bool
	// Clock overrides time.Now, for deterministic tests.
	Clock func() time.Time
}

// Catalog is the Metadata Catalog Service engine. It is safe for concurrent
// use by multiple goroutines.
type Catalog struct {
	db    *sqldb.DB
	opts  Options
	authz bool
	// replayHits counts mutations answered from the replay cache instead
	// of re-applied (see withReplay).
	replayHits atomic.Int64
	// Read caches, each tagged with the epoch of the table it reads
	// (cache.go).
	grantCache epochCache[string, map[grant]bool]
	treeCache  epochCache[struct{}, collTree]
	dictCache  epochCache[struct{}, map[string]AttributeDef]
	fileCache  epochCache[fileCacheKey, File]
}

// Open creates a fresh in-memory catalog with the MCS schema applied.
func Open(opts Options) (*Catalog, error) {
	if opts.EnforceAuthz && opts.Owner == "" {
		return nil, fmt.Errorf("%w: authorization requires an owner DN", ErrInvalidInput)
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	db := sqldb.New()
	if err := applySchema(db); err != nil {
		return nil, err
	}
	c := &Catalog{db: db, opts: opts, authz: opts.EnforceAuthz}
	if opts.Owner != "" {
		for _, p := range []Permission{PermRead, PermWrite, PermCreate, PermDelete, PermAnnotate} {
			if _, err := db.Exec(
				"INSERT INTO acl (object_type, object_id, principal, permission) VALUES (?, 0, ?, ?)",
				sqldb.Text(string(ObjectService)), sqldb.Text(opts.Owner), sqldb.Text(string(p))); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// DB exposes the underlying database for the benchmark harness's
// direct-database baseline (the "MySQL without web service" series).
func (c *Catalog) DB() *sqldb.DB { return c.db }

func (c *Catalog) now() sqldb.Value { return sqldb.Time(c.opts.Clock()) }

// FileSpec describes a logical file to create.
type FileSpec struct {
	Name             string
	Version          int // 0 assigns the next version number
	DataType         string
	Collection       string // optional logical collection name
	ContainerID      string
	ContainerService string
	MasterCopy       string
	Audited          bool
	Attributes       []Attribute // user-defined attributes set atomically
	Provenance       string      // optional initial creation record
}

// CreateFile registers a logical file and its user-defined attributes as one
// atomic operation, returning the stored static metadata.
func (c *Catalog) CreateFile(dn string, spec FileSpec, opts ...OpOption) (File, error) {
	op := applyOpOptions(opts)
	var out File
	err := c.withReplay(op, "createFile", []any{dn, spec}, &out, func(tx *sqldb.Tx) error {
		var err error
		out, err = c.createFileTx(tx, dn, spec, op, nil)
		return err
	})
	if err != nil {
		return File{}, err
	}
	return out, nil
}

// createFileTx applies a file creation inside an open transaction. All reads
// go through the transaction (the database write lock is already held).
// defs, when non-nil, memoizes attribute definitions across a batch.
func (c *Catalog) createFileTx(tx *sqldb.Tx, dn string, spec FileSpec, op opSettings, defs map[string]AttributeDef) (File, error) {
	if spec.Name == "" {
		return File{}, fmt.Errorf("%w: file name required", ErrInvalidInput)
	}
	if err := c.require(tx, dn, serviceObject, PermCreate); err != nil {
		return File{}, err
	}
	var collectionID int64
	if spec.Collection != "" {
		col, err := c.getCollectionQ(tx, dn, spec.Collection)
		if err != nil {
			return File{}, fmt.Errorf("collection %q: %w", spec.Collection, err)
		}
		if err := c.require(tx, dn, col.ref(), PermWrite); err != nil {
			return File{}, err
		}
		collectionID = col.ID
	}
	type resolved struct {
		attrID int64
		col    string
		val    sqldb.Value
	}
	attrs := make([]resolved, 0, len(spec.Attributes))
	for _, a := range spec.Attributes {
		def, err := c.attrDef(tx, defs, a.Name)
		if err != nil {
			return File{}, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
		if def.Type != a.Value.Type {
			return File{}, fmt.Errorf("%w: attribute %q is %s, value is %s",
				ErrInvalidInput, a.Name, def.Type, a.Value.Type)
		}
		attrs = append(attrs, resolved{attrID: def.ID, col: def.Type.storageColumn(), val: a.Value.sqlValue()})
	}

	version := spec.Version
	rows, err := tx.Query("SELECT version FROM logical_file WHERE name = ? ORDER BY version DESC LIMIT 1",
		sqldb.Text(spec.Name))
	if err != nil {
		return File{}, err
	}
	if version == 0 {
		version = 1
		if len(rows.Data) > 0 {
			version = int(rows.Data[0][0].Int()) + 1
		}
	} else {
		dup, err := tx.Query("SELECT id FROM logical_file WHERE name = ? AND version = ?",
			sqldb.Text(spec.Name), sqldb.Int(int64(version)))
		if err != nil {
			return File{}, err
		}
		if len(dup.Data) > 0 {
			return File{}, fmt.Errorf("%w: file %q version %d", ErrExists, spec.Name, version)
		}
	}
	now := c.now()
	res, err := tx.Exec(`INSERT INTO logical_file
		(name, version, data_type, valid, collection_id, container_id,
		 container_service, master_copy, creator, last_modifier, created, modified, audited)
		VALUES (?, ?, ?, TRUE, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
		sqldb.Text(spec.Name), sqldb.Int(int64(version)), sqldb.Text(spec.DataType),
		nullableID(collectionID), sqldb.Text(spec.ContainerID),
		sqldb.Text(spec.ContainerService), sqldb.Text(spec.MasterCopy),
		sqldb.Text(dn), sqldb.Text(dn), now, now, sqldb.Bool(spec.Audited))
	if err != nil {
		return File{}, err
	}
	fileID := res.LastInsertID
	for _, a := range attrs {
		if _, err := tx.Exec(fmt.Sprintf(
			"INSERT INTO user_attribute (object_type, object_id, attr_id, %s) VALUES (?, ?, ?, ?)", a.col),
			sqldb.Text(string(ObjectFile)), sqldb.Int(fileID), sqldb.Int(a.attrID), a.val); err != nil {
			return File{}, err
		}
	}
	if spec.Provenance != "" {
		if _, err := tx.Exec("INSERT INTO provenance (file_id, description, at) VALUES (?, ?, ?)",
			sqldb.Int(fileID), sqldb.Text(spec.Provenance), now); err != nil {
			return File{}, err
		}
	}
	if spec.Audited {
		if err := c.auditTx(tx, ObjectFile, fileID, "create", dn, spec.Name, op.requestID); err != nil {
			return File{}, err
		}
	}
	return File{
		ID: fileID, Name: spec.Name, Version: version, DataType: spec.DataType,
		Valid: true, CollectionID: collectionID, ContainerID: spec.ContainerID,
		ContainerService: spec.ContainerService, MasterCopy: spec.MasterCopy,
		Creator: dn, LastModifier: dn,
		Created: now.Time(), Modified: now.Time(), Audited: spec.Audited,
	}, nil
}

// nullableID renders 0 as NULL for optional foreign keys.
func nullableID(id int64) sqldb.Value {
	if id == 0 {
		return sqldb.Null()
	}
	return sqldb.Int(id)
}

const fileColumns = `id, name, version, data_type, valid, collection_id,
	container_id, container_service, master_copy, creator, last_modifier,
	created, modified, audited`

func scanFile(row []sqldb.Value) File {
	f := File{
		ID:       row[0].Int(),
		Name:     row[1].S,
		Version:  int(row[2].Int()),
		DataType: row[3].S,
		Valid:    row[4].Bool(),
	}
	if !row[5].IsNull() {
		f.CollectionID = row[5].Int()
	}
	f.ContainerID = row[6].S
	f.ContainerService = row[7].S
	f.MasterCopy = row[8].S
	f.Creator = row[9].S
	f.LastModifier = row[10].S
	f.Created = row[11].Time()
	f.Modified = row[12].Time()
	f.Audited = row[13].Bool()
	return f
}

// GetFile fetches a logical file by name. version 0 selects the only
// version if unique, otherwise the call fails with ErrAmbiguousFile,
// matching the paper's rule that name and version together identify the
// item once multiple versions exist.
func (c *Catalog) GetFile(dn, name string, version int) (File, error) {
	return c.getFileQ(c.db, dn, name, version)
}

// getFileQ is GetFile reading through q. The lookup is cached on
// logical_file's epoch; the authorization check always runs, so a hit never
// widens access.
func (c *Catalog) getFileQ(q querier, dn, name string, version int) (File, error) {
	f, err := cached(q, &c.fileCache, "logical_file", fileCacheKey{name: name, version: version}, func() (File, error) {
		var rows *sqldb.Rows
		var err error
		if version == 0 {
			rows, err = q.Query("SELECT "+fileColumns+" FROM logical_file WHERE name = ?",
				sqldb.Text(name))
		} else {
			rows, err = q.Query("SELECT "+fileColumns+" FROM logical_file WHERE name = ? AND version = ?",
				sqldb.Text(name), sqldb.Int(int64(version)))
		}
		if err != nil {
			return File{}, err
		}
		if len(rows.Data) == 0 {
			return File{}, fmt.Errorf("%w: file %q", ErrNotFound, name)
		}
		if version == 0 && len(rows.Data) > 1 {
			return File{}, fmt.Errorf("%w: file %q has %d versions", ErrAmbiguousFile, name, len(rows.Data))
		}
		return scanFile(rows.Data[0]), nil
	})
	if err != nil {
		return File{}, err
	}
	if err := c.require(q, dn, f.ref(), PermRead); err != nil {
		return File{}, err
	}
	return f, nil
}

// FileVersions lists all versions of a logical file name, oldest first.
// Versions dn may not read are left out; none left is ErrNotFound.
func (c *Catalog) FileVersions(dn, name string) ([]File, error) {
	files, err := c.versionsOf(dn, []string{name})
	if err == nil && len(files) == 0 {
		err = fmt.Errorf("%w: file %q", ErrNotFound, name)
	}
	return files, err
}

// FileUpdate holds the modifiable static attributes of a logical file.
// Nil pointers leave the field unchanged.
type FileUpdate struct {
	DataType         *string
	Valid            *bool
	ContainerID      *string
	ContainerService *string
	MasterCopy       *string
}

// UpdateFile modifies static attributes of a file.
func (c *Catalog) UpdateFile(dn, name string, version int, upd FileUpdate, opts ...OpOption) (File, error) {
	op := applyOpOptions(opts)
	var out File
	err := c.withReplay(op, "updateFile", []any{dn, name, version, upd}, &out, func(tx *sqldb.Tx) error {
		var err error
		out, err = c.updateFileTx(tx, dn, name, version, upd, op)
		return err
	})
	if err != nil {
		return File{}, err
	}
	return out, nil
}

// updateFileTx applies a static-attribute update inside an open transaction.
func (c *Catalog) updateFileTx(tx *sqldb.Tx, dn, name string, version int, upd FileUpdate, op opSettings) (File, error) {
	f, err := c.getFileQ(tx, dn, name, version)
	if err != nil {
		return File{}, err
	}
	if err := c.require(tx, dn, f.ref(), PermWrite); err != nil {
		return File{}, err
	}
	set := ""
	var args []sqldb.Value
	add := func(col string, v sqldb.Value) {
		if set != "" {
			set += ", "
		}
		set += col + " = ?"
		args = append(args, v)
	}
	if upd.DataType != nil {
		add("data_type", sqldb.Text(*upd.DataType))
		f.DataType = *upd.DataType
	}
	if upd.Valid != nil {
		add("valid", sqldb.Bool(*upd.Valid))
		f.Valid = *upd.Valid
	}
	if upd.ContainerID != nil {
		add("container_id", sqldb.Text(*upd.ContainerID))
		f.ContainerID = *upd.ContainerID
	}
	if upd.ContainerService != nil {
		add("container_service", sqldb.Text(*upd.ContainerService))
		f.ContainerService = *upd.ContainerService
	}
	if upd.MasterCopy != nil {
		add("master_copy", sqldb.Text(*upd.MasterCopy))
		f.MasterCopy = *upd.MasterCopy
	}
	if set == "" {
		return f, nil
	}
	now := c.now()
	add("last_modifier", sqldb.Text(dn))
	add("modified", now)
	f.LastModifier = dn
	f.Modified = now.Time()
	args = append(args, sqldb.Int(f.ID))
	if _, err := tx.Exec("UPDATE logical_file SET "+set+" WHERE id = ?", args...); err != nil {
		return File{}, err
	}
	if f.Audited {
		if err := c.auditTx(tx, ObjectFile, f.ID, "update", dn, "static attributes", op.requestID); err != nil {
			return File{}, err
		}
	}
	return f, nil
}

// InvalidateFile clears the valid flag, the paper's fast mechanism for a
// virtual organization to mark data as bad without deleting its metadata.
func (c *Catalog) InvalidateFile(dn, name string, version int) error {
	valid := false
	_, err := c.UpdateFile(dn, name, version, FileUpdate{Valid: &valid})
	return err
}

// DeleteFile removes a logical file and everything hanging off it:
// user-defined attributes, annotations, provenance, ACL entries and view
// memberships.
func (c *Catalog) DeleteFile(dn, name string, version int, opts ...OpOption) error {
	op := applyOpOptions(opts)
	return c.withReplay(op, "deleteFile", []any{dn, name, version}, nil, func(tx *sqldb.Tx) error {
		_, err := c.deleteFileTx(tx, dn, name, version, op)
		return err
	})
}

// deleteFileTx applies a file delete inside an open transaction and returns
// the deleted file's ID.
func (c *Catalog) deleteFileTx(tx *sqldb.Tx, dn, name string, version int, op opSettings) (int64, error) {
	f, err := c.getFileQ(tx, dn, name, version)
	if err != nil {
		return 0, err
	}
	if err := c.require(tx, dn, f.ref(), PermDelete); err != nil {
		return 0, err
	}
	id := sqldb.Int(f.ID)
	ft := sqldb.Text(string(ObjectFile))
	if _, err := tx.Exec("DELETE FROM logical_file WHERE id = ?", id); err != nil {
		return 0, err
	}
	for _, stmt := range []string{
		"DELETE FROM user_attribute WHERE object_type = ? AND object_id = ?",
		"DELETE FROM annotation WHERE object_type = ? AND object_id = ?",
		"DELETE FROM acl WHERE object_type = ? AND object_id = ?",
		"DELETE FROM view_member WHERE object_type = ? AND object_id = ?",
	} {
		if _, err := tx.Exec(stmt, ft, id); err != nil {
			return 0, err
		}
	}
	if _, err := tx.Exec("DELETE FROM provenance WHERE file_id = ?", id); err != nil {
		return 0, err
	}
	if f.Audited {
		if err := c.auditTx(tx, ObjectFile, f.ID, "delete", dn, f.Name, op.requestID); err != nil {
			return 0, err
		}
	}
	return f.ID, nil
}

// MoveFile reassigns a file to a different logical collection ("" removes it
// from its collection). The paper's single-collection rule is preserved.
func (c *Catalog) MoveFile(dn, name string, version int, collection string, opts ...OpOption) error {
	op := applyOpOptions(opts)
	f, err := c.GetFile(dn, name, version)
	if err != nil {
		return err
	}
	if err := c.require(c.db, dn, f.ref(), PermWrite); err != nil {
		return err
	}
	var newID int64
	if collection != "" {
		col, err := c.GetCollection(dn, collection)
		if err != nil {
			return err
		}
		if err := c.require(c.db, dn, col.ref(), PermWrite); err != nil {
			return err
		}
		newID = col.ID
	}
	return c.withReplay(op, "moveFile", []any{dn, name, version, collection}, nil, func(tx *sqldb.Tx) error {
		_, err := tx.Exec("UPDATE logical_file SET collection_id = ?, last_modifier = ?, modified = ? WHERE id = ?",
			nullableID(newID), sqldb.Text(dn), c.now(), sqldb.Int(f.ID))
		return err
	})
}
