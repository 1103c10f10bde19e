package core

import (
	"errors"
	"fmt"

	"mcs/internal/sqldb"
)

const collectionColumns = `id, name, description, parent_id, creator,
	last_modifier, created, modified, audited`

func scanCollection(row []sqldb.Value) Collection {
	col := Collection{
		ID:          row[0].Int(),
		Name:        row[1].S,
		Description: row[2].S,
	}
	if !row[3].IsNull() {
		col.ParentID = row[3].Int()
	}
	col.Creator = row[4].S
	col.LastModifier = row[5].S
	col.Created = row[6].Time()
	col.Modified = row[7].Time()
	col.Audited = row[8].Bool()
	return col
}

// CollectionSpec describes a logical collection to create.
type CollectionSpec struct {
	Name        string
	Description string
	Parent      string // optional parent collection name
	Audited     bool
	Attributes  []Attribute
}

// CreateCollection registers a logical collection. Collections form an
// acyclic tree: each has at most one parent.
func (c *Catalog) CreateCollection(dn string, spec CollectionSpec, opts ...OpOption) (Collection, error) {
	op := applyOpOptions(opts)
	if spec.Name == "" {
		return Collection{}, fmt.Errorf("%w: collection name required", ErrInvalidInput)
	}
	if err := c.require(c.db, dn, serviceObject, PermCreate); err != nil {
		return Collection{}, err
	}
	var parentID int64
	if spec.Parent != "" {
		parent, err := c.GetCollection(dn, spec.Parent)
		if err != nil {
			return Collection{}, fmt.Errorf("parent %q: %w", spec.Parent, err)
		}
		if err := c.require(c.db, dn, parent.ref(), PermWrite); err != nil {
			return Collection{}, err
		}
		parentID = parent.ID
	}
	type resolved struct {
		attrID int64
		col    string
		val    sqldb.Value
	}
	attrs := make([]resolved, 0, len(spec.Attributes))
	for _, a := range spec.Attributes {
		def, err := c.GetAttributeDef(a.Name)
		if err != nil {
			return Collection{}, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
		if def.Type != a.Value.Type {
			return Collection{}, fmt.Errorf("%w: attribute %q is %s, value is %s",
				ErrInvalidInput, a.Name, def.Type, a.Value.Type)
		}
		attrs = append(attrs, resolved{def.ID, def.Type.storageColumn(), a.Value.sqlValue()})
	}
	var out Collection
	err := c.withReplay(op, "createCollection", []any{dn, spec}, &out, func(tx *sqldb.Tx) error {
		now := c.now()
		res, err := tx.Exec(`INSERT INTO logical_collection
			(name, description, parent_id, creator, last_modifier, created, modified, audited)
			VALUES (?, ?, ?, ?, ?, ?, ?, ?)`,
			sqldb.Text(spec.Name), sqldb.Text(spec.Description), nullableID(parentID),
			sqldb.Text(dn), sqldb.Text(dn), now, now, sqldb.Bool(spec.Audited))
		if errors.Is(err, sqldb.ErrUniqueViolation) {
			return fmt.Errorf("%w: collection %q", ErrExists, spec.Name)
		}
		if err != nil {
			return err
		}
		id := res.LastInsertID
		for _, a := range attrs {
			if _, err := tx.Exec(fmt.Sprintf(
				"INSERT INTO user_attribute (object_type, object_id, attr_id, %s) VALUES (?, ?, ?, ?)", a.col),
				sqldb.Text(string(ObjectCollection)), sqldb.Int(id), sqldb.Int(a.attrID), a.val); err != nil {
				return err
			}
		}
		if spec.Audited {
			if err := c.auditTx(tx, ObjectCollection, id, "create", dn, spec.Name, op.requestID); err != nil {
				return err
			}
		}
		out = Collection{
			ID: id, Name: spec.Name, Description: spec.Description, ParentID: parentID,
			Creator: dn, LastModifier: dn, Created: now.Time(), Modified: now.Time(), Audited: spec.Audited,
		}
		return nil
	})
	if err != nil {
		return Collection{}, err
	}
	return out, nil
}

// GetCollection fetches a logical collection by name.
func (c *Catalog) GetCollection(dn, name string) (Collection, error) {
	return c.getCollectionQ(c.db, dn, name)
}

// getCollectionQ is GetCollection reading through q.
func (c *Catalog) getCollectionQ(q querier, dn, name string) (Collection, error) {
	rows, err := q.Query("SELECT "+collectionColumns+" FROM logical_collection WHERE name = ?",
		sqldb.Text(name))
	if err != nil {
		return Collection{}, err
	}
	if len(rows.Data) == 0 {
		return Collection{}, fmt.Errorf("%w: collection %q", ErrNotFound, name)
	}
	col := scanCollection(rows.Data[0])
	if err := c.require(q, dn, col.ref(), PermRead); err != nil {
		return Collection{}, err
	}
	return col, nil
}

// CollectionContents lists the files and sub-collections directly contained
// in a logical collection.
func (c *Catalog) CollectionContents(dn, name string) (files []File, subs []Collection, err error) {
	col, err := c.GetCollection(dn, name)
	if err != nil {
		return nil, nil, err
	}
	frows, err := c.db.Query("SELECT "+fileColumns+" FROM logical_file WHERE collection_id = ? ORDER BY name",
		sqldb.Int(col.ID))
	if err != nil {
		return nil, nil, err
	}
	for _, row := range frows.Data {
		files = append(files, scanFile(row))
	}
	crows, err := c.db.Query("SELECT "+collectionColumns+" FROM logical_collection WHERE parent_id = ? ORDER BY name",
		sqldb.Int(col.ID))
	if err != nil {
		return nil, nil, err
	}
	for _, row := range crows.Data {
		subs = append(subs, scanCollection(row))
	}
	return files, subs, nil
}

// collNode is one collection in the cached tree.
type collNode struct {
	parent  int64 // 0 for a root
	creator string
}

// collTree maps every collection ID to its node.
type collTree map[int64]collNode

// collectionTree returns the whole collection tree in one statement, cached
// on logical_collection's epoch, so an authorization walk costs no statement
// per level. Callers must treat the tree as read-only: cache hits share it.
func (c *Catalog) collectionTree(q querier) (collTree, error) {
	return cached(q, &c.treeCache, "logical_collection", struct{}{}, func() (collTree, error) {
		rows, err := q.Query("SELECT id, parent_id, creator FROM logical_collection")
		if err != nil {
			return nil, err
		}
		t := make(collTree, len(rows.Data))
		for _, r := range rows.Data {
			n := collNode{creator: r[2].S}
			if !r[1].IsNull() {
				n.parent = r[1].Int()
			}
			t[r[0].Int()] = n
		}
		return t, nil
	})
}

// walkUp calls fn with id and then each collection above it, nearest first,
// until fn returns true, and reports whether it did. A dangling ID ends the
// walk after fn has seen it. A walk longer than the tree has collections
// has met a parent cycle and fails with ErrCycle.
func (t collTree) walkUp(id int64, fn func(id int64) bool) (bool, error) {
	for steps := 0; id != 0; steps++ {
		if steps > len(t) {
			return false, fmt.Errorf("%w: collection hierarchy", ErrCycle)
		}
		if fn(id) {
			return true, nil
		}
		id = t[id].parent
	}
	return false, nil
}

// SetCollectionParent re-parents a collection ("" makes it a root),
// refusing moves that would create a cycle.
func (c *Catalog) SetCollectionParent(dn, name, parent string) error {
	col, err := c.GetCollection(dn, name)
	if err != nil {
		return err
	}
	if err := c.require(c.db, dn, col.ref(), PermWrite); err != nil {
		return err
	}
	var parentID int64
	if parent != "" {
		p, err := c.GetCollection(dn, parent)
		if err != nil {
			return err
		}
		tree, err := c.collectionTree(c.db)
		if err != nil {
			return err
		}
		if under, err := tree.walkUp(p.ID, func(id int64) bool { return id == col.ID }); err != nil {
			return err
		} else if under {
			return fmt.Errorf("%w: %q is an ancestor of %q", ErrCycle, name, parent)
		}
		parentID = p.ID
	}
	_, err = c.db.Exec("UPDATE logical_collection SET parent_id = ?, last_modifier = ?, modified = ? WHERE id = ?",
		nullableID(parentID), sqldb.Text(dn), c.now(), sqldb.Int(col.ID))
	return err
}

// DeleteCollection removes an empty logical collection.
func (c *Catalog) DeleteCollection(dn, name string, opts ...OpOption) error {
	op := applyOpOptions(opts)
	if hit, err := c.replayedEarly(op, "deleteCollection", []any{dn, name}); hit || err != nil {
		return err
	}
	col, err := c.GetCollection(dn, name)
	if err != nil {
		return err
	}
	if err := c.require(c.db, dn, col.ref(), PermDelete); err != nil {
		return err
	}
	nfiles, err := c.db.Query("SELECT COUNT(*) FROM logical_file WHERE collection_id = ?", sqldb.Int(col.ID))
	if err != nil {
		return err
	}
	nsubs, err := c.db.Query("SELECT COUNT(*) FROM logical_collection WHERE parent_id = ?", sqldb.Int(col.ID))
	if err != nil {
		return err
	}
	if nfiles.Data[0][0].Int() > 0 || nsubs.Data[0][0].Int() > 0 {
		return fmt.Errorf("%w: %q has %d files and %d sub-collections",
			ErrNotEmpty, name, nfiles.Data[0][0].Int(), nsubs.Data[0][0].Int())
	}
	return c.withReplay(op, "deleteCollection", []any{dn, name}, nil, func(tx *sqldb.Tx) error {
		id := sqldb.Int(col.ID)
		ct := sqldb.Text(string(ObjectCollection))
		if _, err := tx.Exec("DELETE FROM logical_collection WHERE id = ?", id); err != nil {
			return err
		}
		for _, stmt := range []string{
			"DELETE FROM user_attribute WHERE object_type = ? AND object_id = ?",
			"DELETE FROM annotation WHERE object_type = ? AND object_id = ?",
			"DELETE FROM acl WHERE object_type = ? AND object_id = ?",
			"DELETE FROM view_member WHERE object_type = ? AND object_id = ?",
		} {
			if _, err := tx.Exec(stmt, ct, id); err != nil {
				return err
			}
		}
		if col.Audited {
			return c.auditTx(tx, ObjectCollection, col.ID, "delete", dn, col.Name, op.requestID)
		}
		return nil
	})
}

// ListCollections returns the names of all collections, optionally filtered
// by a LIKE pattern.
func (c *Catalog) ListCollections(dn, pattern string) ([]string, error) {
	var rows *sqldb.Rows
	var err error
	if pattern == "" {
		rows, err = c.db.Query("SELECT name FROM logical_collection ORDER BY name")
	} else {
		rows, err = c.db.Query("SELECT name FROM logical_collection WHERE name LIKE ? ORDER BY name",
			sqldb.Text(pattern))
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(rows.Data))
	for _, r := range rows.Data {
		names = append(names, r[0].S)
	}
	return names, nil
}
