package core

import (
	"fmt"

	"mcs/internal/sqldb"
)

// The MCS authorization model, per section 5 of the paper:
//
//   - Permissions may be granted on the service itself (e.g. the right to
//     add logical files), on individual files, on collections and on views.
//   - Permissions granted on a collection apply to every file in it and in
//     its sub-collections: "the effective set of permissions on a logical
//     file is the union of the permissions on that file and the permissions
//     on a logical collection to which the file belongs, and so on up the
//     hierarchy of collections."
//   - Views do not affect authorization.
//   - The creator of an object implicitly holds every permission on it.

// Grant gives principal a permission on an object. objectName may be "" with
// objType == ObjectService for service-level rights. Granting requires write
// permission on the object (or service write for service-level grants).
func (c *Catalog) Grant(dn string, objType ObjectType, objectName, principal string, perm Permission) error {
	if !perm.Valid() {
		return fmt.Errorf("%w: permission %q", ErrInvalidInput, perm)
	}
	o, err := c.objectOrService(dn, objType, objectName, PermWrite)
	if err != nil {
		return err
	}
	dup, err := c.db.Query(
		"SELECT id FROM acl WHERE object_type = ? AND object_id = ? AND principal = ? AND permission = ?",
		sqldb.Text(string(objType)), sqldb.Int(o.id), sqldb.Text(principal), sqldb.Text(string(perm)))
	if err != nil {
		return err
	}
	if len(dup.Data) > 0 {
		return nil // idempotent
	}
	_, err = c.db.Exec(
		"INSERT INTO acl (object_type, object_id, principal, permission) VALUES (?, ?, ?, ?)",
		sqldb.Text(string(objType)), sqldb.Int(o.id), sqldb.Text(principal), sqldb.Text(string(perm)))
	return err
}

// Revoke removes a granted permission.
func (c *Catalog) Revoke(dn string, objType ObjectType, objectName, principal string, perm Permission) error {
	o, err := c.objectOrService(dn, objType, objectName, PermWrite)
	if err != nil {
		return err
	}
	_, err = c.db.Exec(
		"DELETE FROM acl WHERE object_type = ? AND object_id = ? AND principal = ? AND permission = ?",
		sqldb.Text(string(objType)), sqldb.Int(o.id), sqldb.Text(principal), sqldb.Text(string(perm)))
	return err
}

// objectOrService resolves the object a grant names — the service itself
// when objType is ObjectService — and requires perm on it.
func (c *Catalog) objectOrService(dn string, objType ObjectType, objectName string, perm Permission) (authObject, error) {
	o := serviceObject
	if objType != ObjectService {
		var err error
		if o, err = c.resolve(c.db, dn, objType, objectName); err != nil {
			return authObject{}, err
		}
	}
	return o, c.require(c.db, dn, o, perm)
}

// Permissions lists the explicit grants on one object.
func (c *Catalog) Permissions(dn string, objType ObjectType, objectName string) (map[string][]Permission, error) {
	o, err := c.objectOrService(dn, objType, objectName, PermRead)
	if err != nil {
		return nil, err
	}
	rows, err := c.db.Query(
		"SELECT principal, permission FROM acl WHERE object_type = ? AND object_id = ?",
		sqldb.Text(string(objType)), sqldb.Int(o.id))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]Permission)
	for _, r := range rows.Data {
		out[r[0].S] = append(out[r[0].S], Permission(r[1].S))
	}
	return out, nil
}

// authObject is what the access rule needs to know of an object: its type
// and ID, its creator, and the collection above it — a file's collection, a
// collection's parent, 0 for none and for views. Callers build it from the
// object row they already hold, so a check costs no statement of its own.
type authObject struct {
	typ     ObjectType
	id      int64
	creator string
	parent  int64
}

// serviceObject is the service itself, the target of service-level grants.
var serviceObject = authObject{typ: ObjectService}

func (f *File) ref() authObject {
	return authObject{typ: ObjectFile, id: f.ID, creator: f.Creator, parent: f.CollectionID}
}

func (col *Collection) ref() authObject {
	return authObject{typ: ObjectCollection, id: col.ID, creator: col.Creator, parent: col.ParentID}
}

func (v *View) ref() authObject {
	return authObject{typ: ObjectView, id: v.ID, creator: v.Creator}
}

// grant is one acl row of a principal's.
type grant struct {
	typ  ObjectType
	id   int64
	perm Permission
}

// grantsOf returns dn's grants, cached on acl's epoch. Callers must treat
// the set as read-only: cache hits share it.
func (c *Catalog) grantsOf(q querier, dn string) (map[grant]bool, error) {
	return cached(q, &c.grantCache, "acl", dn, func() (map[grant]bool, error) {
		rows, err := q.Query("SELECT object_type, object_id, permission FROM acl WHERE principal = ?", sqldb.Text(dn))
		if err != nil {
			return nil, err
		}
		m := make(map[grant]bool, len(rows.Data))
		for _, r := range rows.Data {
			m[grant{ObjectType(r[0].S), r[1].Int(), Permission(r[2].S)}] = true
		}
		return m, nil
	})
}

// allowed decides whether dn holds perm on o by the paper's rule, in this
// order: the owner; a service-level grant; the object's creator; a grant on
// the object; then, up the collection tree from o.parent, an ancestor's
// creator or a grant on that ancestor. Views grant nothing to what they
// hold, so a view's parent is always 0.
func (c *Catalog) allowed(q querier, dn string, o authObject, perm Permission) (bool, error) {
	if !c.authz || (dn == c.opts.Owner && c.opts.Owner != "") {
		return true, nil
	}
	grants, err := c.grantsOf(q, dn)
	if err != nil {
		return false, err
	}
	if grants[grant{ObjectService, 0, perm}] {
		return true, nil
	}
	if o.typ == ObjectService {
		return false, nil
	}
	if o.creator == dn || grants[grant{o.typ, o.id, perm}] {
		return true, nil
	}
	if o.parent == 0 {
		return false, nil
	}
	tree, err := c.collectionTree(q)
	if err != nil {
		return false, err
	}
	return tree.walkUp(o.parent, func(id int64) bool {
		n, ok := tree[id]
		return ok && n.creator == dn || grants[grant{ObjectCollection, id, perm}]
	})
}

// require fails with ErrDenied unless dn holds perm on o.
func (c *Catalog) require(q querier, dn string, o authObject, perm Permission) error {
	ok, err := c.allowed(q, dn, o, perm)
	if err != nil {
		return err
	}
	if ok {
		return nil
	}
	if o.typ == ObjectService {
		return fmt.Errorf("%w: %s needs service %s", ErrDenied, dn, perm)
	}
	return fmt.Errorf("%w: %s needs %s on %s/%d", ErrDenied, dn, perm, o.typ, o.id)
}
