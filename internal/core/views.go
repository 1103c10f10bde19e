package core

import (
	"errors"
	"fmt"

	"mcs/internal/sqldb"
)

const viewColumns = `id, name, description, creator, last_modifier, created, modified, audited`

func scanView(row []sqldb.Value) View {
	return View{
		ID:           row[0].Int(),
		Name:         row[1].S,
		Description:  row[2].S,
		Creator:      row[3].S,
		LastModifier: row[4].S,
		Created:      row[5].Time(),
		Modified:     row[6].Time(),
		Audited:      row[7].Bool(),
	}
}

// ViewSpec describes a logical view to create.
type ViewSpec struct {
	Name        string
	Description string
	Audited     bool
	Attributes  []Attribute
}

// CreateView registers a logical view: a free-form, non-authorizing
// aggregation of files, collections and other views ("loosely analogous to
// creating a symbolic link", per the paper).
func (c *Catalog) CreateView(dn string, spec ViewSpec, opts ...OpOption) (View, error) {
	op := applyOpOptions(opts)
	if spec.Name == "" {
		return View{}, fmt.Errorf("%w: view name required", ErrInvalidInput)
	}
	if err := c.require(c.db, dn, serviceObject, PermCreate); err != nil {
		return View{}, err
	}
	var out View
	err := c.withReplay(op, "createView", []any{dn, spec}, &out, func(tx *sqldb.Tx) error {
		now := c.now()
		res, err := tx.Exec(`INSERT INTO logical_view
			(name, description, creator, last_modifier, created, modified, audited)
			VALUES (?, ?, ?, ?, ?, ?, ?)`,
			sqldb.Text(spec.Name), sqldb.Text(spec.Description),
			sqldb.Text(dn), sqldb.Text(dn), now, now, sqldb.Bool(spec.Audited))
		if errors.Is(err, sqldb.ErrUniqueViolation) {
			return fmt.Errorf("%w: view %q", ErrExists, spec.Name)
		}
		if err != nil {
			return err
		}
		if spec.Audited {
			if err := c.auditTx(tx, ObjectView, res.LastInsertID, "create", dn, spec.Name, op.requestID); err != nil {
				return err
			}
		}
		out = View{
			ID: res.LastInsertID, Name: spec.Name, Description: spec.Description,
			Creator: dn, LastModifier: dn, Created: now.Time(), Modified: now.Time(), Audited: spec.Audited,
		}
		return nil
	})
	if err != nil {
		return View{}, err
	}
	for _, a := range spec.Attributes {
		if err := c.SetAttribute(dn, ObjectView, spec.Name, a.Name, a.Value); err != nil {
			return View{}, err
		}
	}
	return out, nil
}

// GetView fetches a logical view by name.
func (c *Catalog) GetView(dn, name string) (View, error) {
	return c.getViewQ(c.db, dn, name)
}

// getViewQ is GetView reading through q.
func (c *Catalog) getViewQ(q querier, dn, name string) (View, error) {
	rows, err := q.Query("SELECT "+viewColumns+" FROM logical_view WHERE name = ?", sqldb.Text(name))
	if err != nil {
		return View{}, err
	}
	if len(rows.Data) == 0 {
		return View{}, fmt.Errorf("%w: view %q", ErrNotFound, name)
	}
	return scanView(rows.Data[0]), nil
}

// resolve maps an (objectType, name) pair to the object, reading through q.
// Files and collections are read-checked on the way, as GetFile and
// GetCollection do; views, like GetView, are not. Views may aggregate files,
// collections and other views.
func (c *Catalog) resolve(q querier, dn string, objType ObjectType, name string) (authObject, error) {
	switch objType {
	case ObjectFile:
		f, err := c.getFileQ(q, dn, name, 0)
		return f.ref(), err
	case ObjectCollection:
		col, err := c.getCollectionQ(q, dn, name)
		return col.ref(), err
	case ObjectView:
		v, err := c.getViewQ(q, dn, name)
		return v.ref(), err
	}
	return authObject{}, fmt.Errorf("%w: object type %q cannot join a view", ErrInvalidInput, objType)
}

// viewReaches reports whether the view graph starting at fromID reaches
// view targetID (cycle detection for view-in-view membership).
func (c *Catalog) viewReaches(fromID, targetID int64) (bool, error) {
	if fromID == targetID {
		return true, nil
	}
	rows, err := c.db.Query(
		"SELECT object_id FROM view_member WHERE view_id = ? AND object_type = ?",
		sqldb.Int(fromID), sqldb.Text(string(ObjectView)))
	if err != nil {
		return false, err
	}
	for _, r := range rows.Data {
		hit, err := c.viewReaches(r[0].Int(), targetID)
		if err != nil || hit {
			return hit, err
		}
	}
	return false, nil
}

// AddToView aggregates an object into a view. Files and collections may
// belong to many views; view-in-view membership must stay acyclic.
func (c *Catalog) AddToView(dn, viewName string, objType ObjectType, memberName string, opts ...OpOption) error {
	op := applyOpOptions(opts)
	v, err := c.GetView(dn, viewName)
	if err != nil {
		return err
	}
	if err := c.require(c.db, dn, v.ref(), PermWrite); err != nil {
		return err
	}
	member, err := c.resolve(c.db, dn, objType, memberName)
	if err != nil {
		return err
	}
	if objType == ObjectView {
		reaches, err := c.viewReaches(member.id, v.ID)
		if err != nil {
			return err
		}
		if reaches {
			return fmt.Errorf("%w: adding view %q to %q", ErrCycle, memberName, viewName)
		}
	}
	// The duplicate check runs inside the transaction, after the replay
	// lookup: a retried addToView whose first attempt committed must be
	// answered from the replay cache, not rejected as ErrExists.
	return c.withReplay(op, "addToView", []any{dn, viewName, objType, memberName}, nil, func(tx *sqldb.Tx) error {
		dup, err := tx.Query(
			"SELECT id FROM view_member WHERE view_id = ? AND object_type = ? AND object_id = ?",
			sqldb.Int(v.ID), sqldb.Text(string(objType)), sqldb.Int(member.id))
		if err != nil {
			return err
		}
		if len(dup.Data) > 0 {
			return fmt.Errorf("%w: %s %q already in view %q", ErrExists, objType, memberName, viewName)
		}
		if _, err := tx.Exec(
			"INSERT INTO view_member (view_id, object_type, object_id) VALUES (?, ?, ?)",
			sqldb.Int(v.ID), sqldb.Text(string(objType)), sqldb.Int(member.id)); err != nil {
			return err
		}
		if v.Audited {
			return c.auditTx(tx, ObjectView, v.ID, "add-member", dn,
				fmt.Sprintf("%s %s", objType, memberName), op.requestID)
		}
		return nil
	})
}

// RemoveFromView removes a member from a view.
func (c *Catalog) RemoveFromView(dn, viewName string, objType ObjectType, memberName string, opts ...OpOption) error {
	op := applyOpOptions(opts)
	v, err := c.GetView(dn, viewName)
	if err != nil {
		return err
	}
	if err := c.require(c.db, dn, v.ref(), PermWrite); err != nil {
		return err
	}
	member, err := c.resolve(c.db, dn, objType, memberName)
	if err != nil {
		return err
	}
	return c.withReplay(op, "removeFromView", []any{dn, viewName, objType, memberName}, nil, func(tx *sqldb.Tx) error {
		res, err := tx.Exec(
			"DELETE FROM view_member WHERE view_id = ? AND object_type = ? AND object_id = ?",
			sqldb.Int(v.ID), sqldb.Text(string(objType)), sqldb.Int(member.id))
		if err != nil {
			return err
		}
		if res.RowsAffected == 0 {
			return fmt.Errorf("%w: %s %q in view %q", ErrNotFound, objType, memberName, viewName)
		}
		return nil
	})
}

// ViewContents lists the direct members of a view with their names.
// Reading a view's contents requires read permission on the view's members'
// own scopes only when the member is subsequently dereferenced; the listing
// itself follows the paper's rule that views do not affect authorization.
func (c *Catalog) ViewContents(dn, viewName string) ([]ViewMember, error) {
	v, err := c.GetView(dn, viewName)
	if err != nil {
		return nil, err
	}
	rows, err := c.db.Query(
		"SELECT object_type, object_id FROM view_member WHERE view_id = ? ORDER BY id",
		sqldb.Int(v.ID))
	if err != nil {
		return nil, err
	}
	members := make([]ViewMember, 0, len(rows.Data))
	for _, r := range rows.Data {
		m := ViewMember{Type: ObjectType(r[0].S), ID: r[1].Int()}
		var table string
		switch m.Type {
		case ObjectFile:
			table = "logical_file"
		case ObjectCollection:
			table = "logical_collection"
		case ObjectView:
			table = "logical_view"
		default:
			continue
		}
		nr, err := c.db.Query("SELECT name FROM "+table+" WHERE id = ?", sqldb.Int(m.ID))
		if err != nil {
			return nil, err
		}
		if len(nr.Data) > 0 {
			m.Name = nr.Data[0][0].S
		}
		members = append(members, m)
	}
	return members, nil
}

// ExpandView recursively resolves a view to the set of logical file names it
// reaches: direct file members, every file of member collections (and their
// sub-collections), and the expansion of member views.
func (c *Catalog) ExpandView(dn, viewName string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	var expandView func(name string) error
	var expandCollection func(id int64) error
	expandCollection = func(id int64) error {
		frows, err := c.db.Query("SELECT name FROM logical_file WHERE collection_id = ?", sqldb.Int(id))
		if err != nil {
			return err
		}
		for _, r := range frows.Data {
			if !seen[r[0].S] {
				seen[r[0].S] = true
				out = append(out, r[0].S)
			}
		}
		crows, err := c.db.Query("SELECT id FROM logical_collection WHERE parent_id = ?", sqldb.Int(id))
		if err != nil {
			return err
		}
		for _, r := range crows.Data {
			if err := expandCollection(r[0].Int()); err != nil {
				return err
			}
		}
		return nil
	}
	expandView = func(name string) error {
		members, err := c.ViewContents(dn, name)
		if err != nil {
			return err
		}
		for _, m := range members {
			switch m.Type {
			case ObjectFile:
				if !seen[m.Name] {
					seen[m.Name] = true
					out = append(out, m.Name)
				}
			case ObjectCollection:
				if err := expandCollection(m.ID); err != nil {
					return err
				}
			case ObjectView:
				if err := expandView(m.Name); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := expandView(viewName); err != nil {
		return nil, err
	}
	return out, nil
}

// DeleteView removes a view and its membership records (not its members).
func (c *Catalog) DeleteView(dn, name string, opts ...OpOption) error {
	op := applyOpOptions(opts)
	if hit, err := c.replayedEarly(op, "deleteView", []any{dn, name}); hit || err != nil {
		return err
	}
	v, err := c.GetView(dn, name)
	if err != nil {
		return err
	}
	if err := c.require(c.db, dn, v.ref(), PermDelete); err != nil {
		return err
	}
	return c.withReplay(op, "deleteView", []any{dn, name}, nil, func(tx *sqldb.Tx) error {
		id := sqldb.Int(v.ID)
		vt := sqldb.Text(string(ObjectView))
		if _, err := tx.Exec("DELETE FROM logical_view WHERE id = ?", id); err != nil {
			return err
		}
		if _, err := tx.Exec("DELETE FROM view_member WHERE view_id = ?", id); err != nil {
			return err
		}
		for _, stmt := range []string{
			"DELETE FROM user_attribute WHERE object_type = ? AND object_id = ?",
			"DELETE FROM annotation WHERE object_type = ? AND object_id = ?",
			"DELETE FROM acl WHERE object_type = ? AND object_id = ?",
			"DELETE FROM view_member WHERE object_type = ? AND object_id = ?",
		} {
			if _, err := tx.Exec(stmt, vt, id); err != nil {
				return err
			}
		}
		if v.Audited {
			return c.auditTx(tx, ObjectView, v.ID, "delete", dn, v.Name, op.requestID)
		}
		return nil
	})
}
