package core

import (
	"errors"
	"fmt"
	"maps"
	"sort"

	"mcs/internal/sqldb"
)

// DefineAttribute declares a new user-defined attribute usable on files,
// collections and views. This is the paper's extensibility mechanism for
// domain-specific, virtual-organization and user metadata ontologies.
func (c *Catalog) DefineAttribute(dn, name string, typ AttrType, description string, opts ...OpOption) (AttributeDef, error) {
	op := applyOpOptions(opts)
	if name == "" {
		return AttributeDef{}, fmt.Errorf("%w: attribute name required", ErrInvalidInput)
	}
	if !typ.Valid() {
		return AttributeDef{}, fmt.Errorf("%w: attribute type %q", ErrInvalidInput, typ)
	}
	if _, ok := staticFileColumns[name]; ok {
		return AttributeDef{}, fmt.Errorf("%w: %q shadows a predefined attribute", ErrInvalidInput, name)
	}
	if err := c.require(c.db, dn, serviceObject, PermCreate); err != nil {
		return AttributeDef{}, err
	}
	var out AttributeDef
	err := c.withReplay(op, "defineAttribute", &out, func(tx *sqldb.Tx) error {
		now := c.now()
		res, err := tx.Exec(
			"INSERT INTO attribute_def (name, type, description, creator, created) VALUES (?, ?, ?, ?, ?)",
			sqldb.Text(name), sqldb.Text(string(typ)), sqldb.Text(description), sqldb.Text(dn), now)
		if errors.Is(err, sqldb.ErrUniqueViolation) {
			return fmt.Errorf("%w: attribute %q", ErrExists, name)
		}
		if err != nil {
			return err
		}
		out = AttributeDef{
			ID: res.LastInsertID, Name: name, Type: typ,
			Description: description, Creator: dn, Created: now.Time(),
		}
		return nil
	})
	if err != nil {
		return AttributeDef{}, err
	}
	return out, nil
}

// GetAttributeDef looks up a user-defined attribute declaration by name.
func (c *Catalog) GetAttributeDef(name string) (AttributeDef, error) {
	return c.attrDef(c.db, nil, name)
}

// ListAttributeDefs returns all user-defined attribute declarations, sorted
// by name.
func (c *Catalog) ListAttributeDefs() ([]AttributeDef, error) {
	dict, err := c.attrDict(c.db)
	if err != nil {
		return nil, err
	}
	defs := make([]AttributeDef, 0, len(dict))
	for _, def := range dict {
		defs = append(defs, def)
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	return defs, nil
}

// attrDict returns the attribute dictionary by name in one statement,
// cached on attribute_def's epoch, so a query's predicates and a create's
// attributes resolve without a statement each. Callers must treat the map
// as read-only: cache hits share it.
func (c *Catalog) attrDict(q querier) (map[string]AttributeDef, error) {
	return cached(q, &c.dictCache, "attribute_def", struct{}{}, func() (map[string]AttributeDef, error) {
		rows, err := q.Query("SELECT id, name, type, description, creator, created FROM attribute_def")
		if err != nil {
			return nil, err
		}
		m := make(map[string]AttributeDef, len(rows.Data))
		for _, r := range rows.Data {
			m[r[1].S] = AttributeDef{
				ID: r[0].Int(), Name: r[1].S, Type: AttrType(r[2].S),
				Description: r[3].S, Creator: r[4].S, Created: r[5].Time(),
			}
		}
		return m, nil
	})
}

// attrDef resolves one attribute definition through the dictionary. memo,
// when non-nil, keeps the first dictionary read for the rest of a batch, so
// a thousand creates inside one transaction, which reads around the cache,
// read the dictionary once.
func (c *Catalog) attrDef(q querier, memo map[string]AttributeDef, name string) (AttributeDef, error) {
	def, ok := memo[name]
	if !ok {
		dict, err := c.attrDict(q)
		if err != nil {
			return AttributeDef{}, err
		}
		if memo != nil {
			maps.Copy(memo, dict)
		}
		def, ok = dict[name]
	}
	if !ok {
		return AttributeDef{}, fmt.Errorf("%w: attribute %q", ErrNotFound, name)
	}
	return def, nil
}

// SetAttribute binds (or rebinds) a user-defined attribute value on an
// object. Replacement semantics: a second Set with the same attribute name
// overwrites the previous value.
func (c *Catalog) SetAttribute(dn string, objType ObjectType, objectName, attrName string, v AttrValue, opts ...OpOption) error {
	op := applyOpOptions(opts)
	return c.withReplay(op, "setAttribute", nil, func(tx *sqldb.Tx) error {
		return c.setAttributeTx(tx, dn, objType, objectName, attrName, v, nil)
	})
}

// setAttributeTx is SetAttribute inside an existing transaction; defs, when
// non-nil, memoizes attribute definitions across a batch.
func (c *Catalog) setAttributeTx(tx *sqldb.Tx, dn string, objType ObjectType, objectName, attrName string, v AttrValue, defs map[string]AttributeDef) error {
	def, err := c.attrDef(tx, defs, attrName)
	if err != nil {
		return err
	}
	if def.Type != v.Type {
		return fmt.Errorf("%w: attribute %q is %s, value is %s", ErrInvalidInput, attrName, def.Type, v.Type)
	}
	o, err := c.resolve(tx, dn, objType, objectName)
	if err != nil {
		return err
	}
	if err := c.require(tx, dn, o, PermWrite); err != nil {
		return err
	}
	if _, err := tx.Exec(
		"DELETE FROM user_attribute WHERE object_type = ? AND object_id = ? AND attr_id = ?",
		sqldb.Text(string(objType)), sqldb.Int(o.id), sqldb.Int(def.ID)); err != nil {
		return err
	}
	_, err = tx.Exec(fmt.Sprintf(
		"INSERT INTO user_attribute (object_type, object_id, attr_id, %s) VALUES (?, ?, ?, ?)",
		def.Type.storageColumn()),
		sqldb.Text(string(objType)), sqldb.Int(o.id), sqldb.Int(def.ID), v.sqlValue())
	return err
}

// UnsetAttribute removes a user-defined attribute from an object.
func (c *Catalog) UnsetAttribute(dn string, objType ObjectType, objectName, attrName string, opts ...OpOption) error {
	op := applyOpOptions(opts)
	def, err := c.GetAttributeDef(attrName)
	if err != nil {
		return err
	}
	o, err := c.resolve(c.db, dn, objType, objectName)
	if err != nil {
		return err
	}
	if err := c.require(c.db, dn, o, PermWrite); err != nil {
		return err
	}
	return c.withReplay(op, "unsetAttribute", nil, func(tx *sqldb.Tx) error {
		res, err := tx.Exec(
			"DELETE FROM user_attribute WHERE object_type = ? AND object_id = ? AND attr_id = ?",
			sqldb.Text(string(objType)), sqldb.Int(o.id), sqldb.Int(def.ID))
		if err != nil {
			return err
		}
		if res.RowsAffected == 0 {
			return fmt.Errorf("%w: attribute %q on %s %q", ErrNotFound, attrName, objType, objectName)
		}
		return nil
	})
}

// GetAttributes returns every user-defined attribute bound to an object,
// sorted by attribute name.
func (c *Catalog) GetAttributes(dn string, objType ObjectType, objectName string) ([]Attribute, error) {
	o, err := c.resolve(c.db, dn, objType, objectName)
	if err != nil {
		return nil, err
	}
	if err := c.require(c.db, dn, o, PermRead); err != nil {
		return nil, err
	}
	rows, err := c.db.Query(`SELECT d.name, d.type, ua.sval, ua.ival, ua.fval, ua.tval
		FROM user_attribute ua JOIN attribute_def d ON d.id = ua.attr_id
		WHERE ua.object_type = ? AND ua.object_id = ?`,
		sqldb.Text(string(objType)), sqldb.Int(o.id))
	if err != nil {
		return nil, err
	}
	attrs := make([]Attribute, 0, len(rows.Data))
	for _, r := range rows.Data {
		attrs = append(attrs, decodeAttrRow(r))
	}
	sortAttrs(attrs)
	return attrs, nil
}

// decodeAttrRow turns a (d.name, d.type, ua.sval, ua.ival, ua.fval, ua.tval)
// result row into an Attribute.
func decodeAttrRow(r []sqldb.Value) Attribute {
	typ := AttrType(r[1].S)
	var v AttrValue
	switch typ {
	case AttrString:
		v = String(r[2].S)
	case AttrInt:
		v = Int(r[3].Int())
	case AttrFloat:
		v = Float(r[4].Float())
	case AttrDate:
		v = AttrValue{Type: AttrDate, T: r[5].Time()}
	case AttrTime:
		v = AttrValue{Type: AttrTime, T: r[5].Time()}
	default:
		v = AttrValue{Type: AttrDateTime, T: r[5].Time()}
	}
	return Attribute{Name: r[0].S, Value: v}
}

func sortAttrs(attrs []Attribute) {
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
}
