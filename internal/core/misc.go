package core

import (
	"errors"
	"fmt"

	"mcs/internal/sqldb"
)

// auditTx appends an audit record inside an existing transaction. requestID
// is the correlation ID of the call that caused the write ("" when the
// operation was not requested over the instrumented transport).
func (c *Catalog) auditTx(tx *sqldb.Tx, objType ObjectType, id int64, action, dn, detail, requestID string) error {
	_, err := tx.Exec(
		"INSERT INTO audit_log (object_type, object_id, action, dn, detail, request_id, at) VALUES (?, ?, ?, ?, ?, ?, ?)",
		sqldb.Text(string(objType)), sqldb.Int(id), sqldb.Text(action),
		sqldb.Text(dn), sqldb.Text(detail), sqldb.Text(requestID), c.now())
	if err != nil {
		// Catalogs restored from snapshots taken before the request_id
		// column existed keep working; those records just lack the ID.
		_, err = tx.Exec(
			"INSERT INTO audit_log (object_type, object_id, action, dn, detail, at) VALUES (?, ?, ?, ?, ?, ?)",
			sqldb.Text(string(objType)), sqldb.Int(id), sqldb.Text(action),
			sqldb.Text(dn), sqldb.Text(detail), c.now())
	}
	return err
}

// AuditLog returns the audit records for one object, oldest first.
func (c *Catalog) AuditLog(dn string, objType ObjectType, objectName string) ([]AuditRecord, error) {
	o, err := c.resolve(c.db, dn, objType, objectName)
	if err != nil {
		return nil, err
	}
	if err := c.require(c.db, dn, o, PermRead); err != nil {
		return nil, err
	}
	rows, err := c.db.Query(
		`SELECT id, object_type, object_id, action, dn, detail, request_id, at FROM audit_log
		 WHERE object_type = ? AND object_id = ? ORDER BY id`,
		sqldb.Text(string(objType)), sqldb.Int(o.id))
	if err == nil {
		recs := make([]AuditRecord, 0, len(rows.Data))
		for _, r := range rows.Data {
			recs = append(recs, AuditRecord{
				ID: r[0].Int(), Object: ObjectType(r[1].S), ObjectID: r[2].Int(),
				Action: r[3].S, DN: r[4].S, Detail: r[5].S, RequestID: r[6].S, At: r[7].Time(),
			})
		}
		return recs, nil
	}
	// Legacy-snapshot schema without the request_id column.
	rows, err = c.db.Query(
		`SELECT id, object_type, object_id, action, dn, detail, at FROM audit_log
		 WHERE object_type = ? AND object_id = ? ORDER BY id`,
		sqldb.Text(string(objType)), sqldb.Int(o.id))
	if err != nil {
		return nil, err
	}
	recs := make([]AuditRecord, 0, len(rows.Data))
	for _, r := range rows.Data {
		recs = append(recs, AuditRecord{
			ID: r[0].Int(), Object: ObjectType(r[1].S), ObjectID: r[2].Int(),
			Action: r[3].S, DN: r[4].S, Detail: r[5].S, At: r[6].Time(),
		})
	}
	return recs, nil
}

// Annotate attaches a free-text annotation to a file, collection or view.
func (c *Catalog) Annotate(dn string, objType ObjectType, objectName, text string, opts ...OpOption) (Annotation, error) {
	op := applyOpOptions(opts)
	var out Annotation
	err := c.withReplay(op, "annotate", &out, func(tx *sqldb.Tx) error {
		var err error
		out, err = c.annotateTx(tx, dn, objType, objectName, text)
		return err
	})
	if err != nil {
		return Annotation{}, err
	}
	return out, nil
}

// annotateTx is Annotate inside an existing transaction.
func (c *Catalog) annotateTx(tx *sqldb.Tx, dn string, objType ObjectType, objectName, text string) (Annotation, error) {
	if text == "" {
		return Annotation{}, fmt.Errorf("%w: empty annotation", ErrInvalidInput)
	}
	o, err := c.resolve(tx, dn, objType, objectName)
	if err != nil {
		return Annotation{}, err
	}
	if err := c.require(tx, dn, o, PermAnnotate); err != nil {
		return Annotation{}, err
	}
	now := c.now()
	res, err := tx.Exec(
		"INSERT INTO annotation (object_type, object_id, annotation, dn, at) VALUES (?, ?, ?, ?, ?)",
		sqldb.Text(string(objType)), sqldb.Int(o.id), sqldb.Text(text), sqldb.Text(dn), now)
	if err != nil {
		return Annotation{}, err
	}
	return Annotation{
		ID: res.LastInsertID, Object: objType, ObjectID: o.id,
		Text: text, Creator: dn, CreatedAt: now.Time(),
	}, nil
}

// Annotations lists the annotations on an object, oldest first.
func (c *Catalog) Annotations(dn string, objType ObjectType, objectName string) ([]Annotation, error) {
	o, err := c.resolve(c.db, dn, objType, objectName)
	if err != nil {
		return nil, err
	}
	if err := c.require(c.db, dn, o, PermRead); err != nil {
		return nil, err
	}
	rows, err := c.db.Query(
		`SELECT id, annotation, dn, at FROM annotation
		 WHERE object_type = ? AND object_id = ? ORDER BY id`,
		sqldb.Text(string(objType)), sqldb.Int(o.id))
	if err != nil {
		return nil, err
	}
	anns := make([]Annotation, 0, len(rows.Data))
	for _, r := range rows.Data {
		anns = append(anns, Annotation{
			ID: r[0].Int(), Object: objType, ObjectID: o.id,
			Text: r[1].S, Creator: r[2].S, CreatedAt: r[3].Time(),
		})
	}
	return anns, nil
}

// AddProvenance appends a creation/transformation history record to a file.
func (c *Catalog) AddProvenance(dn, fileName string, version int, description string, opts ...OpOption) error {
	op := applyOpOptions(opts)
	f, err := c.GetFile(dn, fileName, version)
	if err != nil {
		return err
	}
	if err := c.require(c.db, dn, f.ref(), PermWrite); err != nil {
		return err
	}
	return c.withReplay(op, "addProvenance", nil, func(tx *sqldb.Tx) error {
		_, err := tx.Exec("INSERT INTO provenance (file_id, description, at) VALUES (?, ?, ?)",
			sqldb.Int(f.ID), sqldb.Text(description), c.now())
		return err
	})
}

// Provenance returns a file's transformation history, oldest first.
func (c *Catalog) Provenance(dn, fileName string, version int) ([]ProvenanceRecord, error) {
	f, err := c.GetFile(dn, fileName, version)
	if err != nil {
		return nil, err
	}
	rows, err := c.db.Query(
		"SELECT id, file_id, description, at FROM provenance WHERE file_id = ? ORDER BY id",
		sqldb.Int(f.ID))
	if err != nil {
		return nil, err
	}
	recs := make([]ProvenanceRecord, 0, len(rows.Data))
	for _, r := range rows.Data {
		recs = append(recs, ProvenanceRecord{ID: r[0].Int(), FileID: r[1].Int(), Description: r[2].S, At: r[3].Time()})
	}
	return recs, nil
}

// RegisterWriter stores (or updates) the contact record of a metadata
// writer.
func (c *Catalog) RegisterWriter(dn string, w Writer, opts ...OpOption) error {
	op := applyOpOptions(opts)
	if w.DN == "" {
		return fmt.Errorf("%w: writer DN required", ErrInvalidInput)
	}
	return c.withReplay(op, "registerWriter", nil, func(tx *sqldb.Tx) error {
		if _, err := tx.Exec("DELETE FROM writer WHERE dn = ?", sqldb.Text(w.DN)); err != nil {
			return err
		}
		_, err := tx.Exec(
			"INSERT INTO writer (dn, description, institution, address, phone, email) VALUES (?, ?, ?, ?, ?, ?)",
			sqldb.Text(w.DN), sqldb.Text(w.Description), sqldb.Text(w.Institution),
			sqldb.Text(w.Address), sqldb.Text(w.Phone), sqldb.Text(w.Email))
		return err
	})
}

// GetWriter fetches a writer's contact record by DN.
func (c *Catalog) GetWriter(dn, writerDN string) (Writer, error) {
	rows, err := c.db.Query(
		"SELECT dn, description, institution, address, phone, email FROM writer WHERE dn = ?",
		sqldb.Text(writerDN))
	if err != nil {
		return Writer{}, err
	}
	if len(rows.Data) == 0 {
		return Writer{}, fmt.Errorf("%w: writer %q", ErrNotFound, writerDN)
	}
	r := rows.Data[0]
	return Writer{DN: r[0].S, Description: r[1].S, Institution: r[2].S,
		Address: r[3].S, Phone: r[4].S, Email: r[5].S}, nil
}

// RegisterExternalCatalog records a pointer to another metadata catalog.
func (c *Catalog) RegisterExternalCatalog(dn string, ec ExternalCatalog, opts ...OpOption) (ExternalCatalog, error) {
	op := applyOpOptions(opts)
	if ec.Name == "" {
		return ExternalCatalog{}, fmt.Errorf("%w: external catalog name required", ErrInvalidInput)
	}
	if err := c.require(c.db, dn, serviceObject, PermCreate); err != nil {
		return ExternalCatalog{}, err
	}
	err := c.withReplay(op, "registerExternalCatalog", &ec, func(tx *sqldb.Tx) error {
		res, err := tx.Exec(
			"INSERT INTO external_catalog (name, type, host, ip, description) VALUES (?, ?, ?, ?, ?)",
			sqldb.Text(ec.Name), sqldb.Text(ec.Type), sqldb.Text(ec.Host),
			sqldb.Text(ec.IP), sqldb.Text(ec.Description))
		if errors.Is(err, sqldb.ErrUniqueViolation) {
			return fmt.Errorf("%w: external catalog %q", ErrExists, ec.Name)
		}
		if err != nil {
			return err
		}
		ec.ID = res.LastInsertID
		return nil
	})
	if err != nil {
		return ExternalCatalog{}, err
	}
	return ec, nil
}

// ExternalCatalogs lists the registered external catalogs.
func (c *Catalog) ExternalCatalogs(dn string) ([]ExternalCatalog, error) {
	rows, err := c.db.Query(
		"SELECT id, name, type, host, ip, description FROM external_catalog ORDER BY name")
	if err != nil {
		return nil, err
	}
	out := make([]ExternalCatalog, 0, len(rows.Data))
	for _, r := range rows.Data {
		out = append(out, ExternalCatalog{
			ID: r[0].Int(), Name: r[1].S, Type: r[2].S, Host: r[3].S, IP: r[4].S, Description: r[5].S,
		})
	}
	return out, nil
}

// AttributePairs calls fn with every (attribute name, rendered value)
// binding on objects of the given type, until fn returns false.
// federation.Summarize uses this to build discovery summaries.
func (c *Catalog) AttributePairs(objType ObjectType, fn func(attr, value string) bool) error {
	rows, err := c.db.Query(`SELECT d.name, d.type, ua.sval, ua.ival, ua.fval, ua.tval
		FROM user_attribute ua JOIN attribute_def d ON d.id = ua.attr_id
		WHERE ua.object_type = ?`, sqldb.Text(string(objType)))
	if err != nil {
		return err
	}
	for _, r := range rows.Data {
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
		if !fn(r[0].S, v.Render()) {
			return nil
		}
	}
	return nil
}

// Stats reports catalog row counts (diagnostics and the bench harness).
type Stats struct {
	Files       int
	Collections int
	Views       int
	Attributes  int
	AttrDefs    int
}

// Stats returns current row counts.
func (c *Catalog) Stats() (Stats, error) {
	var s Stats
	for _, q := range []struct {
		table string
		dst   *int
	}{
		{"logical_file", &s.Files},
		{"logical_collection", &s.Collections},
		{"logical_view", &s.Views},
		{"user_attribute", &s.Attributes},
		{"attribute_def", &s.AttrDefs},
	} {
		n, err := c.db.RowCount(q.table)
		if err != nil {
			return Stats{}, err
		}
		*q.dst = n
	}
	return s, nil
}
