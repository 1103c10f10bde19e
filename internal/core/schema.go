package core

import (
	"fmt"

	"mcs/internal/sqldb"
)

// ddl is the predefined MCS schema, following section 5 of the paper.
// The index set mirrors the evaluation setup: "indexes on logical file
// names, logical collection names and logical views … on the
// database-assigned identifiers for these items and on (name,id) pairs",
// plus per-type value indexes for user-defined attribute matching. As in
// MySQL's InnoDB, which the paper ran, every table is clustered on its
// INTEGER PRIMARY KEY, the database-assigned identifier, and every index
// entry carries it: lf_name and the UNIQUE name indexes are the (name, id)
// pairs. Each index is read by some statement the catalog issues
// (TestEveryCatalogIndexEarnsItsPlace).
var ddl = []string{
	`CREATE TABLE logical_file (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL,
		version INTEGER NOT NULL,
		data_type TEXT,
		valid BOOLEAN NOT NULL,
		collection_id INTEGER,
		container_id TEXT,
		container_service TEXT,
		master_copy TEXT,
		creator TEXT NOT NULL,
		last_modifier TEXT,
		created DATETIME NOT NULL,
		modified DATETIME,
		audited BOOLEAN NOT NULL
	)`,
	`CREATE INDEX lf_name ON logical_file (name, version)`,
	`CREATE INDEX lf_collection ON logical_file (collection_id)`,

	`CREATE TABLE logical_collection (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL UNIQUE,
		description TEXT,
		parent_id INTEGER,
		creator TEXT NOT NULL,
		last_modifier TEXT,
		created DATETIME NOT NULL,
		modified DATETIME,
		audited BOOLEAN NOT NULL
	)`,
	`CREATE INDEX lc_parent ON logical_collection (parent_id)`,

	`CREATE TABLE logical_view (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL UNIQUE,
		description TEXT,
		creator TEXT NOT NULL,
		last_modifier TEXT,
		created DATETIME NOT NULL,
		modified DATETIME,
		audited BOOLEAN NOT NULL
	)`,

	`CREATE TABLE view_member (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		view_id INTEGER NOT NULL,
		object_type TEXT NOT NULL,
		object_id INTEGER NOT NULL
	)`,
	`CREATE INDEX vm_view ON view_member (view_id)`,
	`CREATE INDEX vm_object ON view_member (object_type, object_id)`,

	`CREATE TABLE attribute_def (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL UNIQUE,
		type TEXT NOT NULL,
		description TEXT,
		creator TEXT,
		created DATETIME NOT NULL
	)`,

	`CREATE TABLE user_attribute (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		object_type TEXT NOT NULL,
		object_id INTEGER NOT NULL,
		attr_id INTEGER NOT NULL,
		sval TEXT,
		ival INTEGER,
		fval FLOAT,
		tval DATETIME
	)`,
	`CREATE INDEX ua_object ON user_attribute (object_type, object_id)`,
	// The per-type value indexes carry object_type and object_id behind the
	// probed columns so a multi-attribute query stage is fully covered: the
	// planner's set-intersection executor answers "which objects have
	// attr A = V" from index entries alone — no row fetches, no residual
	// filter evaluation — which is what keeps Fig. 11 flat as the
	// attribute count grows. Equality probes consume (attr_id, object_type,
	// value); range predicates use the (attr_id, object_type) prefix with a
	// range on the value column.
	`CREATE INDEX ua_attr_s ON user_attribute (attr_id, object_type, sval, object_id)`,
	`CREATE INDEX ua_attr_i ON user_attribute (attr_id, object_type, ival, object_id)`,
	`CREATE INDEX ua_attr_f ON user_attribute (attr_id, object_type, fval, object_id)`,
	`CREATE INDEX ua_attr_t ON user_attribute (attr_id, object_type, tval, object_id)`,

	`CREATE TABLE acl (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		object_type TEXT NOT NULL,
		object_id INTEGER NOT NULL,
		principal TEXT NOT NULL,
		permission TEXT NOT NULL
	)`,
	`CREATE INDEX acl_object ON acl (object_type, object_id)`,

	`CREATE TABLE audit_log (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		object_type TEXT NOT NULL,
		object_id INTEGER NOT NULL,
		action TEXT NOT NULL,
		dn TEXT NOT NULL,
		detail TEXT,
		request_id TEXT,
		at DATETIME NOT NULL
	)`,
	`CREATE INDEX audit_object ON audit_log (object_type, object_id)`,

	`CREATE TABLE annotation (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		object_type TEXT NOT NULL,
		object_id INTEGER NOT NULL,
		annotation TEXT NOT NULL,
		dn TEXT NOT NULL,
		at DATETIME NOT NULL
	)`,
	`CREATE INDEX ann_object ON annotation (object_type, object_id)`,

	`CREATE TABLE provenance (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		file_id INTEGER NOT NULL,
		description TEXT NOT NULL,
		at DATETIME NOT NULL
	)`,
	`CREATE INDEX prov_file ON provenance (file_id)`,

	`CREATE TABLE writer (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		dn TEXT NOT NULL UNIQUE,
		description TEXT,
		institution TEXT,
		address TEXT,
		phone TEXT,
		email TEXT
	)`,

	`CREATE TABLE external_catalog (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL UNIQUE,
		type TEXT NOT NULL,
		host TEXT,
		ip TEXT,
		description TEXT
	)`,

	replayTableDDL,
}

// staticFileColumns maps queryable predefined logical-file attribute names
// to their column and attribute type. These are the "static attributes" of
// the paper's simple-query workload.
var staticFileColumns = map[string]struct {
	column string
	typ    AttrType
}{
	"name":             {"name", AttrString},
	"version":          {"version", AttrInt},
	"dataType":         {"data_type", AttrString},
	"creator":          {"creator", AttrString},
	"lastModifier":     {"last_modifier", AttrString},
	"containerId":      {"container_id", AttrString},
	"containerService": {"container_service", AttrString},
	"masterCopy":       {"master_copy", AttrString},
	"created":          {"created", AttrDateTime},
	"modified":         {"modified", AttrDateTime},
	"valid":            {"valid", AttrInt}, // 0/1 via int predicate
	"collectionId":     {"collection_id", AttrInt},
}

// declaredIndexes names every index ddl creates: the ones a restored
// catalog keeps (see Restore).
var declaredIndexes = func() []string {
	var names []string
	for _, stmt := range ddl {
		if st, err := sqldb.Parse(stmt); err == nil {
			if ci, ok := st.(*sqldb.CreateIndexStmt); ok {
				names = append(names, ci.Name)
			}
		}
	}
	return names
}()

// applySchema creates all MCS tables and indexes in db.
func applySchema(db *sqldb.DB) error {
	for _, stmt := range ddl {
		if _, err := db.Exec(stmt); err != nil {
			return fmt.Errorf("mcs: apply schema: %w", err)
		}
	}
	return nil
}
