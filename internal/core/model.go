// Package core implements the Metadata Catalog Service itself: the data
// model (logical files, logical collections, logical views), the predefined
// domain-independent schema, user-defined attribute extensibility,
// attribute-based queries, authorization, auditing, annotations and
// provenance — everything section 5 of the paper specifies, on top of the
// sqldb relational engine.
package core

import (
	"fmt"
	"math"
	"time"

	"mcs/internal/sqldb"
)

// ObjectType distinguishes the three aggregation levels of the MCS data
// model.
type ObjectType string

// Object types.
const (
	ObjectFile       ObjectType = "file"
	ObjectCollection ObjectType = "collection"
	ObjectView       ObjectType = "view"
	// ObjectService is the MCS itself, used for service-level permissions
	// such as the right to create new logical files.
	ObjectService ObjectType = "service"
)

// Valid reports whether t is a known object type.
func (t ObjectType) Valid() bool {
	switch t {
	case ObjectFile, ObjectCollection, ObjectView, ObjectService:
		return true
	}
	return false
}

// AttrType enumerates the value types of user-defined attributes.
// The paper's schema supports string, float, date, time and date/time;
// integer is added because the evaluation workload uses it.
type AttrType string

// User-defined attribute types.
const (
	AttrString   AttrType = "string"
	AttrInt      AttrType = "int"
	AttrFloat    AttrType = "float"
	AttrDate     AttrType = "date"
	AttrTime     AttrType = "time"
	AttrDateTime AttrType = "datetime"
)

// Valid reports whether t is a known attribute type.
func (t AttrType) Valid() bool {
	switch t {
	case AttrString, AttrInt, AttrFloat, AttrDate, AttrTime, AttrDateTime:
		return true
	}
	return false
}

// AttrValue is one typed user-defined attribute value.
type AttrValue struct {
	Type AttrType
	S    string
	I    int64
	F    float64
	T    time.Time
}

// String returns a string-typed attribute value.
func String(s string) AttrValue { return AttrValue{Type: AttrString, S: s} }

// Int returns an int-typed attribute value.
func Int(i int64) AttrValue { return AttrValue{Type: AttrInt, I: i} }

// Float returns a float-typed attribute value.
func Float(f float64) AttrValue { return AttrValue{Type: AttrFloat, F: f} }

// Date returns a date-typed attribute value (time-of-day discarded).
func Date(t time.Time) AttrValue {
	y, m, d := t.UTC().Date()
	return AttrValue{Type: AttrDate, T: time.Date(y, m, d, 0, 0, 0, 0, time.UTC)}
}

// TimeOfDay returns a time-typed attribute value (date part normalized).
func TimeOfDay(t time.Time) AttrValue {
	u := t.UTC()
	return AttrValue{Type: AttrTime, T: time.Date(1, 1, 1, u.Hour(), u.Minute(), u.Second(), 0, time.UTC)}
}

// DateTime returns a datetime-typed attribute value.
func DateTime(t time.Time) AttrValue {
	return AttrValue{Type: AttrDateTime, T: t.UTC().Truncate(time.Second)}
}

// Render formats the value for display and wire transport.
func (v AttrValue) Render() string {
	switch v.Type {
	case AttrString:
		return v.S
	case AttrInt:
		return fmt.Sprintf("%d", v.I)
	case AttrFloat:
		return fmt.Sprintf("%g", v.F)
	case AttrDate:
		return v.T.Format("2006-01-02")
	case AttrTime:
		return v.T.Format("15:04:05")
	case AttrDateTime:
		return v.T.Format(time.RFC3339)
	}
	return ""
}

// ParseAttrValue parses s as a value of type t (inverse of Render).
func ParseAttrValue(t AttrType, s string) (AttrValue, error) {
	switch t {
	case AttrString:
		return String(s), nil
	case AttrInt:
		var i int64
		if _, err := fmt.Sscanf(s, "%d", &i); err != nil {
			return AttrValue{}, fmt.Errorf("mcs: parse int attribute %q: %w", s, err)
		}
		return Int(i), nil
	case AttrFloat:
		var f float64
		if _, err := fmt.Sscanf(s, "%g", &f); err != nil {
			return AttrValue{}, fmt.Errorf("mcs: parse float attribute %q: %w", s, err)
		}
		if math.IsNaN(f) {
			// NaN is unordered, and indexes and range predicates need
			// every stored and probed float ordered.
			return AttrValue{}, fmt.Errorf("%w: float attribute %q is NaN", ErrInvalidInput, s)
		}
		return Float(f), nil
	case AttrDate:
		tm, err := time.Parse("2006-01-02", s)
		if err != nil {
			return AttrValue{}, fmt.Errorf("mcs: parse date attribute %q: %w", s, err)
		}
		return Date(tm), nil
	case AttrTime:
		tm, err := time.Parse("15:04:05", s)
		if err != nil {
			return AttrValue{}, fmt.Errorf("mcs: parse time attribute %q: %w", s, err)
		}
		return TimeOfDay(tm), nil
	case AttrDateTime:
		tm, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return AttrValue{}, fmt.Errorf("mcs: parse datetime attribute %q: %w", s, err)
		}
		return DateTime(tm), nil
	}
	return AttrValue{}, fmt.Errorf("mcs: unknown attribute type %q", t)
}

// sqlValue converts the attribute value to the sqldb column value for its
// type's storage column.
func (v AttrValue) sqlValue() sqldb.Value {
	switch v.Type {
	case AttrString:
		return sqldb.Text(v.S)
	case AttrInt:
		return sqldb.Int(v.I)
	case AttrFloat:
		return sqldb.Float(v.F)
	default:
		return sqldb.Time(v.T)
	}
}

// storageColumn names the user_attribute column holding values of type t.
func (t AttrType) storageColumn() string {
	switch t {
	case AttrString:
		return "sval"
	case AttrInt:
		return "ival"
	case AttrFloat:
		return "fval"
	default:
		return "tval"
	}
}

// File is the static (predefined-schema) metadata of a logical file.
type File struct {
	ID               int64
	Name             string
	Version          int
	DataType         string // e.g. "binary", "xml", "html"
	Valid            bool
	CollectionID     int64 // 0 when the file is in no collection
	ContainerID      string
	ContainerService string
	MasterCopy       string
	Creator          string
	LastModifier     string
	Created          time.Time
	Modified         time.Time
	Audited          bool
}

// Collection is the static metadata of a logical collection.
type Collection struct {
	ID           int64
	Name         string
	Description  string
	ParentID     int64 // 0 for a root collection
	Creator      string
	LastModifier string
	Created      time.Time
	Modified     time.Time
	Audited      bool
}

// View is the static metadata of a logical view.
type View struct {
	ID           int64
	Name         string
	Description  string
	Creator      string
	LastModifier string
	Created      time.Time
	Modified     time.Time
	Audited      bool
}

// ViewMember is one element aggregated by a logical view.
type ViewMember struct {
	Type ObjectType
	ID   int64
	Name string
}

// AttributeDef is a user-defined attribute declaration.
type AttributeDef struct {
	ID          int64
	Name        string
	Type        AttrType
	Description string
	Creator     string
	Created     time.Time
}

// Attribute is a user-defined attribute bound to an object.
type Attribute struct {
	Name  string
	Value AttrValue
}

// Annotation is a free-text note attached to an object.
type Annotation struct {
	ID        int64
	Object    ObjectType
	ObjectID  int64
	Text      string
	Creator   string
	CreatedAt time.Time
}

// ProvenanceRecord describes one creation or transformation step of a file.
type ProvenanceRecord struct {
	ID          int64
	FileID      int64
	Description string
	At          time.Time
}

// AuditRecord is one entry of the service's audit log.
type AuditRecord struct {
	ID       int64
	Object   ObjectType
	ObjectID int64
	Action   string
	DN       string
	Detail   string
	// RequestID correlates the record with the request that caused it
	// (see WithRequestID); "" for embedded or legacy writes.
	RequestID string
	At        time.Time
}

// Writer is the user (metadata-writer) contact record of the MCS schema.
type Writer struct {
	DN          string
	Description string
	Institution string
	Address     string
	Phone       string
	Email       string
}

// ExternalCatalog points at another metadata catalog holding related
// attributes (the schema's federation hook).
type ExternalCatalog struct {
	ID          int64
	Name        string
	Type        string // e.g. "relational", "xml"
	Host        string
	IP          string
	Description string
}

// Permission names one right on an object.
type Permission string

// Permissions understood by the authorization layer.
const (
	PermRead     Permission = "read"
	PermWrite    Permission = "write"
	PermCreate   Permission = "create"
	PermDelete   Permission = "delete"
	PermAnnotate Permission = "annotate"
)

// Valid reports whether p is a known permission.
func (p Permission) Valid() bool {
	switch p {
	case PermRead, PermWrite, PermCreate, PermDelete, PermAnnotate:
		return true
	}
	return false
}

// Op is a comparison operator usable in attribute queries.
type Op string

// Query operators.
const (
	OpEq   Op = "="
	OpNe   Op = "!="
	OpLt   Op = "<"
	OpLe   Op = "<="
	OpGt   Op = ">"
	OpGe   Op = ">="
	OpLike Op = "like"
)

// Valid reports whether o is a known operator.
func (o Op) Valid() bool {
	switch o {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike:
		return true
	}
	return false
}

// Predicate is one attribute constraint in a query. Attribute may name
// either a predefined (static) logical-file attribute or a user-defined
// attribute.
type Predicate struct {
	Attribute string
	Op        Op
	Value     AttrValue
}

// Query describes an attribute-based discovery request.
type Query struct {
	// Target selects what kind of object to search (default files).
	Target ObjectType
	// Predicates are ANDed together, as in the original MCS query API.
	Predicates []Predicate
	// Limit bounds the number of returned names; 0 means no limit.
	Limit int
}
