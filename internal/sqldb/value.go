// Package sqldb is an embedded relational database engine.
//
// It stands in for the MySQL 4.1 backend of the original MCS deployment:
// typed rows, B-tree secondary indexes, exactly the SQL dialect the catalog
// issues (CREATE TABLE/INDEX, INSERT, SELECT with inner joins, UPDATE,
// DELETE, parameter placeholders; see Parse), a planner that routes equality
// and range predicates to indexes, and serializable transactions with
// rollback.
//
// The engine is deliberately in-memory: the paper's scalability study
// measures query/add throughput against a warm database, and MySQL's own
// buffer pool keeps the working set resident in that study too.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the value types a column can hold.
type Type int

// Column and literal types. TypeNull is the type of the SQL NULL literal and
// of absent values; columns themselves are never declared NULL.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeText
	TypeBool
	TypeTime
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOLEAN"
	case TypeTime:
		return "DATETIME"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Value is a single typed cell. The zero Value is NULL.
//
// It is a tagged union: the scalar types (INTEGER, FLOAT, BOOLEAN, DATETIME)
// all pack into N — floats as their IEEE-754 bit pattern, booleans as 0/1,
// datetimes as unix microseconds — and only TEXT uses S. At 32 bytes a Value
// is less than half its previous 72-byte layout (which carried an int64, a
// float64, a bool and an embedded time.Time side by side), which matters
// because every copy-on-write btree node copy moves whole arrays of them.
// Values are also cleanly comparable with ==: the unix-micros datetime
// representation has no monotonic-clock or location pointer the way
// time.Time does, so a value replayed from the WAL is ==-equal to the one
// originally committed.
type Value struct {
	T Type
	N int64
	S string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{T: TypeInt, N: v} }

// Float returns a FLOAT value.
func Float(v float64) Value { return Value{T: TypeFloat, N: int64(math.Float64bits(v))} }

// Text returns a TEXT value.
func Text(v string) Value { return Value{T: TypeText, S: v} }

// Bool returns a BOOLEAN value.
func Bool(v bool) Value {
	if v {
		return Value{T: TypeBool, N: 1}
	}
	return Value{T: TypeBool}
}

// timeUnit is the resolution of the DATETIME payload: unix microseconds.
// Nanoseconds would be the obvious unit, but their int64 range only spans
// the years 1678–2262 and the MCS schema stores time-of-day attributes as
// year-1 DATETIMEs; microseconds cover ±292k years and still pack the
// timestamp into one word.
const timeUnit = int64(time.Microsecond)

// Time returns a DATETIME value, truncated to whole seconds in UTC so
// round-trips through the text protocol are loss-free. Storing a unix
// offset (rather than the time.Time itself) discards any monotonic clock
// reading at ingest, so a timestamp read back after WAL replay or a
// snapshot reload is ==-equal to the original.
func Time(v time.Time) Value {
	return Value{T: TypeTime, N: v.Unix() * (int64(time.Second) / timeUnit)}
}

// TimeMicros returns a DATETIME value at full microsecond precision from a
// unix-microseconds reading. The text protocol truncates to seconds; this
// constructor exists for decoders that must reproduce a stored value
// bit-for-bit.
func TimeMicros(us int64) Value { return Value{T: TypeTime, N: us} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// Int returns the INTEGER payload. Valid only when T == TypeInt.
func (v Value) Int() int64 { return v.N }

// Float returns the FLOAT payload. Valid only when T == TypeFloat.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.N)) }

// Bool returns the BOOLEAN payload. Valid only when T == TypeBool.
func (v Value) Bool() bool { return v.N != 0 }

// Time returns the DATETIME payload in UTC. Valid only when T == TypeTime.
func (v Value) Time() time.Time {
	perSec := int64(time.Second) / timeUnit
	// Split before converting: v.N*timeUnit would overflow for dates far
	// from the epoch (the year-1 time-of-day convention). time.Unix
	// normalizes a negative nanosecond remainder.
	return time.Unix(v.N/perSec, (v.N%perSec)*timeUnit).UTC()
}

// String renders the value as it would appear in a result set.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.N, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case TypeText:
		return v.S
	case TypeBool:
		if v.N != 0 {
			return "TRUE"
		}
		return "FALSE"
	case TypeTime:
		return v.Time().Format(time.RFC3339)
	}
	return "?"
}

// numeric reports whether the value can participate in numeric comparison,
// returning it widened to float64.
func (v Value) numeric() (float64, bool) {
	switch v.T {
	case TypeInt:
		return float64(v.N), true
	case TypeFloat:
		return v.Float(), true
	}
	return 0, false
}

// Compare orders two values: -1, 0 or +1. NULL orders before everything.
// Int and Float compare numerically against each other; other cross-type
// comparisons order by type tag (stable, arbitrary), mirroring the behaviour
// MCS relies on (it never compares across types except int/float).
func Compare(a, b Value) int {
	if a.T == TypeNull || b.T == TypeNull {
		switch {
		case a.T == b.T:
			return 0
		case a.T == TypeNull:
			return -1
		default:
			return 1
		}
	}
	// Same-type scalar fast path: INTEGER, BOOLEAN and DATETIME all order by
	// their int64 payload directly. This is the comparison the index trees
	// run on every node visit.
	if a.T == b.T {
		switch a.T {
		case TypeInt, TypeBool, TypeTime:
			switch {
			case a.N < b.N:
				return -1
			case a.N > b.N:
				return 1
			}
			return 0
		case TypeText:
			// Equality first: == short-circuits on pointer identity, and
			// stored text is interned (see completeRow), so comparing a
			// value against an equal stored value is a pointer check.
			if a.S == b.S {
				return 0
			}
			return strings.Compare(a.S, b.S)
		}
	}
	if af, ok := a.numeric(); ok {
		if bf, ok := b.numeric(); ok {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			}
			// Equal as floats; break ties so 1 and 1.0 stay equal but the
			// ordering over int64 beyond float precision remains sane.
			if a.T == TypeInt && b.T == TypeInt {
				switch {
				case a.N < b.N:
					return -1
				case a.N > b.N:
					return 1
				}
			}
			return 0
		}
	}
	if a.T != b.T {
		switch {
		case a.T < b.T:
			return -1
		default:
			return 1
		}
	}
	return 0
}

// compareCells is Compare through pointers, for the index comparators:
// index entries point at stored rows rather than carrying copies of their
// key columns, so the hot comparison reads both operands in place. The
// same-type cases Compare decides on one field are decided here without
// copying either 32-byte Value; everything else defers to Compare.
func compareCells(a, b *Value) int {
	if a.T == b.T {
		switch a.T {
		case TypeNull:
			return 0
		case TypeInt, TypeBool, TypeTime:
			switch {
			case a.N < b.N:
				return -1
			case a.N > b.N:
				return 1
			}
			return 0
		case TypeText:
			if a.S == b.S {
				return 0
			}
			return strings.Compare(a.S, b.S)
		}
	}
	return Compare(*a, *b)
}

// coerce converts v to column type t where a lossless conversion exists.
func coerce(v Value, t Type) (Value, error) {
	if v.T == TypeNull || v.T == t {
		return v, nil
	}
	switch t {
	case TypeFloat:
		if v.T == TypeInt {
			return Float(float64(v.N)), nil
		}
	case TypeInt:
		if v.T == TypeFloat {
			if f := v.Float(); f == float64(int64(f)) {
				return Int(int64(f)), nil
			}
		}
	case TypeTime:
		if v.T == TypeText {
			for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
				if m, err := time.Parse(layout, v.S); err == nil {
					return Time(m), nil
				}
			}
			return Value{}, fmt.Errorf("sqldb: cannot parse %q as DATETIME", v.S)
		}
	case TypeText:
		if v.T == TypeTime {
			return Text(v.Time().Format(time.RFC3339)), nil
		}
	}
	return Value{}, fmt.Errorf("sqldb: cannot store %s value in %s column", v.T, t)
}
