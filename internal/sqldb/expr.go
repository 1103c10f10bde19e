package sqldb

import (
	"fmt"
	"strings"
)

// env resolves column references during expression evaluation. For
// single-table statements there is one binding; joins add one per table.
type env struct {
	bindings []binding
	params   []Value
}

// binding is one table in scope. Its row is set before any expression that
// reads it is evaluated: the planner places each conjunct at the first stage
// that binds every table it names.
type binding struct {
	alias string
	tbl   *table
	row   Row
}

func (e *env) lookup(ref *ColumnRef) (Value, error) {
	if ref.Table != "" {
		for i := range e.bindings {
			b := &e.bindings[i]
			if b.alias == ref.Table {
				p, err := b.tbl.columnPos(ref.Column)
				if err != nil {
					return Value{}, err
				}
				return b.row[p], nil
			}
		}
		return Value{}, fmt.Errorf("sqldb: unknown table alias %q", ref.Table)
	}
	// Unqualified: must be unambiguous across bindings.
	found := -1
	pos := 0
	for i := range e.bindings {
		if p, ok := e.bindings[i].tbl.colPos[ref.Column]; ok {
			if found >= 0 {
				return Value{}, fmt.Errorf("sqldb: ambiguous column %q", ref.Column)
			}
			found, pos = i, p
		}
	}
	if found < 0 {
		return Value{}, fmt.Errorf("sqldb: unknown column %q", ref.Column)
	}
	return e.bindings[found].row[pos], nil
}

// eval computes the value of expr under e.
//
// Comparison semantics: any comparison with a NULL operand is false, and so
// is an IN list member that is NULL. The dialect has no NOT and no IS NULL,
// so a WHERE clause can never tell false from SQL's UNKNOWN: two-valued logic
// selects the same rows.
func eval(ex Expr, e *env) (Value, error) {
	switch x := ex.(type) {
	case *Literal:
		return x.Val, nil
	case *Param:
		if x.Index >= len(e.params) {
			return Value{}, fmt.Errorf("sqldb: statement has %d parameters, %d supplied",
				x.Index+1, len(e.params))
		}
		return e.params[x.Index], nil
	case *ColumnRef:
		return e.lookup(x)
	case *BinaryExpr:
		return evalBinary(x, e)
	case *InExpr:
		v, err := eval(x.E, e)
		if err != nil {
			return Value{}, err
		}
		hit := false
		for _, item := range x.List {
			iv, err := eval(item, e)
			if err != nil {
				return Value{}, err
			}
			if !v.IsNull() && !iv.IsNull() && Compare(v, iv) == 0 {
				hit = true
				break
			}
		}
		return Bool(hit), nil
	}
	return Value{}, fmt.Errorf("sqldb: cannot evaluate expression %T", ex)
}

func evalBinary(x *BinaryExpr, e *env) (Value, error) {
	// Short-circuit logic operators.
	switch x.Op {
	case "AND":
		l, err := eval(x.L, e)
		if err != nil {
			return Value{}, err
		}
		if !truthy(l) {
			return Bool(false), nil
		}
		r, err := eval(x.R, e)
		if err != nil {
			return Value{}, err
		}
		return Bool(truthy(r)), nil
	case "OR":
		l, err := eval(x.L, e)
		if err != nil {
			return Value{}, err
		}
		if truthy(l) {
			return Bool(true), nil
		}
		r, err := eval(x.R, e)
		if err != nil {
			return Value{}, err
		}
		return Bool(truthy(r)), nil
	}
	l, err := eval(x.L, e)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(x.R, e)
	if err != nil {
		return Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return Bool(false), nil
	}
	switch x.Op {
	case "=":
		return Bool(Compare(l, r) == 0), nil
	case "!=":
		return Bool(Compare(l, r) != 0), nil
	case "<":
		return Bool(Compare(l, r) < 0), nil
	case "<=":
		return Bool(Compare(l, r) <= 0), nil
	case ">":
		return Bool(Compare(l, r) > 0), nil
	case ">=":
		return Bool(Compare(l, r) >= 0), nil
	case "LIKE":
		if l.T != TypeText || r.T != TypeText {
			return Bool(false), nil
		}
		return Bool(likeMatch(r.S, l.S)), nil
	}
	return Value{}, fmt.Errorf("sqldb: unknown operator %q", x.Op)
}

// truthy reports whether v counts as true in a WHERE clause: a true
// comparison, or a nonzero BOOLEAN or INTEGER column.
func truthy(v Value) bool { return (v.T == TypeBool || v.T == TypeInt) && v.N != 0 }

// likeMatch implements SQL LIKE: % matches any run (including empty),
// _ matches exactly one byte. Matching is case-sensitive, as in MySQL
// with a binary collation.
func likeMatch(pattern, s string) bool {
	// Dynamic-programming two-pointer with backtracking on the last %.
	pi, si := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		if pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]) {
			pi++
			si++
			continue
		}
		if pi < len(pattern) && pattern[pi] == '%' {
			star = pi
			starSi = si
			pi++
			continue
		}
		if star >= 0 {
			pi = star + 1
			starSi++
			si = starSi
			continue
		}
		return false
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// conjuncts flattens nested ANDs into a list of predicates.
func conjuncts(ex Expr) []Expr {
	if b, ok := ex.(*BinaryExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []Expr{ex}
}

// exprString renders an expression for error messages and EXPLAIN output.
func exprString(ex Expr) string {
	switch x := ex.(type) {
	case *Literal:
		return x.Val.String()
	case *Param:
		return "?"
	case *ColumnRef:
		if x.Table != "" {
			return x.Table + "." + x.Column
		}
		return x.Column
	case *BinaryExpr:
		return "(" + exprString(x.L) + " " + x.Op + " " + exprString(x.R) + ")"
	case *InExpr:
		items := make([]string, len(x.List))
		for i, it := range x.List {
			items[i] = exprString(it)
		}
		return exprString(x.E) + " IN (" + strings.Join(items, ", ") + ")"
	}
	return fmt.Sprintf("%T", ex)
}
