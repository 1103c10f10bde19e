package sqldb

import (
	"fmt"
	"math"
	"strings"
)

// env is one execution's state for expression evaluation: each stage's
// table version and the row bound at it, and the parameter values. A stage's
// row is set before any expression that reads it is evaluated: the planner
// places each conjunct at the last stage it reads.
type env struct {
	tabs   []*table
	rows   []Row
	params []Value
}

// boundCol is a column reference resolved when its statement compiled: the
// stage (binding) whose table holds the column, and the column's position.
type boundCol struct{ bind, pos int }

func (*boundCol) expr() {}

// resolve binds ref to the stage its alias names or, unqualified, to the one
// stage whose table has the column. It is the only lookup of a column name
// in a query or DML statement; the plan keeps the result for its schema
// generation, whose tables keep their columns (the dialect has no ALTER or
// DROP TABLE). In conj, a WHERE or ON conjunct, a name no stage binds makes
// the conjunct unresolvable.
func resolve(ref *ColumnRef, stages []stagePlan, conj Expr) (*boundCol, error) {
	var b *boundCol
	for si, st := range stages {
		if ref.Table != "" {
			if st.ref.Alias != ref.Table {
				continue
			}
			p, err := st.tbl.columnPos(ref.Column)
			if err != nil {
				return nil, err
			}
			return &boundCol{si, p}, nil
		}
		if p, ok := st.tbl.colPos[ref.Column]; ok {
			if b != nil {
				return nil, fmt.Errorf("sqldb: ambiguous column %q", ref.Column)
			}
			b = &boundCol{si, p}
		}
	}
	switch {
	case b != nil:
		return b, nil
	case conj != nil:
		return nil, fmt.Errorf("sqldb: unresolvable predicate %s", exprString(conj))
	case ref.Table != "":
		return nil, fmt.Errorf("sqldb: unknown table alias %q", ref.Table)
	}
	return nil, fmt.Errorf("sqldb: unknown column %q", ref.Column)
}

// bindExpr returns a copy of ex with every column reference resolved against
// stages. The parsed statement is shared by every plan compiled from it, so
// nothing in it changes.
func bindExpr(ex Expr, stages []stagePlan, conj Expr) (Expr, error) {
	var err error
	switch x := ex.(type) {
	case *ColumnRef:
		return resolve(x, stages, conj)
	case *BinaryExpr:
		b := &BinaryExpr{Op: x.Op}
		if b.L, err = bindExpr(x.L, stages, conj); err == nil {
			b.R, err = bindExpr(x.R, stages, conj)
		}
		return b, err
	case *InExpr:
		in := &InExpr{List: make([]Expr, len(x.List))}
		in.E, err = bindExpr(x.E, stages, conj)
		for i := 0; i < len(x.List) && err == nil; i++ {
			in.List[i], err = bindExpr(x.List[i], stages, conj)
		}
		return in, err
	}
	return ex, nil
}

// eachCol calls fn for every column reference in ex, a bound expression.
func eachCol(ex Expr, fn func(c *boundCol)) {
	switch x := ex.(type) {
	case *boundCol:
		fn(x)
	case *BinaryExpr:
		eachCol(x.L, fn)
		eachCol(x.R, fn)
	case *InExpr:
		eachCol(x.E, fn)
		for _, it := range x.List {
			eachCol(it, fn)
		}
	}
}

// stageSpan returns the first and last stage whose columns ex, a bound
// expression, reads; last is -1 for a constant (literals and parameters
// only), which constExpr reports.
func stageSpan(ex Expr) (first, last int) {
	first, last = math.MaxInt, -1
	eachCol(ex, func(c *boundCol) { first, last = min(first, c.bind), max(last, c.bind) })
	return first, last
}

func constExpr(ex Expr) bool {
	_, last := stageSpan(ex)
	return last < 0
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
	case *boundCol:
		return e.rows[x.bind][x.pos], nil
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
