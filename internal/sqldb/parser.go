package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

type parser struct {
	toks   []token
	i      int
	params int
}

// Parse compiles one SQL statement of the catalog's dialect:
//
//	CREATE TABLE t (col TYPE [PRIMARY KEY] [AUTOINCREMENT] [NOT NULL] [UNIQUE], ...)
//	CREATE INDEX i ON t (col, ...)
//	INSERT INTO t (col, ...) VALUES (expr, ...), ...
//	UPDATE t SET col = expr, ... [WHERE expr]
//	DELETE FROM t [WHERE expr]
//	SELECT [DISTINCT] {COUNT(*) | expr, ...} FROM t [alias] [JOIN t [alias] ON expr ...]
//	  [WHERE expr] [ORDER BY expr [ASC|DESC], ...] [LIMIT n]
//
// with expressions built from AND, OR, parentheses, = != < <= > >=, IN (...),
// LIKE, column references, ? parameters, integers and TRUE. Nothing else
// parses: the grammar is exactly what the catalog issues (internal/core), so
// a statement shape the catalog starts to use fails in core's own tests.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, fmt.Errorf("%w (in %q)", err, truncateSQL(src))
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("sqldb: trailing input at %q (in %q)", p.cur().text, truncateSQL(src))
	}
	return st, nil
}

func truncateSQL(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqldb: expected %s, found %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return fmt.Errorf("sqldb: expected %q, found %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqldb: expected identifier, found %q", t.text)
	}
	p.i++
	return t.text, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.acceptKeyword("SELECT"):
		return p.selectStmt()
	case p.acceptKeyword("INSERT"):
		return p.insertStmt()
	case p.acceptKeyword("UPDATE"):
		return p.updateStmt()
	case p.acceptKeyword("DELETE"):
		return p.deleteStmt()
	case p.acceptKeyword("CREATE"):
		return p.createStmt()
	}
	return nil, fmt.Errorf("sqldb: unrecognized statement start %q", p.cur().text)
}

func (p *parser) createStmt() (Statement, error) {
	switch {
	case p.acceptKeyword("TABLE"):
		return p.createTable()
	case p.acceptKeyword("INDEX"):
		return p.createIndex()
	}
	return nil, fmt.Errorf("sqldb: expected TABLE or INDEX after CREATE, found %q", p.cur().text)
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name}
	for {
		col, err := p.columnDef()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) columnDef() (ColumnDef, error) {
	var col ColumnDef
	name, err := p.ident()
	if err != nil {
		return col, err
	}
	col.Name = name
	t := p.cur()
	if t.kind != tokKeyword {
		return col, fmt.Errorf("sqldb: expected column type, found %q", t.text)
	}
	switch t.text {
	case "INTEGER":
		col.Type = TypeInt
	case "FLOAT":
		col.Type = TypeFloat
	case "TEXT":
		col.Type = TypeText
	case "BOOLEAN":
		col.Type = TypeBool
	case "DATETIME":
		col.Type = TypeTime
	default:
		return col, fmt.Errorf("sqldb: unknown column type %q", t.text)
	}
	p.i++
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return col, err
			}
			col.PrimaryKey = true
			col.NotNull = true
		case p.acceptKeyword("AUTOINCREMENT"):
			if col.Type != TypeInt {
				return col, fmt.Errorf("sqldb: AUTOINCREMENT requires INTEGER column %q", col.Name)
			}
			col.AutoIncrement = true
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return col, err
			}
			col.NotNull = true
		case p.acceptKeyword("UNIQUE"):
			col.Unique = true
		default:
			return col, nil
		}
	}
}

func (p *parser) createIndex() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	st := &CreateIndexStmt{Name: name, Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) insertStmt() (Statement, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) updateStmt() (Statement, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, Assignment{Column: col, Value: e})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		st.Where, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		st.Where, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) selectStmt() (Statement, error) {
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.acceptKeyword("DISTINCT")
	if p.acceptKeyword("COUNT") {
		for _, s := range []string{"(", "*", ")"} {
			if err := p.expectSymbol(s); err != nil {
				return nil, err
			}
		}
		st.Count = true
	} else {
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			st.Items = append(st.Items, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	st.From = from
	for p.acceptKeyword("JOIN") {
		tr, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, JoinClause{Table: tr, On: on})
	}
	if p.acceptKeyword("WHERE") {
		st.Where, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, key)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	return st, nil
}

func (p *parser) intLiteral() (int, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sqldb: expected integer, found %q", t.text)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("sqldb: expected integer, found %q", t.text)
	}
	p.i++
	return n, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Table: name, Alias: name}
	if p.cur().kind == tokIdent {
		tr.Alias = p.next().text
	}
	return tr, nil
}

// Expression grammar, loosest to tightest: OR, AND, comparison, primary.

func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.comparison()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.comparison()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		in := &InExpr{E: l}
		for {
			e, err := p.primary()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return in, nil
	}
	if p.acceptKeyword("LIKE") {
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: "LIKE", L: l, R: r}, nil
	}
	t := p.cur()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "<", "<=", ">", ">=", "!=":
			p.i++
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: t.text, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqldb: bad number %q", t.text)
		}
		p.i++
		return &Literal{Val: Int(n)}, nil
	case tokParam:
		p.i++
		idx := p.params
		p.params++
		return &Param{Index: idx}, nil
	case tokKeyword:
		if p.acceptKeyword("TRUE") {
			return &Literal{Val: Bool(true)}, nil
		}
	case tokIdent:
		p.i++
		if p.acceptSymbol(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Column: col}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.i++
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sqldb: unexpected token %q in expression", t.text)
}
