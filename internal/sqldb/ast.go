package sqldb

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE TABLE name (columns...).
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

// ColumnDef describes one column in a CREATE TABLE.
type ColumnDef struct {
	Name          string
	Type          Type
	NotNull       bool
	PrimaryKey    bool
	AutoIncrement bool
	Unique        bool
}

// CreateIndexStmt is CREATE INDEX name ON table (cols...).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
}

// InsertStmt is INSERT INTO table (cols) VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// UpdateStmt is UPDATE table SET col = expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr // nil means all rows
}

// Assignment is one col = expr clause of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM table [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// SelectStmt is SELECT [DISTINCT] {COUNT(*) | items} FROM table [alias]
// [JOIN ...] [WHERE expr] [ORDER BY col [ASC|DESC], ...] [LIMIT n].
type SelectStmt struct {
	Distinct bool
	Count    bool   // COUNT(*); Items is empty
	Items    []Expr // the projected expressions
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	OrderBy  []OrderKey
	Limit    int // -1 means no limit
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

// JoinClause is JOIN table [alias] ON expr, an inner join.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}

// Expr is a SQL expression tree node.
type Expr interface{ expr() }

// Literal is a constant: an integer or TRUE.
type Literal struct{ Val Value }

// Param is a ? placeholder, numbered left to right from 0.
type Param struct{ Index int }

// ColumnRef names a column, optionally qualified by table alias.
type ColumnRef struct {
	Table  string // "" if unqualified
	Column string
}

// BinaryExpr applies Op to two operands. Ops: = != < <= > >= AND OR LIKE.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// InExpr is "e IN (list...)".
type InExpr struct {
	E    Expr
	List []Expr
}

func (*Literal) expr()    {}
func (*Param) expr()      {}
func (*ColumnRef) expr()  {}
func (*BinaryExpr) expr() {}
func (*InExpr) expr()     {}
