package sqldb

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strings"
)

// Query planning is split compile/bind: compileSelect turns a parsed SELECT
// into a selectPlan — a value-free description of how to execute it (which
// index the first stage probes, which expressions feed the probe, filtered
// nested scans versus sorted-set intersection) — and run binds parameter
// values and executes it against a root. A plan reads only the statement and
// the schema (planSpec reads no data) and holds only definitions, never table
// or index versions: run finds each stage's table by name in the root it is
// given, and each index by its slot, so one plan serves every root of its
// schema generation (dbRoot.schema) and outlives data-only commits.
//
// Access-path choices are safe to make symbolically because they are only
// ever optimizations: every stage re-applies its full filter list to each
// candidate row, so a probe merely has to return a superset of the matching
// rows. An index lacks the rows with a NULL key cell, so only an index that
// serves the stage (index.serves) may be probed. When a probe expression
// binds to NULL (or fails to evaluate) at execution time, bind degrades to a
// wider probe and the filters keep the result exact.

// Rows is a fully materialized result set.
type Rows struct {
	Columns []string
	Data    [][]Value
}

// accessPath describes how one execution reaches rows of one table: an
// accessSpec with its probe values bound.
type accessPath struct {
	tbl *table

	// Index equality scan: idx != nil (or rowid set) and eqVals set. When
	// inList is also set, the index is probed once per list value with the
	// key (eqVals..., v) — the multi-point scan behind `col IN (...)`.
	idx    *index
	eqVals []Value
	inList []Value

	// Range scan on the column right after the eqVals prefix (the first
	// column when eqVals is empty).
	rangeLo, rangeHi       *Value
	rangeLoInc, rangeHiInc bool

	// rowid probes the row store by the table's INTEGER PRIMARY KEY
	// instead of an index: eqVals holds at most the key itself.
	rowid bool
}

// scan invokes fn for each rowid selected by the path until fn returns false.
func (ap accessPath) scan(fn func(rowid int64, row Row) bool) {
	switch {
	case ap.inList != nil:
		// One equality probe per IN value. The list is deduplicated at bind
		// time, so every matching rowid is visited exactly once.
		probe := make([]Value, len(ap.eqVals)+1)
		copy(probe, ap.eqVals)
		stop := false
		for _, v := range ap.inList {
			probe[len(ap.eqVals)] = v
			ap.scanEqual(probe, func(rowid int64, row Row) bool {
				if !fn(rowid, row) {
					stop = true
					return false
				}
				return true
			})
			if stop {
				return
			}
		}
	case ap.rowid && (ap.rangeLo != nil || ap.rangeHi != nil):
		ap.tbl.scanRowids(ap.rangeLo, ap.rangeHi, ap.rangeLoInc, ap.rangeHiInc, fn)
	case ap.rangeLo != nil || ap.rangeHi != nil:
		ap.idx.scanPrefixRange(ap.eqVals, ap.rangeLo, ap.rangeHi, ap.rangeLoInc, ap.rangeHiInc, fn)
	case ap.eqVals != nil:
		ap.scanEqual(ap.eqVals, fn)
	default:
		ap.tbl.rows.Ascend(fn)
	}
}

// scanEqual probes the path's index, or the row store by key, with the
// values of probe.
func (ap accessPath) scanEqual(probe []Value, fn func(rowid int64, row Row) bool) {
	if ap.rowid {
		ap.tbl.scanRowids(&probe[0], &probe[0], true, true, fn)
		return
	}
	ap.idx.scanEqual(probe, fn)
}

// accessSpec is the symbolic (value-free) form of an access path: the chosen
// index — or, with rowid set, the row store keyed by the table's INTEGER
// PRIMARY KEY — plus the expressions that will feed its probe slots at bind
// time. slot is idx's position in the table's index list, which every
// version of the table shares within one schema generation.
type accessSpec struct {
	tbl   *tableDef
	idx   *indexDef
	slot  int
	rowid bool

	// eqExprs feed an equality probe on the leading index columns; eqCols
	// holds the table column position each slot probes (parallel slice).
	eqExprs []Expr
	eqCols  []int
	// inExprs are IN-list items probing the column right after the eq
	// prefix (nil when the spec has no IN extension).
	inExprs []Expr
	// loExpr/hiExpr bound a range on the column right after the eq prefix.
	loExpr, hiExpr Expr
	loInc, hiInc   bool
}

func (sp accessSpec) String() string {
	kind, name := "index", ""
	switch {
	case sp.rowid:
		kind, name = "rowid", sp.tbl.name
	case sp.idx == nil:
		return fmt.Sprintf("full-scan(%s)", sp.tbl.name)
	default:
		name = sp.idx.name
	}
	switch {
	case sp.inExprs != nil:
		return fmt.Sprintf("%s-in(%s)", kind, name)
	case sp.loExpr != nil || sp.hiExpr != nil:
		return fmt.Sprintf("%s-range(%s)", kind, name)
	default:
		return fmt.Sprintf("%s-eq(%s)", kind, name)
	}
}

// fullScan reports whether the spec reads the whole row store.
func (sp accessSpec) fullScan() bool { return sp.idx == nil && !sp.rowid }

// bind evaluates the spec's probe expressions against params and returns a
// concrete access path over t, a version of the spec's table. Binding never
// fails: a probe value that is NULL (it can never equal a stored value) or
// unevaluable degrades the path to a wider probe — truncated equality prefix, dropped IN extension, dropped
// range bound, ultimately a full scan — and the stage filters, which always
// re-run on every candidate row, keep the result exact.
func (sp accessSpec) bind(t *table, params []Value) accessPath {
	if sp.fullScan() {
		return accessPath{tbl: t}
	}
	var ix *index
	if sp.idx != nil {
		ix = t.indexes[sp.slot]
	}
	// prefix is the path degraded to an equality probe on the values bound.
	prefix := func(vals []Value) accessPath {
		if len(vals) == 0 {
			return accessPath{tbl: t}
		}
		return accessPath{tbl: t, idx: ix, eqVals: vals}
	}
	ev := &env{params: params}
	vals := make([]Value, 0, len(sp.eqExprs))
	for _, ex := range sp.eqExprs {
		v, err := eval(ex, ev)
		if err != nil || v.IsNull() {
			return prefix(vals)
		}
		vals = append(vals, v)
	}
	if sp.inExprs != nil {
		list := make([]Value, 0, len(sp.inExprs))
		for _, item := range sp.inExprs {
			v, err := eval(item, ev)
			if err != nil {
				// Unevaluable item: drop the whole IN extension so the probe
				// stays a superset of what the filter would accept.
				return prefix(vals)
			}
			// A NULL item matches nothing.
			if !v.IsNull() && !slices.ContainsFunc(list, func(u Value) bool { return Compare(u, v) == 0 }) {
				list = append(list, v)
			}
		}
		return accessPath{tbl: t, idx: ix, rowid: sp.rowid, eqVals: vals, inList: list}
	}
	if sp.loExpr != nil || sp.hiExpr != nil {
		ap := accessPath{tbl: t, idx: ix, rowid: sp.rowid, eqVals: vals}
		if sp.loExpr != nil {
			if v, err := eval(sp.loExpr, ev); err == nil && !v.IsNull() {
				ap.rangeLo, ap.rangeLoInc = &v, sp.loInc
			}
		}
		if sp.hiExpr != nil {
			if v, err := eval(sp.hiExpr, ev); err == nil && !v.IsNull() {
				ap.rangeHi, ap.rangeHiInc = &v, sp.hiInc
			}
		}
		if ap.rangeLo == nil && ap.rangeHi == nil {
			return prefix(vals)
		}
		return ap
	}
	return accessPath{tbl: t, idx: ix, rowid: sp.rowid, eqVals: vals}
}

// colOf returns the column position if ex, a bound expression, is a
// reference to a column of stage si.
func colOf(ex Expr, si int) (int, bool) {
	c, ok := ex.(*boundCol)
	if !ok || c.bind != si {
		return 0, false
	}
	return c.pos, true
}

// rejectsNull reports whether a row of tbl, the table of stage si, that is
// NULL in column c fails preds, the conjuncts of that stage: c is declared
// NOT NULL, or it is a direct operand of a comparison or the tested side of
// an IN among preds. eval makes every comparison with a NULL operand false
// and the dialect has no IS NULL or NOT to turn that around, so such a row
// can never pass.
func rejectsNull(tbl *tableDef, si int, preds []Expr, c int) bool {
	if tbl.cols[c].NotNull {
		return true
	}
	is := func(ex Expr) bool {
		p, ok := colOf(ex, si)
		return ok && p == c
	}
	for _, pr := range preds {
		switch x := pr.(type) {
		case *InExpr:
			if is(x.E) {
				return true
			}
		case *BinaryExpr:
			switch x.Op {
			case "=", "!=", "<", "<=", ">", ">=", "LIKE":
				if is(x.L) || is(x.R) {
					return true
				}
			}
		}
	}
	return false
}

// serves reports whether a probe of ix returns every row that can pass
// preds, the conjuncts of stage si, which binds ix's table. The index has
// no entry for a row with a NULL key cell, so every key column from
// position lead on must be one where such a row fails preds (rejectsNull);
// the caller probes the first lead columns with non-NULL values.
func (ix *indexDef) serves(si int, preds []Expr, lead int) bool {
	for _, c := range ix.cols[lead:] {
		if !rejectsNull(ix.table, si, preds, c) {
			return false
		}
	}
	return true
}

// rankUnique is the rank of a unique index whose whole key is bound by `=`:
// it yields at most one row, so it outranks any count of bound columns.
const rankUnique = math.MaxInt

// planSpec chooses the access spec for t, the table of stage si, from preds,
// that stage's bound conjuncts, by rank. The choice is
// a function of the schema and the predicates alone — no row count or
// estimate enters it — so a plan never changes as the data grows. Only an
// index that serves preds is a candidate (see index.serves), and the rule
// is:
//
//  1. a unique index whose whole key is bound by `=` ranks rankUnique;
//  2. any other candidate ranks by the key columns it binds: each column of
//     its equality prefix, plus one for an IN list or a range on the column
//     after the prefix;
//  3. on a tie the first candidate enumerated wins: the row store of a table
//     keyed by its INTEGER PRIMARY KEY (a one-column unique index that holds
//     every row), then indexes in declaration order, and within one of them
//     IN before range before plain equality.
//
// A full scan ranks 0, below every index candidate: a probe is far cheaper
// than a filtered scan row here, and the filters re-run regardless.
func planSpec(t *table, si int, preds []Expr) accessSpec {
	tbl := t.tableDef
	// Collect per-column symbolic slots: the first equality expression, the
	// first all-constant IN list, and range bounds.
	eq := map[int]Expr{}
	inLists := map[int][]Expr{}
	type boundE struct {
		ex  Expr
		inc bool
	}
	lo := map[int]boundE{}
	hi := map[int]boundE{}
	for _, p := range preds {
		if in, ok := p.(*InExpr); ok {
			c, ok := colOf(in.E, si)
			if !ok {
				continue
			}
			usable := len(in.List) > 0
			for _, item := range in.List {
				if !constExpr(item) {
					usable = false
					break
				}
			}
			if usable {
				if _, dup := inLists[c]; !dup {
					inLists[c] = in.List
				}
			}
			continue
		}
		b, ok := p.(*BinaryExpr)
		if !ok {
			continue
		}
		// The catalog writes every sargable predicate column-first
		// (`col op ?`); `? op col` is still evaluated, as a filter.
		colPos, ok := colOf(b.L, si)
		if !ok || !constExpr(b.R) {
			continue
		}
		val := b.R
		switch b.Op {
		case "=":
			if _, dup := eq[colPos]; !dup {
				eq[colPos] = val
			}
		case ">":
			if _, dup := lo[colPos]; !dup {
				lo[colPos] = boundE{val, false}
			}
		case ">=":
			if _, dup := lo[colPos]; !dup {
				lo[colPos] = boundE{val, true}
			}
		case "<":
			if _, dup := hi[colPos]; !dup {
				hi[colPos] = boundE{val, false}
			}
		case "<=":
			if _, dup := hi[colPos]; !dup {
				hi[colPos] = boundE{val, true}
			}
		}
	}

	best, bestRank := accessSpec{tbl: tbl}, 0
	consider := func(sp accessSpec, rank int) {
		if rank > bestRank {
			best, bestRank = sp, rank
		}
	}
	// extend considers sp extended by an IN list, then by a range, on
	// column c, either ranking rank.
	extend := func(sp accessSpec, c, rank int) {
		if items, ok := inLists[c]; ok {
			in := sp
			in.inExprs = items
			consider(in, rank)
		}
		l, hasLo := lo[c]
		h, hasHi := hi[c]
		if hasLo {
			sp.loExpr, sp.loInc = l.ex, l.inc
		}
		if hasHi {
			sp.hiExpr, sp.hiInc = h.ex, h.inc
		}
		if hasLo || hasHi {
			consider(sp, rank)
		}
	}
	if pk := tbl.pk; pk >= 0 {
		extend(accessSpec{tbl: tbl, rowid: true}, pk, 1)
		if ex, ok := eq[pk]; ok {
			consider(accessSpec{tbl: tbl, rowid: true, eqExprs: []Expr{ex}, eqCols: []int{pk}}, rankUnique)
		}
	}
	for slot, ix := range t.indexes {
		if !ix.serves(si, preds, 0) {
			continue
		}
		var eqExprs []Expr
		var eqCols []int
		for _, c := range ix.cols {
			ex, ok := eq[c]
			if !ok {
				break
			}
			eqExprs = append(eqExprs, ex)
			eqCols = append(eqCols, c)
		}
		n := len(eqExprs)
		sp := accessSpec{tbl: tbl, idx: ix.indexDef, slot: slot, eqExprs: eqExprs, eqCols: eqCols}
		if n < len(ix.cols) {
			extend(sp, ix.cols[n], n+1)
		}
		switch {
		case n == len(ix.cols) && ix.unique:
			consider(sp, rankUnique)
		case n > 0:
			consider(sp, n)
		}
	}
	return best
}

// stagePlan is the per-stage execution info for a compiled SELECT pipeline.
type stagePlan struct {
	ref TableRef
	tbl *tableDef

	// filters are the WHERE and ON conjuncts, bound, that read no later
	// stage; applied as soon as this stage's row is bound to keep
	// intermediate row counts small.
	filters []Expr
}

// selectPlan is a compiled statement: shape-only, value-free, immutable
// after compilation and therefore safe to cache and execute from many
// goroutines at once, against any root of the schema generation it was
// compiled for. Every column name in it is resolved to a slot (boundCol).
// A SELECT compiles to one; an UPDATE or DELETE to the plan of the SELECT
// of its WHERE, whose rows are the ones it changes; an INSERT to a plan
// that is never run, with only its table as stage.
type selectPlan struct {
	st     *SelectStmt
	schema uint64 // the dbRoot.schema compiled against
	stages []stagePlan
	// columns names the output columns, one per st.Items entry; items and
	// order are st.Items and st.OrderBy's expressions, bound.
	columns []string
	items   []Expr
	order   []Expr
	// reads lists, ascending, the stages items or order read: the only rows
	// a matched tuple keeps until projection.
	reads []int
	// access drives the first stage's scan in nested execution (always a
	// full scan in naive plans); later stages scan their whole table.
	access accessSpec
	// inter, when non-nil, replaces nested execution with sorted rowid-set
	// intersection over the stages' join-key equivalence class.
	inter *intersectPlan
	// cols and vals are an INSERT's or UPDATE's writes: the value of
	// vals[r][i] goes to column position cols[i], for each VALUES row r (an
	// UPDATE has one).
	cols []int
	vals [][]Expr
}

// compile builds the plan of st, any statement but DDL, against this root.
func (r *dbRoot) compile(st Statement) (*selectPlan, error) {
	switch s := st.(type) {
	case *SelectStmt:
		return r.compileSelect(s, false)
	case *DeleteStmt:
		return r.compileSelect(selectWhere(s.Table, s.Where), false)
	case *UpdateStmt:
		p, err := r.compileSelect(selectWhere(s.Table, s.Where), false)
		if err != nil {
			return nil, err
		}
		cols, vals := make([]string, len(s.Set)), make([]Expr, len(s.Set))
		for i, as := range s.Set {
			cols[i], vals[i] = as.Column, as.Value
		}
		return p, p.bindWrites(cols, [][]Expr{vals}, p.stages)
	case *InsertStmt:
		p, err := r.compileSelect(selectWhere(s.Table, nil), true)
		if err != nil {
			return nil, err
		}
		return p, p.bindWrites(s.Columns, s.Rows, nil) // VALUES see no row
	}
	return nil, fmt.Errorf("sqldb: cannot compile %T", st)
}

// bindWrites resolves cols, the columns an INSERT or UPDATE writes, in the
// plan's table, and binds each row of the values it writes there against
// scope.
func (p *selectPlan) bindWrites(cols []string, rows [][]Expr, scope []stagePlan) error {
	table := p.stages[0].ref.Table
	for _, name := range cols {
		c, err := resolve(&ColumnRef{Table: table, Column: name}, p.stages, nil)
		if err != nil {
			return err
		}
		p.cols = append(p.cols, c.pos)
	}
	for _, row := range rows {
		if len(row) != len(cols) {
			return fmt.Errorf("sqldb: INSERT into %q names %d columns but supplies %d values",
				table, len(cols), len(row))
		}
		vals := make([]Expr, len(row))
		for i, ex := range row {
			var err error
			if vals[i], err = bindExpr(ex, scope, nil); err != nil {
				return err
			}
		}
		p.vals = append(p.vals, vals)
	}
	return nil
}

// selectWhere is the SELECT of the rows of table that where (nil for all)
// selects: the statement an UPDATE or DELETE plans as, and, with no WHERE,
// the one stage an INSERT's plan names.
func selectWhere(table string, where Expr) *SelectStmt {
	return &SelectStmt{From: TableRef{Table: table, Alias: table}, Where: where, Limit: -1}
}

// compileSelect builds the execution plan for st against this root. Every
// join is an inner join, so its ON conjuncts are placed exactly like WHERE
// conjuncts: each at the last stage it reads, which is the first stage that
// binds every table it names. With naive set the first stage is a full scan
// and intersection is never considered — the same executor with every
// planner choice disabled, which is the reference evaluator the
// planner-parity harness diffs against.
func (r *dbRoot) compileSelect(st *SelectStmt, naive bool) (*selectPlan, error) {
	fromTbl, ok := r.tables[st.From.Table]
	if !ok {
		return nil, fmt.Errorf("sqldb: no such table %q", st.From.Table)
	}
	tabs := []*table{fromTbl}
	stages := []stagePlan{{ref: st.From, tbl: fromTbl.tableDef}}
	var conjs []Expr
	if st.Where != nil {
		conjs = conjuncts(st.Where)
	}
	for _, j := range st.Joins {
		jt, ok := r.tables[j.Table.Table]
		if !ok {
			return nil, fmt.Errorf("sqldb: no such table %q", j.Table.Table)
		}
		for si := range stages {
			if stages[si].ref.Alias == j.Table.Alias {
				return nil, fmt.Errorf("sqldb: duplicate table alias %q", j.Table.Alias)
			}
		}
		tabs = append(tabs, jt)
		stages = append(stages, stagePlan{ref: j.Table, tbl: jt.tableDef})
		conjs = append(conjs, conjuncts(j.On)...)
	}

	for i, c := range conjs {
		b, err := bindExpr(c, stages, c)
		if err != nil {
			return nil, err
		}
		conjs[i] = b
		_, last := stageSpan(b)
		si := max(last, 0)
		stages[si].filters = append(stages[si].filters, b)
	}

	p := &selectPlan{st: st, schema: r.schema, stages: stages, access: accessSpec{tbl: fromTbl.tableDef}}
	for _, ex := range st.Items {
		b, err := bindExpr(ex, stages, nil)
		if err != nil {
			return nil, err
		}
		p.items = append(p.items, b)
		name := exprString(ex)
		if ref, ok := ex.(*ColumnRef); ok {
			name = ref.Column
		}
		p.columns = append(p.columns, name)
	}
	for _, ob := range st.OrderBy {
		b, err := bindExpr(ob.Expr, stages, nil)
		if err != nil {
			return nil, err
		}
		p.order = append(p.order, b)
	}
	read := make([]bool, len(stages))
	for _, ex := range slices.Concat(p.items, p.order) {
		eachCol(ex, func(c *boundCol) { read[c.bind] = true })
	}
	for si := range read {
		if read[si] {
			p.reads = append(p.reads, si)
		}
	}
	if !naive {
		p.access = planSpec(fromTbl, 0, stages[0].filters)
		p.planIntersect(tabs, conjs)
	}
	return p, nil
}

// passesAll evaluates a conjunct list against the env, reporting whether
// every conjunct is true.
func passesAll(filters []Expr, ev *env) (bool, error) {
	for _, f := range filters {
		v, err := eval(f, ev)
		if err != nil {
			return false, err
		}
		if !truthy(v) {
			return false, nil
		}
	}
	return true, nil
}

// run executes the compiled plan against r, a root of its schema generation,
// with the given parameter values. The plan itself is read-only; all
// per-execution state lives here, each stage's table version in the env.
//
// With a LIMIT and no ORDER BY, and on a page the intersection drives in
// ORDER BY order (runDrive), each matched tuple is projected as it is found
// and matching stops at LIMIT. Otherwise the matched tuples are kept,
// ordered by any ORDER BY, then projected one by one in that order, their
// count sizing the result's slab. DISTINCT drops a projected row equal to
// one already kept (see rowSet), and projection stops once LIMIT rows are
// kept.
func (p *selectPlan) run(r *dbRoot, params []Value) (*Rows, error) {
	stages := p.stages
	ev := &env{params: params, tabs: make([]*table, len(stages)), rows: make([]Row, len(stages))}
	for i := range stages {
		ev.tabs[i] = r.tables[stages[i].ref.Table]
	}
	match := func(emit func() bool) error {
		if p.inter != nil {
			return p.inter.run(ev, emit)
		}
		return p.runNested(ev, func(int64) bool { return emit() })
	}
	if p.st.Count {
		n := 0
		if err := match(func() bool { n++; return true }); err != nil {
			return nil, err
		}
		return &Rows{Columns: []string{"count"}, Data: [][]Value{{Int(int64(n))}}}, nil
	}
	pr := projector{p: p, ev: ev}
	if p.st.Distinct {
		pr.seen = newRowSet()
	}
	if len(p.order) == 0 && p.st.Limit >= 0 {
		err := match(pr.add)
		return pr.result(err)
	}
	if p.inter != nil && p.inter.drive != nil {
		done, err := p.runDrive(ev, pr.add)
		if done || err != nil || pr.err != nil {
			return pr.result(err)
		}
		// The walk was the costlier way to this page: start over.
		pr.reset()
	}

	// Matched tuple t keeps its rows of the stages in p.reads, at
	// kept[t*w:(t+1)*w]; bind puts them back in ev for eval.
	var kept []Row
	n, w := 0, len(p.reads)
	err := match(func() bool {
		for _, si := range p.reads {
			kept = append(kept, ev.rows[si])
		}
		n++
		return true
	})
	if err != nil {
		return nil, err
	}
	bind := func(t int) {
		for j, si := range p.reads {
			ev.rows[si] = kept[t*w+j]
		}
	}
	// sorted holds the tuples in ORDER BY order; without one they project
	// in match order.
	type keyed struct {
		t    int
		keys []Value
	}
	var sorted []keyed
	if len(p.order) > 0 {
		sorted = make([]keyed, n)
		keys := make([]Value, n*len(p.order))
		for t := range sorted {
			bind(t)
			sorted[t] = keyed{t, keys[t*len(p.order) : (t+1)*len(p.order)]}
			for ki, ex := range p.order {
				if sorted[t].keys[ki], err = eval(ex, ev); err != nil {
					return nil, err
				}
			}
		}
		slices.SortStableFunc(sorted, func(a, b keyed) int {
			for ki, ob := range p.st.OrderBy {
				c := Compare(a.keys[ki], b.keys[ki])
				if ob.Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
	}
	pr.size = n
	for i := range n {
		t := i
		if sorted != nil {
			t = sorted[i].t
		}
		bind(t)
		if !pr.add() {
			break
		}
	}
	return pr.result(nil)
}

// projector builds a result row by row from the tuples bound in ev. The
// rows are carved from slabs, a few per result instead of one allocation
// per row; size, when known, is how many rows the result can hold at most.
type projector struct {
	p    *selectPlan
	ev   *env
	seen *rowSet
	data [][]Value
	slab []Value
	size int
	err  error
}

// slabRows caps a slab of a result of unknown size: each doubles the one
// before up to this many rows, so no more than that many go unused.
const slabRows = 128

// add projects the bound tuple and reports whether the result wants more.
func (pr *projector) add() bool {
	p, w := pr.p, len(pr.p.items)
	if p.st.Limit >= 0 && len(pr.data) >= p.st.Limit {
		return false
	}
	if cap(pr.slab)-len(pr.slab) < w {
		rows := min(max(2*cap(pr.slab)/max(w, 1), 16), slabRows)
		if pr.size > 0 {
			rows = pr.size - len(pr.data)
		}
		if p.st.Limit >= 0 {
			rows = min(rows, p.st.Limit-len(pr.data))
		}
		pr.slab = make([]Value, 0, rows*w)
	}
	out := pr.slab[len(pr.slab) : len(pr.slab)+w : len(pr.slab)+w]
	for j, ex := range p.items {
		v, err := eval(ex, pr.ev)
		if err != nil {
			pr.err = err
			return false
		}
		out[j] = v
	}
	if pr.seen != nil && !pr.seen.add(out) {
		return true // out's cells are free for the next row
	}
	pr.slab = pr.slab[:len(pr.slab)+w]
	pr.data = append(pr.data, out)
	return p.st.Limit < 0 || len(pr.data) < p.st.Limit
}

// reset drops every row projected so far.
func (pr *projector) reset() {
	pr.data, pr.slab = nil, nil
	if pr.seen != nil {
		pr.seen = newRowSet()
	}
}

// result returns the rows projected, or the first error of matching or
// projection.
func (pr *projector) result(err error) (*Rows, error) {
	if err == nil {
		err = pr.err
	}
	if err != nil {
		return nil, err
	}
	// The plan is shared; the result is the caller's.
	return &Rows{Columns: slices.Clone(pr.p.columns), Data: pr.data}, nil
}

// rowSet is the set of projected rows DISTINCT has kept. Value is
// ==-comparable — type tag, payload word and text — so a one-column row is
// its own map key; a wider row is filed under a hash of its cells, and rows
// that share a hash are compared cell by cell. Two rows are equal exactly
// when every cell is ==: +0 and -0 differ (their payloads do), so do
// INTEGER 1 and FLOAT 1 (their tags do), NULLs are equal, and so are two
// copies of one text.
type rowSet struct {
	one  map[Value]struct{}
	wide map[uint64][][]Value
	seed maphash.Seed
}

func newRowSet() *rowSet {
	return &rowSet{one: map[Value]struct{}{}, wide: map[uint64][][]Value{}, seed: maphash.MakeSeed()}
}

// add reports whether row is new to the set, adding it; the set keeps row.
func (s *rowSet) add(row []Value) bool {
	if len(row) == 1 {
		if _, dup := s.one[row[0]]; dup {
			return false
		}
		s.one[row[0]] = struct{}{}
		return true
	}
	var h uint64
	for _, v := range row {
		h = h*0x9e3779b97f4a7c15 + (uint64(v.T)<<56 ^ uint64(v.N) ^ maphash.String(s.seed, v.S))
	}
	for _, kept := range s.wide[h] {
		if slices.Equal(kept, row) {
			return false
		}
	}
	s.wide[h] = append(s.wide[h], row)
	return true
}

// runNested is the nested executor: the first stage's access path, then a
// full scan of each later stage's table, every stage's filters applied as
// soon as its row is bound. emit receives the rowid of the last stage's
// row.
func (p *selectPlan) runNested(ev *env, emit func(rowid int64) bool) error {
	stages := p.stages
	var execErr error
	var run func(si int, rowid int64, row Row) bool // returns false to stop (on error)
	run = func(si int, rowid int64, row Row) bool {
		ev.rows[si] = row
		ok, err := passesAll(stages[si].filters, ev)
		if err != nil {
			execErr = err
			return false
		}
		if !ok {
			return true
		}
		if si+1 == len(stages) {
			return emit(rowid)
		}
		cont := true
		ev.tabs[si+1].rows.Ascend(func(id int64, next Row) bool {
			cont = run(si+1, id, next)
			return cont
		})
		return cont
	}
	p.access.bind(ev.tabs[0], ev.params).scan(func(id int64, row Row) bool { return run(0, id, row) })
	return execErr
}

// String renders the plan as one stable line — the EXPLAIN format asserted
// by golden tests. Single-table plans render as the bare access path
// ("index-eq(name)"); nested joins render each stage in execution order
// ("nested[a index-eq(i) -> b scan(t) -> c scan(u)]"); intersection plans
// list the stages in statement order, each by how it yields its keys
// ("intersect[a0 seek(i) & t seek(rowid)]", "u sort(index-in(j))"), and a
// page's drive index as "order(i)".
func (p *selectPlan) String() string {
	if p.inter != nil {
		var b strings.Builder
		b.WriteString("intersect[")
		for i := range p.inter.stages {
			is := &p.inter.stages[i]
			if i > 0 {
				b.WriteString(" & ")
			}
			b.WriteString(p.stages[is.si].ref.Alias)
			b.WriteByte(' ')
			switch d := p.inter.drive; {
			case d != nil && d.si == i:
				b.WriteString("order(" + d.idx.name + ")")
			case is.kind == seekRun:
				b.WriteString("seek(" + is.run.idx.name + ")")
			case is.kind == seekRows:
				b.WriteString("seek(rowid)")
			default:
				b.WriteString("sort(" + is.access.String() + ")")
			}
		}
		b.WriteString("]")
		return b.String()
	}
	if len(p.stages) == 1 {
		return p.access.String()
	}
	var b strings.Builder
	b.WriteString("nested[")
	for si := range p.stages {
		if si > 0 {
			b.WriteString(" -> ")
		}
		sp := &p.stages[si]
		b.WriteString(sp.ref.Alias)
		b.WriteByte(' ')
		if si == 0 {
			b.WriteString(p.access.String())
		} else {
			b.WriteString("scan(" + sp.tbl.name + ")")
		}
	}
	b.WriteString("]")
	return b.String()
}

// Explain returns the one-line rendering (see selectPlan.String) of the
// plan Query runs for a SELECT: the statement cache's. Planning is
// value-free, so no arguments are needed.
func (db *DB) Explain(sql string) (string, error) {
	e, err := db.prepare(sql)
	if err != nil {
		return "", err
	}
	if _, ok := e.st.(*SelectStmt); !ok {
		return "", fmt.Errorf("sqldb: EXPLAIN supports only SELECT")
	}
	plan, err := db.planFor(sql, e, db.root.Load())
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}
