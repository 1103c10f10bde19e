package sqldb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Query planning is split compile/bind: compileSelect turns a parsed SELECT
// into a selectPlan — a value-free description of how to execute it (which
// index the first stage probes, which expressions feed the probe, filtered
// nested scans versus sorted-set intersection) — and run binds parameter values and
// executes. A plan's choices depend only on the statement and the schema
// (planSpec reads no data), but it points at the table and index versions of
// the root it was compiled against, so the DB layer caches plans keyed on
// the MVCC epoch (see DB.plannedSelect): the epoch machinery invalidates
// them for free on every commit.
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

	// Index equality scan: idx != nil and eqVals set. When inList is also
	// set, the index is probed once per list value with the key
	// (eqVals..., v) — the multi-point scan behind `col IN (...)`.
	idx    *index
	eqVals []Value
	inList []Value

	// Range scan on the column right after the eqVals prefix (the first
	// column when eqVals is empty).
	rangeLo, rangeHi       *Value
	rangeLoInc, rangeHiInc bool
}

// scan invokes fn for each rowid selected by the path until fn returns false.
func (ap accessPath) scan(fn func(rowid int64, row Row) bool) {
	switch {
	case ap.idx != nil && ap.inList != nil:
		// One equality probe per IN value. The list is deduplicated at bind
		// time, so every matching rowid is visited exactly once.
		probe := make([]Value, len(ap.eqVals)+1)
		copy(probe, ap.eqVals)
		stop := false
		for _, v := range ap.inList {
			probe[len(ap.eqVals)] = v
			ap.idx.scanEqual(probe, func(rowid int64, row Row) bool {
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
	case ap.idx != nil && (ap.rangeLo != nil || ap.rangeHi != nil):
		ap.idx.scanPrefixRange(ap.eqVals, ap.rangeLo, ap.rangeHi, ap.rangeLoInc, ap.rangeHiInc, fn)
	case ap.idx != nil && ap.eqVals != nil:
		ap.idx.scanEqual(ap.eqVals, fn)
	default:
		ap.tbl.rows.Ascend(fn)
	}
}

// accessSpec is the symbolic (value-free) form of an access path: the chosen
// index plus the expressions that will feed its probe slots at bind time.
type accessSpec struct {
	tbl *table
	idx *index

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
	switch {
	case sp.idx == nil:
		return fmt.Sprintf("full-scan(%s)", sp.tbl.name)
	case sp.inExprs != nil:
		return fmt.Sprintf("index-in(%s)", sp.idx.name)
	case sp.loExpr != nil || sp.hiExpr != nil:
		return fmt.Sprintf("index-range(%s)", sp.idx.name)
	default:
		return fmt.Sprintf("index-eq(%s)", sp.idx.name)
	}
}

// bind evaluates the spec's probe expressions against params and returns a
// concrete access path. Binding never fails: a probe value that is NULL (it
// can never equal a stored value) or unevaluable degrades the path to a
// wider probe — truncated equality prefix, dropped IN extension, dropped
// range bound, ultimately a full scan — and the stage filters, which always
// re-run on every candidate row, keep the result exact.
func (sp accessSpec) bind(params []Value) accessPath {
	if sp.idx == nil {
		return accessPath{tbl: sp.tbl}
	}
	ev := &env{params: params}
	vals := make([]Value, 0, len(sp.eqExprs))
	for _, ex := range sp.eqExprs {
		v, err := eval(ex, ev)
		if err != nil || v.IsNull() {
			if len(vals) == 0 {
				return accessPath{tbl: sp.tbl}
			}
			return accessPath{tbl: sp.tbl, idx: sp.idx, eqVals: vals}
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
				if len(vals) == 0 {
					return accessPath{tbl: sp.tbl}
				}
				return accessPath{tbl: sp.tbl, idx: sp.idx, eqVals: vals}
			}
			if v.IsNull() {
				continue // a NULL item matches nothing
			}
			dup := false
			for _, u := range list {
				if Compare(u, v) == 0 {
					dup = true
					break
				}
			}
			if !dup {
				list = append(list, v)
			}
		}
		return accessPath{tbl: sp.tbl, idx: sp.idx, eqVals: vals, inList: list}
	}
	if sp.loExpr != nil || sp.hiExpr != nil {
		ap := accessPath{tbl: sp.tbl, idx: sp.idx, eqVals: vals}
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
			if len(vals) == 0 {
				return accessPath{tbl: sp.tbl}
			}
			ap.eqVals = vals
		}
		return ap
	}
	return accessPath{tbl: sp.tbl, idx: sp.idx, eqVals: vals}
}

// refsOnly reports whether every column reference in ex resolves within the
// aliases set (alias -> table). Unqualified refs match any alias's columns.
func refsOnly(ex Expr, aliases map[string]*table) bool {
	switch x := ex.(type) {
	case *Literal, *Param, nil:
		return true
	case *ColumnRef:
		if x.Table != "" {
			_, ok := aliases[x.Table]
			return ok
		}
		for _, t := range aliases {
			if _, ok := t.colPos[x.Column]; ok {
				return true
			}
		}
		return false
	case *BinaryExpr:
		return refsOnly(x.L, aliases) && refsOnly(x.R, aliases)
	case *InExpr:
		if !refsOnly(x.E, aliases) {
			return false
		}
		for _, it := range x.List {
			if !refsOnly(it, aliases) {
				return false
			}
		}
		return true
	}
	return false
}

// constExpr reports whether ex can be evaluated without any row bound
// (literals and parameters only).
func constExpr(ex Expr) bool {
	return refsOnly(ex, map[string]*table{})
}

// colOf returns the column position if ex is a reference to a column of the
// table bound under alias.
func colOf(ex Expr, alias string, tbl *table) (int, bool) {
	ref, ok := ex.(*ColumnRef)
	if !ok {
		return 0, false
	}
	if ref.Table != "" && ref.Table != alias {
		return 0, false
	}
	p, ok := tbl.colPos[ref.Column]
	return p, ok
}

// rejectsNull reports whether a row of tbl (bound as alias) that is NULL in
// column c fails preds, the conjuncts of one stage: c is declared NOT NULL,
// or it is a direct operand of a comparison or the tested side of an IN
// among preds. eval makes every comparison with a NULL operand false and
// the dialect has no IS NULL or NOT to turn that around, so such a row can
// never pass.
func rejectsNull(tbl *table, alias string, preds []Expr, c int) bool {
	if tbl.cols[c].NotNull {
		return true
	}
	is := func(ex Expr) bool {
		p, ok := colOf(ex, alias, tbl)
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
// preds, the conjuncts of a stage binding ix's table as alias. The index
// has no entry for a row with a NULL key cell, so every key column from
// position lead on must be one where such a row fails preds (rejectsNull);
// the caller probes the first lead columns with non-NULL values.
func (ix *index) serves(alias string, preds []Expr, lead int) bool {
	for _, c := range ix.cols[lead:] {
		if !rejectsNull(ix.table, alias, preds, c) {
			return false
		}
	}
	return true
}

// rankUnique is the rank of a unique index whose whole key is bound by `=`:
// it yields at most one row, so it outranks any count of bound columns.
const rankUnique = math.MaxInt

// planSpec chooses the access spec for tbl (bound as alias) from preds and
// returns it with its rank. The choice is a function of the schema and the
// predicates alone — no row count or estimate enters it — so a plan never
// changes as the data grows. Only an index that serves preds is a candidate
// (see index.serves), and the rule is:
//
//  1. a unique index whose whole key is bound by `=` ranks rankUnique;
//  2. any other candidate ranks by the key columns it binds: each column of
//     its equality prefix, plus one for an IN list or a range on the column
//     after the prefix;
//  3. on a tie the first candidate enumerated wins: indexes in declaration
//     order, and within one index IN before range before plain equality.
//
// A full scan ranks 0, below every index candidate: a probe is far cheaper
// than a filtered scan row here, and the filters re-run regardless.
func planSpec(tbl *table, alias string, preds []Expr) (accessSpec, int) {
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
			c, ok := colOf(in.E, alias, tbl)
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
		colPos, ok := colOf(b.L, alias, tbl)
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
	for _, ix := range tbl.indexes {
		if !ix.serves(alias, preds, 0) {
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
		if n < len(ix.cols) {
			next := ix.cols[n]
			if items, ok := inLists[next]; ok {
				consider(accessSpec{tbl: tbl, idx: ix, eqExprs: eqExprs, eqCols: eqCols, inExprs: items}, n+1)
			}
			l, hasLo := lo[next]
			h, hasHi := hi[next]
			if hasLo || hasHi {
				sp := accessSpec{tbl: tbl, idx: ix, eqExprs: eqExprs, eqCols: eqCols}
				if hasLo {
					sp.loExpr, sp.loInc = l.ex, l.inc
				}
				if hasHi {
					sp.hiExpr, sp.hiInc = h.ex, h.inc
				}
				consider(sp, n+1)
			}
		}
		switch {
		case n == len(ix.cols) && ix.unique:
			consider(accessSpec{tbl: tbl, idx: ix, eqExprs: eqExprs, eqCols: eqCols}, rankUnique)
		case n > 0:
			consider(accessSpec{tbl: tbl, idx: ix, eqExprs: eqExprs, eqCols: eqCols}, n)
		}
	}
	return best, bestRank
}

// stagePlan is the per-stage execution info for a compiled SELECT pipeline.
type stagePlan struct {
	ref TableRef
	tbl *table

	// filters are the WHERE and ON conjuncts fully bound once this stage's
	// table is in scope; applied immediately to keep intermediate row
	// counts small.
	filters []Expr
}

// selectPlan is a compiled SELECT: shape-only, value-free, immutable after
// compilation and therefore safe to cache per epoch and execute from many
// goroutines at once.
type selectPlan struct {
	st     *SelectStmt
	stages []stagePlan
	// columns names the output columns, one per st.Items entry.
	columns []string
	// access drives the first stage's scan in nested execution (always a
	// full scan in naive plans); later stages scan their whole table.
	access accessSpec
	// inter, when non-nil, replaces nested execution with sorted rowid-set
	// intersection over the stages' join-key equivalence class.
	inter *intersectPlan
}

// compileSelect builds the execution plan for st against this root. Every
// join is an inner join, so its ON conjuncts are placed exactly like WHERE
// conjuncts: each at the first stage that binds every table it names. With
// naive set the first stage is a full scan and intersection is never
// considered — the same executor with every planner choice disabled,
// which is the reference evaluator the planner-parity harness diffs
// against.
func (r *dbRoot) compileSelect(st *SelectStmt, naive bool) (*selectPlan, error) {
	fromTbl, ok := r.tables[st.From.Table]
	if !ok {
		return nil, fmt.Errorf("sqldb: no such table %q", st.From.Table)
	}
	stages := []stagePlan{{ref: st.From, tbl: fromTbl}}
	aliasSet := map[string]*table{st.From.Alias: fromTbl}
	var conjs []Expr
	if st.Where != nil {
		conjs = conjuncts(st.Where)
	}
	for _, j := range st.Joins {
		jt, ok := r.tables[j.Table.Table]
		if !ok {
			return nil, fmt.Errorf("sqldb: no such table %q", j.Table.Table)
		}
		if _, dup := aliasSet[j.Table.Alias]; dup {
			return nil, fmt.Errorf("sqldb: duplicate table alias %q", j.Table.Alias)
		}
		aliasSet[j.Table.Alias] = jt
		stages = append(stages, stagePlan{ref: j.Table, tbl: jt})
		conjs = append(conjs, conjuncts(j.On)...)
	}

	for _, c := range conjs {
		placed := false
		scope := map[string]*table{}
		for si := range stages {
			scope[stages[si].ref.Alias] = stages[si].tbl
			if refsOnly(c, scope) {
				stages[si].filters = append(stages[si].filters, c)
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("sqldb: unresolvable predicate %s", exprString(c))
		}
	}

	p := &selectPlan{st: st, stages: stages, access: accessSpec{tbl: fromTbl}}
	if !naive {
		p.access, _ = planSpec(fromTbl, st.From.Alias, stages[0].filters)
	}

	// Build the output schema.
	for _, ex := range st.Items {
		name := exprString(ex)
		if ref, ok := ex.(*ColumnRef); ok {
			name = ref.Column
		}
		p.columns = append(p.columns, name)
	}

	if !naive {
		p.planIntersect(conjs)
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

// run executes the compiled plan with the given parameter values. The plan
// itself is read-only; all per-execution state lives here.
func (p *selectPlan) run(params []Value) (*Rows, error) {
	stages := p.stages
	ev := &env{params: params, bindings: make([]binding, len(stages))}
	for i := range stages {
		ev.bindings[i] = binding{alias: stages[i].ref.Alias, tbl: stages[i].tbl}
	}

	var resultEnvRows [][]Row // snapshot of binding rows per result tuple
	emit := func() bool {
		snap := make([]Row, len(stages))
		for i := range ev.bindings {
			snap[i] = ev.bindings[i].row
		}
		resultEnvRows = append(resultEnvRows, snap)
		return true
	}

	if p.inter != nil {
		if err := p.runIntersect(ev, emit); err != nil {
			return nil, err
		}
	} else if err := p.runNested(ev, emit); err != nil {
		return nil, err
	}

	// ORDER BY over the materialized env rows.
	if len(p.st.OrderBy) > 0 {
		keys := make([][]Value, len(resultEnvRows))
		for i, snap := range resultEnvRows {
			for bi := range ev.bindings {
				ev.bindings[bi].row = snap[bi]
			}
			ks := make([]Value, len(p.st.OrderBy))
			for ki, ob := range p.st.OrderBy {
				v, err := eval(ob.Expr, ev)
				if err != nil {
					return nil, err
				}
				ks[ki] = v
			}
			keys[i] = ks
		}
		order := make([]int, len(resultEnvRows))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ka, kb := keys[order[a]], keys[order[b]]
			for ki := range p.st.OrderBy {
				c := Compare(ka[ki], kb[ki])
				if c == 0 {
					continue
				}
				if p.st.OrderBy[ki].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([][]Row, len(resultEnvRows))
		for i, o := range order {
			sorted[i] = resultEnvRows[o]
		}
		resultEnvRows = sorted
	}

	// Projection.
	if p.st.Count {
		return &Rows{Columns: []string{"count"}, Data: [][]Value{{Int(int64(len(resultEnvRows)))}}}, nil
	}
	res := &Rows{Columns: slices.Clone(p.columns)} // the plan is shared; the result is the caller's
	for _, snap := range resultEnvRows {
		for bi := range ev.bindings {
			ev.bindings[bi].row = snap[bi]
		}
		out := make([]Value, len(p.st.Items))
		for i, ex := range p.st.Items {
			v, err := eval(ex, ev)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Data = append(res.Data, out)
	}

	if p.st.Distinct {
		seen := map[string]bool{}
		uniq := res.Data[:0]
		for _, row := range res.Data {
			key := rowKey(row)
			if !seen[key] {
				seen[key] = true
				uniq = append(uniq, row)
			}
		}
		res.Data = uniq
	}

	if p.st.Limit >= 0 && p.st.Limit < len(res.Data) {
		res.Data = res.Data[:p.st.Limit]
	}
	return res, nil
}

// runNested is the nested executor: the first stage's access path, then a
// full scan of each later stage's table, every stage's filters applied as
// soon as its row is bound.
func (p *selectPlan) runNested(ev *env, emit func() bool) error {
	stages := p.stages
	var execErr error
	var run func(si int, row Row) bool // returns false to stop (on error)
	run = func(si int, row Row) bool {
		ev.bindings[si].row = row
		ok, err := passesAll(stages[si].filters, ev)
		if err != nil {
			execErr = err
			return false
		}
		if !ok {
			return true
		}
		if si+1 == len(stages) {
			return emit()
		}
		cont := true
		stages[si+1].tbl.rows.Ascend(func(_ int64, next Row) bool {
			cont = run(si+1, next)
			return cont
		})
		return cont
	}
	p.access.bind(ev.params).scan(func(_ int64, row Row) bool { return run(0, row) })
	return execErr
}

// executeSelect compiles and runs a SELECT against one immutable root.
// Transactions use it directly (their shadow roots are private, so caching
// would be pointless); DB-level queries go through the epoch-keyed plan
// cache instead.
func (r *dbRoot) executeSelect(st *SelectStmt, params []Value) (*Rows, error) {
	plan, err := r.compileSelect(st, false)
	if err != nil {
		return nil, err
	}
	return plan.run(params)
}

// rowKey builds a collision-safe string key for DISTINCT.
func rowKey(row []Value) string {
	key := ""
	for _, v := range row {
		s := v.String()
		key += fmt.Sprintf("%d:%d:%s|", v.T, len(s), s)
	}
	return key
}

// String renders the plan as one stable line — the EXPLAIN format asserted
// by golden tests. Single-table plans render as the bare access path
// ("index-eq(name)"); nested joins render each stage in execution order
// ("nested[a index-eq(i) -> b scan(t) -> c scan(u)]"); intersection
// plans list the stages in execution order (see planIntersect) with the
// key-probe stages marked ("intersect[a0 index-eq(i) & t key-probe(j)]").
func (p *selectPlan) String() string {
	if p.inter != nil {
		var b strings.Builder
		b.WriteString("intersect[")
		for i := range p.inter.order {
			is := &p.inter.order[i]
			if i > 0 {
				b.WriteString(" & ")
			}
			b.WriteString(p.stages[is.si].ref.Alias)
			b.WriteByte(' ')
			if is.probe {
				b.WriteString("key-probe(" + is.probeIdx.name + ")")
			} else {
				b.WriteString(is.access.String())
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

// Explain returns the one-line plan rendering for a SELECT (see
// selectPlan.String). Planning is value-free, so no arguments are needed.
func (db *DB) Explain(sql string) (string, error) {
	st, err := Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return "", fmt.Errorf("sqldb: EXPLAIN supports only SELECT")
	}
	root := db.root.Load()
	plan, err := db.plannedSelect(sql, sel, root)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}
