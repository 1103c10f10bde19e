package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// Query planning is split compile/bind: compileSelect turns a parsed SELECT
// into a selectPlan — a value-free description of how to execute it (which
// index each stage probes, which expressions feed the probe, nested-loop
// versus sorted-set intersection) — and run binds parameter values and
// executes. Plans depend only on the statement shape and the root they were
// compiled against, so the DB layer caches them keyed on the MVCC epoch
// (see DB.plannedSelect): the PR 5 epoch machinery invalidates them for
// free on every commit.
//
// Access-path choices are safe to make symbolically because they are only
// ever optimizations: every stage re-applies its full filter list to each
// candidate row, so a probe merely has to return a superset of the matching
// rows. When a probe expression binds to NULL (or fails to evaluate) at
// execution time, bind degrades to a wider probe and the filters keep the
// result exact.

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

	fullScan bool
}

func (ap accessPath) String() string {
	switch {
	case ap.idx != nil && ap.inList != nil:
		return fmt.Sprintf("index-in(%s)", ap.idx.name)
	case ap.idx != nil && (ap.rangeLo != nil || ap.rangeHi != nil):
		return fmt.Sprintf("index-range(%s)", ap.idx.name)
	case ap.idx != nil && ap.eqVals != nil:
		return fmt.Sprintf("index-eq(%s)", ap.idx.name)
	case ap.idx != nil:
		return fmt.Sprintf("index-range(%s)", ap.idx.name)
	default:
		return fmt.Sprintf("full-scan(%s)", ap.tbl.name)
	}
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

	fullScan bool
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
		return accessPath{tbl: sp.tbl, fullScan: true}
	}
	ev := &env{params: params}
	vals := make([]Value, 0, len(sp.eqExprs))
	for _, ex := range sp.eqExprs {
		v, err := eval(ex, ev)
		if err != nil || v.IsNull() {
			if len(vals) == 0 {
				return accessPath{tbl: sp.tbl, fullScan: true}
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
					return accessPath{tbl: sp.tbl, fullScan: true}
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
				return accessPath{tbl: sp.tbl, fullScan: true}
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
	case *UnaryExpr:
		return refsOnly(x.E, aliases)
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
	case *IsNullExpr:
		return refsOnly(x.E, aliases)
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

// planSpec chooses the access spec for tbl (bound as alias) from preds,
// consulting st — never the table's trees — for cardinality. It returns the
// spec and the estimated number of rows it yields. Any usable index beats a
// full scan (a probe is far cheaper than a filtered scan row here, and the
// filters re-run regardless); among index candidates the smallest estimate
// wins, with ties going to the earliest candidate in a fixed enumeration
// order so plans are deterministic.
func planSpec(tbl *table, alias string, preds []Expr, st statsRegistry) (accessSpec, float64) {
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
		if in, ok := p.(*InExpr); ok && !in.Not {
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
		var colPos int
		var val Expr
		var op string
		if c, ok := colOf(b.L, alias, tbl); ok && constExpr(b.R) {
			colPos, val, op = c, b.R, b.Op
		} else if c, ok := colOf(b.R, alias, tbl); ok && constExpr(b.L) {
			colPos, val = c, b.L
			switch b.Op { // flip operator
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			default:
				op = b.Op
			}
		} else {
			continue
		}
		switch op {
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

	rows := st.tableRows(tbl)
	var best accessSpec
	bestEst := 0.0
	have := false
	consider := func(sp accessSpec, est float64) {
		if !have || est < bestEst {
			best, bestEst, have = sp, est, true
		}
	}
	for _, ix := range tbl.indexes {
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
				consider(accessSpec{tbl: tbl, idx: ix, eqExprs: eqExprs, eqCols: eqCols, inExprs: items},
					st.eqRows(ix, n+1)*float64(len(items)))
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
				base := rows
				if n > 0 {
					base = st.eqRows(ix, n)
				}
				// No histograms: assume a range keeps a third of its base.
				consider(sp, base/3)
			}
		}
		if n > 0 {
			consider(accessSpec{tbl: tbl, idx: ix, eqExprs: eqExprs, eqCols: eqCols}, st.eqRows(ix, n))
		}
	}
	if !have {
		return accessSpec{tbl: tbl, fullScan: true}, rows
	}
	return best, bestEst
}

// stagePlan is the per-stage execution info for a compiled SELECT pipeline.
type stagePlan struct {
	ref  TableRef
	tbl  *table
	join *JoinClause // nil for the FROM stage

	// filters are WHERE/ON conjuncts fully bound once this stage's table is
	// in scope; applied immediately to keep intermediate row counts small.
	filters []Expr

	// For join stages: equality join on an indexed column of this table,
	// probing with the value of probeExpr evaluated against outer bindings.
	joinIdx   *index
	probeExpr Expr

	// Residual ON conjuncts (non-indexable); for LEFT JOIN these decide
	// match/no-match, for INNER they are just filters.
	onResidual []Expr

	// access drives the FROM stage's scan (always a full scan in naive
	// plans). Join stages are reached via joinIdx or a nested full scan.
	access accessSpec
}

// outCol describes one projected output column.
type outCol struct {
	name string
	// star expansion: binding index + column position; otherwise expr
	bind, pos int
	expr      Expr
	count     bool
}

// selectPlan is a compiled SELECT: shape-only, value-free, immutable after
// compilation and therefore safe to cache per epoch and execute from many
// goroutines at once.
type selectPlan struct {
	st        *SelectStmt
	stages    []stagePlan
	outs      []outCol
	countOnly bool
	// inter, when non-nil, replaces nested-loop execution with sorted
	// rowid-set intersection over the stages' join-key equivalence class.
	inter *intersectPlan
}

// compileSelect builds the execution plan for st against this root. With
// naive set, every cost-based choice is disabled — full scans and pure
// nested loops — which is the reference evaluator the planner-parity
// harness diffs against.
func (r *dbRoot) compileSelect(st *SelectStmt, naive bool) (*selectPlan, error) {
	fromTbl, ok := r.tables[st.From.Table]
	if !ok {
		return nil, fmt.Errorf("sqldb: no such table %q", st.From.Table)
	}
	stages := []stagePlan{{ref: st.From, tbl: fromTbl}}
	aliasSet := map[string]*table{st.From.Alias: fromTbl}
	for i := range st.Joins {
		j := &st.Joins[i]
		jt, ok := r.tables[j.Table.Table]
		if !ok {
			return nil, fmt.Errorf("sqldb: no such table %q", j.Table.Table)
		}
		if _, dup := aliasSet[j.Table.Alias]; dup {
			return nil, fmt.Errorf("sqldb: duplicate table alias %q", j.Table.Alias)
		}
		aliasSet[j.Table.Alias] = jt
		stages = append(stages, stagePlan{ref: j.Table, tbl: jt, join: j})
	}

	// Classify WHERE conjuncts to the earliest stage where they are bound.
	whereStage := make([][]Expr, len(stages))
	var unbound []Expr
	if st.Where != nil {
		for _, c := range conjuncts(st.Where) {
			placed := false
			scope := map[string]*table{}
			for si := range stages {
				scope[stages[si].ref.Alias] = stages[si].tbl
				if refsOnly(c, scope) {
					whereStage[si] = append(whereStage[si], c)
					placed = true
					break
				}
			}
			if !placed {
				unbound = append(unbound, c)
			}
		}
	}
	if len(unbound) > 0 {
		return nil, fmt.Errorf("sqldb: unresolvable predicate %s", exprString(unbound[0]))
	}

	stats := statsRegistry{}

	// Stage 0: access planning from its own conjuncts.
	stages[0].filters = whereStage[0]
	if naive {
		stages[0].access = accessSpec{tbl: fromTbl, fullScan: true}
	} else {
		stages[0].access, _ = planSpec(fromTbl, st.From.Alias, whereStage[0], stats)
	}

	// Join stages: split ON conjuncts, look for an indexed equality probe.
	for si := 1; si < len(stages); si++ {
		sp := &stages[si]
		sp.filters = whereStage[si]
		outerScope := map[string]*table{}
		for k := 0; k < si; k++ {
			outerScope[stages[k].ref.Alias] = stages[k].tbl
		}
		for _, c := range conjuncts(sp.join.On) {
			if sp.joinIdx == nil && !naive {
				if b, ok := c.(*BinaryExpr); ok && b.Op == "=" {
					// new.col = outer-expr
					if p, ok := colOf(b.L, sp.ref.Alias, sp.tbl); ok && refsOnly(b.R, outerScope) {
						if ix := sp.tbl.findIndex([]int{p}); ix != nil {
							sp.joinIdx, sp.probeExpr = ix, b.R
							continue
						}
					}
					if p, ok := colOf(b.R, sp.ref.Alias, sp.tbl); ok && refsOnly(b.L, outerScope) {
						if ix := sp.tbl.findIndex([]int{p}); ix != nil {
							sp.joinIdx, sp.probeExpr = ix, b.L
							continue
						}
					}
				}
			}
			sp.onResidual = append(sp.onResidual, c)
		}
		// Equality predicates on this table alone can also help the probe
		// path; they are already in filters. For LEFT JOIN, WHERE filters on
		// the nullable side must run after the match decision; that ordering
		// is preserved by the executor (filters run after onResidual).
	}

	// Build the output schema.
	p := &selectPlan{st: st, stages: stages}
	for _, item := range st.Items {
		switch {
		case item.Star:
			for bi := range stages {
				for ci, cd := range stages[bi].tbl.cols {
					name := cd.Name
					if len(stages) > 1 {
						name = stages[bi].ref.Alias + "." + cd.Name
					}
					p.outs = append(p.outs, outCol{name: name, bind: bi, pos: ci, expr: nil})
				}
			}
		case item.Count:
			name := item.As
			if name == "" {
				name = "count"
			}
			p.outs = append(p.outs, outCol{name: name, count: true})
		default:
			name := item.As
			if name == "" {
				name = exprString(item.Expr)
				if ref, ok := item.Expr.(*ColumnRef); ok {
					name = ref.Column
				}
			}
			p.outs = append(p.outs, outCol{name: name, expr: item.Expr, bind: -1})
		}
	}
	p.countOnly = len(p.outs) == 1 && p.outs[0].count

	if !naive {
		p.planIntersect(stats)
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
	} else if err := p.runNested(ev, params, emit); err != nil {
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
	res := &Rows{Columns: make([]string, len(p.outs))}
	for i, oc := range p.outs {
		res.Columns[i] = oc.name
	}
	if p.countOnly {
		res.Data = [][]Value{{Int(int64(len(resultEnvRows)))}}
		return res, nil
	}
	for _, snap := range resultEnvRows {
		for bi := range ev.bindings {
			ev.bindings[bi].row = snap[bi]
		}
		out := make([]Value, len(p.outs))
		for i, oc := range p.outs {
			switch {
			case oc.count:
				out[i] = Int(int64(len(resultEnvRows)))
			case oc.expr != nil:
				v, err := eval(oc.expr, ev)
				if err != nil {
					return nil, err
				}
				out[i] = v
			default:
				if snap[oc.bind] == nil {
					out[i] = Null()
				} else {
					out[i] = snap[oc.bind][oc.pos]
				}
			}
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

	// LIMIT / OFFSET.
	if p.st.Offset > 0 {
		if p.st.Offset >= len(res.Data) {
			res.Data = nil
		} else {
			res.Data = res.Data[p.st.Offset:]
		}
	}
	if p.st.Limit >= 0 && p.st.Limit < len(res.Data) {
		res.Data = res.Data[:p.st.Limit]
	}
	return res, nil
}

// runNested is the nested-loop executor: recursive index-probe (or scan)
// joins in statement order, with LEFT JOIN null-row handling.
func (p *selectPlan) runNested(ev *env, params []Value, emit func() bool) error {
	stages := p.stages
	var execErr error
	var run func(si int) bool // returns false to abort (error)
	run = func(si int) bool {
		if si == len(stages) {
			return emit()
		}
		sp := &stages[si]
		tryRow := func(row Row) (matched bool, cont bool) {
			ev.bindings[si].row = row
			if len(sp.onResidual) > 0 {
				ok, err := passesAll(sp.onResidual, ev)
				if err != nil {
					execErr = err
					return false, false
				}
				if !ok {
					return false, true
				}
			}
			ok, err := passesAll(sp.filters, ev)
			if err != nil {
				execErr = err
				return false, false
			}
			if !ok {
				// ON matched but WHERE rejected: counts as a join match for
				// LEFT JOIN purposes, just not emitted.
				return true, true
			}
			return true, run(si + 1)
		}
		anyMatch := false
		if si == 0 {
			ap := sp.access.bind(params)
			aborted := false
			ap.scan(func(_ int64, row Row) bool {
				_, cont := tryRow(row)
				if !cont {
					aborted = true
				}
				return cont
			})
			return !aborted
		}
		if sp.joinIdx != nil {
			probe, err := eval(sp.probeExpr, ev)
			if err != nil {
				execErr = err
				return false
			}
			aborted := false
			if !probe.IsNull() {
				sp.joinIdx.scanEqual([]Value{probe}, func(_ int64, row Row) bool {
					m, cont := tryRow(row)
					anyMatch = anyMatch || m
					if !cont {
						aborted = true
					}
					return cont
				})
			}
			if aborted {
				return false
			}
		} else {
			aborted := false
			sp.tbl.rows.Ascend(func(_ int64, row Row) bool {
				m, cont := tryRow(row)
				anyMatch = anyMatch || m
				if !cont {
					aborted = true
				}
				return cont
			})
			if aborted {
				return false
			}
		}
		if !anyMatch && sp.join.Left {
			ev.bindings[si].row = nil
			ok, err := passesAll(sp.filters, ev)
			if err != nil {
				execErr = err
				return false
			}
			if ok {
				return run(si + 1)
			}
		}
		ev.bindings[si].row = nil
		return true
	}
	if !run(0) && execErr != nil {
		return execErr
	}
	return nil
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
// ("index-eq(name)"); nested-loop joins render each stage in execution
// order ("nested[a index-eq(i) -> b probe(j) -> c scan(t)]"); intersection
// plans list the stages most-selective-first with the key-probe stages
// marked ("intersect[a0 index-eq(i) & t key-probe(j)]").
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
		return p.stages[0].access.String()
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
		switch {
		case si == 0:
			b.WriteString(sp.access.String())
		case sp.joinIdx != nil:
			b.WriteString("probe(" + sp.joinIdx.name + ")")
		default:
			b.WriteString("scan(" + sp.tbl.name + ")")
		}
	}
	b.WriteString("]")
	return b.String()
}

// Explain returns the one-line plan rendering for a SELECT (see
// selectPlan.String). Planning is value-free, so trailing args are accepted
// for compatibility but do not influence the plan.
func (db *DB) Explain(sql string, args ...Value) (string, error) {
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
