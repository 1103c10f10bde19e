package sqldb

import "sort"

// Sorted rowid-set intersection: the execution strategy that replaces
// nested-loop self-joins for the EAV attribute queries behind Fig. 11.
//
// An N-attribute query is an N-way self-join over user_attribute in which
// every stage is tied to every other through one equality class of join
// keys ({a0.object_id, t.id, a1.object_id, ...}). Nested loops make the
// cost multiplicative: each stage re-probes its index once per surviving
// tuple of the outer stages. Intersection makes it additive: each stage is
// evaluated once against its own local predicates, producing a sorted
// (key, rowids) list; the lists are merged key-wise, keys missing from any
// stage drop out, and the surviving per-key row groups are emitted as cross
// products. Total cost is the sum of the per-stage probes plus the output
// size — flat-ish in the number of attributes instead of multiplicative.
//
// Four further properties keep the constant factor flat:
//
//   - Covered stages. When a stage's local predicates are exactly the
//     equality prefix of its chosen index and the join-key column is the
//     index column right after it (the catalog's ua_attr_* indexes are
//     shaped for this), the stage is answered from index entries alone, in
//     key order — an entry points at its row, so the key is one load away,
//     with no row-store lookup, no filter evaluation per scanned entry and
//     no sort.
//   - Consumed key equalities. The cross-stage equalities between chosen
//     key columns are enforced by the key grouping itself, which is exact:
//     every key column is declared INTEGER, so SQL `=` between two keys is
//     int64 equality with NULL never matching, and the grouping compares
//     the int64 payloads and skips NULL keys. (Mixed int/float comparison
//     would not be transitive near 2^53; every join key the catalog issues
//     is INTEGER, so intersection refuses any other key type and leaves
//     such a join to the nested executor.) They are therefore not
//     re-evaluated per emitted tuple.
//   - Bare keys. The whole key pipeline — group folding, list
//     intersection, group alignment — runs on int64s instead of 32-byte
//     Values, which keeps the per-entry cost of wide covered scans at an
//     integer compare and a pointer-free append (no GC write barriers:
//     Value carries a string header, so []Value appends pay them).
//   - Lazy row binding. Emission fetches rows only for stages whose
//     columns the projection, ORDER BY or a residual conjunct actually
//     reads; the attribute stages of a DISTINCT-name query contribute only
//     multiplicity.
//
// Everything else stays re-verified: local predicates re-run on scanned
// rows whenever the stage is not covered (including when bind degrades a
// probe at execution time), and any cross-stage conjunct that is not an
// equality between two chosen key columns lands in residuals, evaluated on
// every emitted tuple.

// istage is one stage of an intersection plan.
type istage struct {
	si     int // index into selectPlan.stages (statement order)
	keyCol int // column position of this stage's join-key column
	// access/locals drive materialization: scan the access path, keep rows
	// passing the local predicates, group by key.
	access accessSpec
	locals []Expr
	// covered: access is a pure equality probe whose slots consume every
	// local predicate, and the key column is fixed by the probe or is the
	// index column right after it, so scanned entries arrive key-ascending
	// and need no row fetch, filter pass or sort. keyEntryPos is the key
	// column's position among the index's columns (-1 when the index does
	// not carry it).
	covered     bool
	keyEntryPos int
	// probe, when set, replaces materialization: the stage is reached by
	// probing probeIdx, the index at probeSlot, once per key surviving the
	// stages ordered before it, or, when the key column is the table's
	// INTEGER PRIMARY KEY (probeIdx nil), by looking each key up in the row
	// store.
	probe     bool
	probeIdx  *indexDef
	probeSlot int
}

// intersectPlan executes the stages in rank order (see planIntersect) and
// emits the surviving per-key cross products in statement order.
type intersectPlan struct {
	order []istage
	// residuals are cross-stage conjuncts other than the consumed key
	// equalities, re-evaluated on every emitted tuple.
	residuals []Expr
	// needed marks stages (statement order) whose rows emission must bind
	// for the projection, ORDER BY or residuals.
	needed []bool
}

// resolveCol maps a column reference to (stage, column); unqualified refs
// must be unambiguous across the stages' tables.
func resolveCol(ex Expr, stages []stagePlan) (int, int, bool) {
	ref, ok := ex.(*ColumnRef)
	if !ok {
		return 0, 0, false
	}
	if ref.Table != "" {
		for si := range stages {
			if stages[si].ref.Alias == ref.Table {
				if c, ok := stages[si].tbl.colPos[ref.Column]; ok {
					return si, c, true
				}
				return 0, 0, false
			}
		}
		return 0, 0, false
	}
	found, col := -1, 0
	for si := range stages {
		if c, ok := stages[si].tbl.colPos[ref.Column]; ok {
			if found >= 0 {
				return 0, 0, false // ambiguous
			}
			found, col = si, c
		}
	}
	return found, col, found >= 0
}

// markRefs sets needed[si] for every stage a column of ex may refer to.
// Unqualified names mark every stage carrying such a column (conservative).
func markRefs(ex Expr, stages []stagePlan, needed []bool) {
	switch x := ex.(type) {
	case *ColumnRef:
		for si := range stages {
			if x.Table != "" {
				if stages[si].ref.Alias == x.Table {
					needed[si] = true
				}
				continue
			}
			if _, ok := stages[si].tbl.colPos[x.Column]; ok {
				needed[si] = true
			}
		}
	case *BinaryExpr:
		markRefs(x.L, stages, needed)
		markRefs(x.R, stages, needed)
	case *InExpr:
		markRefs(x.E, stages, needed)
		for _, it := range x.List {
			markRefs(it, stages, needed)
		}
	}
}

// localEq decomposes a conjunct into (column, constant-expression) if it is
// a simple column-first equality between a column of the stage and a
// row-free expression, mirroring planSpec's slot collection.
func localEq(c Expr, alias string, tbl *tableDef) (int, Expr, bool) {
	b, ok := c.(*BinaryExpr)
	if !ok || b.Op != "=" {
		return 0, nil, false
	}
	if p, ok := colOf(b.L, alias, tbl); ok && constExpr(b.R) {
		return p, b.R, true
	}
	return 0, nil, false
}

// specCovers reports whether the spec's equality slots consume every local
// predicate: each local must be a simple equality whose (column, expression)
// pair is one of the spec's slots. Expression identity is pointer identity —
// planSpec stores the conjuncts' own AST nodes — so a second equality on the
// same column with a different expression correctly fails the check.
func specCovers(sp accessSpec, alias string, tbl *tableDef, locals []Expr) bool {
	if sp.idx == nil || sp.inExprs != nil || sp.loExpr != nil || sp.hiExpr != nil {
		return false
	}
	for _, c := range locals {
		col, val, ok := localEq(c, alias, tbl)
		if !ok {
			return false
		}
		found := false
		for i := range sp.eqCols {
			if sp.eqCols[i] == col && sp.eqExprs[i] == val {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// planIntersect decides whether the compiled plan qualifies for sorted-set
// intersection and, if so, attaches the intersection plan. tabs holds the
// stages' table versions compiled against, conjs every WHERE and ON
// conjunct. Requirements: at least two stages and one equality class of
// join keys that covers every stage, with every key column declared
// INTEGER. Anything else keeps the nested executor.
//
// Like planSpec, the plan reads the schema and the statement, never the
// data. Stages run in descending planSpec rank — a stage bound by a unique
// key first, full scans last — with ties in statement order. A stage after
// the first is reached by key probes instead of its own access when its key
// column is the table's INTEGER PRIMARY KEY or its key index
// (table.findIndex) is a one-column unique index, so each surviving key
// costs one descent and finds at most one row, or when its own access would
// be a full scan.
func (p *selectPlan) planIntersect(tabs []*table, conjs []Expr) {
	stages := p.stages
	if len(stages) < 2 {
		return
	}

	// Union-find over (stage, column) nodes linked by cross-stage equality
	// conjuncts.
	type node = [2]int
	parent := map[node]node{}
	var find func(n node) node
	find = func(n node) node {
		pn, ok := parent[n]
		if !ok || pn == n {
			return n
		}
		r := find(pn)
		parent[n] = r
		return r
	}
	union := func(a, b node) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, c := range conjs {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		ls, lc, lok := resolveCol(b.L, stages)
		rs, rc, rok := resolveCol(b.R, stages)
		if lok && rok && ls != rs {
			union(node{ls, lc}, node{rs, rc})
		}
	}
	if len(parent) == 0 {
		return
	}

	// Group class members per root (roots that were never union'd as
	// children are not map keys, so each class also gets its root appended;
	// a duplicate member is harmless below). Pick the class covering every
	// stage whose smallest member is least, keeping plans deterministic.
	members := map[node][]node{}
	for n := range parent {
		members[find(n)] = append(members[find(n)], n)
	}
	var classes [][]node
	for r, ms := range members {
		classes = append(classes, append(ms, r))
	}
	best := -1
	var bestMin node
	for ci, ms := range classes {
		covered := make([]bool, len(stages))
		minN := ms[0]
		for _, m := range ms {
			covered[m[0]] = true
			if m[0] < minN[0] || (m[0] == minN[0] && m[1] < minN[1]) {
				minN = m
			}
		}
		full := true
		for _, c := range covered {
			if !c {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		if best < 0 || minN[0] < bestMin[0] || (minN[0] == bestMin[0] && minN[1] < bestMin[1]) {
			best, bestMin = ci, minN
		}
	}
	if best < 0 {
		return
	}

	// Per-stage key column: the smallest class member for that stage. Every
	// key column must be INTEGER, so that grouping by the int64 payload is
	// exact equality (see the file comment).
	keyCol := make([]int, len(stages))
	for i := range keyCol {
		keyCol[i] = -1
	}
	for _, m := range classes[best] {
		if keyCol[m[0]] < 0 || m[1] < keyCol[m[0]] {
			keyCol[m[0]] = m[1]
		}
	}
	for si := range stages {
		if stages[si].tbl.cols[keyCol[si]].Type != TypeInt {
			return
		}
	}

	// Classify every conjunct: local to exactly one stage's scope, consumed
	// (an equality between two chosen key columns — enforced exactly by the
	// key grouping), or a cross-stage residual re-checked at emit time.
	locals := make([][]Expr, len(stages))
	var residuals []Expr
	for _, c := range conjs {
		placed := false
		for si := range stages {
			if refsOnly(c, map[string]*tableDef{stages[si].ref.Alias: stages[si].tbl}) {
				locals[si] = append(locals[si], c)
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		if b, ok := c.(*BinaryExpr); ok && b.Op == "=" {
			ls, lc, lok := resolveCol(b.L, stages)
			rs, rc, rok := resolveCol(b.R, stages)
			if lok && rok && ls != rs && lc == keyCol[ls] && rc == keyCol[rs] {
				continue // consumed by the key grouping
			}
		}
		residuals = append(residuals, c)
	}

	order := make([]istage, len(stages))
	rank := make([]int, len(stages))
	for si := range stages {
		var access accessSpec
		tbl := tabs[si]
		access, rank[si] = planSpec(tbl, stages[si].ref.Alias, locals[si])
		is := istage{
			si:          si,
			keyCol:      keyCol[si],
			access:      access,
			locals:      locals[si],
			keyEntryPos: -1,
		}
		if keyCol[si] != tbl.pk {
			if slot := tbl.findIndex(keyCol[si], stages[si].ref.Alias, locals[si]); slot >= 0 {
				is.probeIdx, is.probeSlot = tbl.indexes[slot].indexDef, slot
			}
		}
		if access.idx != nil {
			for pos, c := range access.idx.cols {
				if c == keyCol[si] {
					is.keyEntryPos = pos
					break
				}
			}
		}
		is.covered = is.keyEntryPos >= 0 && is.keyEntryPos <= len(access.eqExprs) &&
			specCovers(access, stages[si].ref.Alias, stages[si].tbl, locals[si])
		order[si] = is
	}
	sort.SliceStable(order, func(a, b int) bool { return rank[order[a].si] > rank[order[b].si] })
	for i := 1; i < len(order); i++ {
		is := &order[i]
		ix := is.probeIdx
		is.probe = is.keyCol == stages[is.si].tbl.pk ||
			ix != nil && (ix.unique && len(ix.cols) == 1 || is.access.fullScan())
	}

	// Stages whose rows emission must bind: anything the projection,
	// ORDER BY or residuals read.
	needed := make([]bool, len(stages))
	for _, ex := range p.st.Items {
		markRefs(ex, stages, needed)
	}
	for _, ob := range p.st.OrderBy {
		markRefs(ob.Expr, stages, needed)
	}
	for _, c := range residuals {
		markRefs(c, stages, needed)
	}

	p.inter = &intersectPlan{order: order, residuals: residuals, needed: needed}
}

// stageGroups is one stage's materialized key→rowids mapping in flat sorted
// form: keys ascend, and the i-th key's rowids live at
// rowids[offs[i]:offs[i+1]]. Three slices total, however many groups — the
// intersection of wide stages must not pay one allocation per key.
type stageGroups struct {
	keys   []int64 // the INTEGER keys' payloads, ascending
	offs   []int32 // group count + 1 once sealed
	rowids []int64
}

// add appends a rowid, opening a new group when key differs from the last.
// Callers must present keys in ascending order.
func (g *stageGroups) add(key, rowid int64) {
	if len(g.offs) == 0 || g.keys[len(g.keys)-1] != key {
		g.keys = append(g.keys, key)
		g.offs = append(g.offs, int32(len(g.rowids)))
	}
	g.rowids = append(g.rowids, rowid)
}

// seal closes the last group; call once after the final add.
func (g *stageGroups) seal() {
	g.offs = append(g.offs, int32(len(g.rowids)))
}

// makeGroups preallocates a stageGroups for n rowids, one per key.
func makeGroups(n int) stageGroups {
	return stageGroups{
		keys:   make([]int64, 0, n),
		offs:   make([]int32, 0, n+1),
		rowids: make([]int64, 0, n),
	}
}

// keyRowid pairs one candidate row's join key with its rowid during stage
// materialization.
type keyRowid struct {
	key, rowid int64
}

// groupPairs sorts (key, rowid) pairs and folds them into groups. Only the
// paths that cannot read keys in index order pay this sort.
func groupPairs(pairs []keyRowid) stageGroups {
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].key != pairs[b].key {
			return pairs[a].key < pairs[b].key
		}
		return pairs[a].rowid < pairs[b].rowid
	})
	var g stageGroups
	for _, pr := range pairs {
		g.add(pr.key, pr.rowid)
	}
	g.seal()
	return g
}

// intersectKeys returns the sorted intersection of two ascending key lists,
// reusing a's storage.
func intersectKeys(a, b []int64) []int64 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// materialize evaluates one stage on its own: scan the access path, keep
// rows passing the local predicates, group by key. Covered stages (the
// ua_attr_* shape) read keys straight out of index entries in ascending
// order, so the groups fold directly with no row fetch, filter pass or sort
// — unless bind degraded the probe (NULL or unevaluable slot), detected here
// by comparing the bound prefix against the spec's slots. A NULL key can
// never satisfy a join equality, so its row is skipped; a covered index
// carries the key column, so it holds no entry with a NULL key at all.
func (p *selectPlan) materialize(is *istage, ev *env) (stageGroups, error) {
	ap := is.access.bind(ev.bindings[is.si].tbl, ev.params)
	if is.covered && ap.idx != nil && ap.inList == nil &&
		ap.rangeLo == nil && ap.rangeHi == nil && len(ap.eqVals) == len(is.access.eqExprs) {
		var g stageGroups
		ap.idx.scanEqual(ap.eqVals, func(rowid int64, row Row) bool {
			g.add(row[is.keyCol].N, rowid)
			return true
		})
		g.seal()
		return g, nil
	}
	var pairs []keyRowid
	var serr error
	ap.scan(func(rowid int64, row Row) bool {
		ev.bindings[is.si].row = row
		ok, err := passesAll(is.locals, ev)
		if err != nil {
			serr = err
			return false
		}
		if key := &row[is.keyCol]; ok && key.T != TypeNull {
			pairs = append(pairs, keyRowid{key: key.N, rowid: rowid})
		}
		return true
	})
	ev.bindings[is.si].row = nil
	if serr != nil {
		return stageGroups{}, serr
	}
	return groupPairs(pairs), nil
}

// probeStage reaches a stage by probing its key index, or its row store,
// once per surviving key instead of scanning its own access path. keys
// ascend, so the groups are built in order.
func (p *selectPlan) probeStage(is *istage, ev *env, keys []int64) (stageGroups, error) {
	g := makeGroups(len(keys))
	t := ev.bindings[is.si].tbl
	var ix *index
	if is.probeIdx != nil {
		ix = t.indexes[is.probeSlot]
	}
	probe := make([]Value, 1)
	var perr error
	for _, key := range keys {
		visit := func(rowid int64, row Row) bool {
			ev.bindings[is.si].row = row
			ok, err := passesAll(is.locals, ev)
			if err != nil {
				perr = err
				return false
			}
			if ok {
				g.add(key, rowid)
			}
			return true
		}
		if ix == nil {
			if row, ok := t.rows.Get(key); ok {
				visit(key, row)
			}
		} else {
			probe[0] = Int(key)
			ix.scanEqual(probe, visit)
		}
		if perr != nil {
			ev.bindings[is.si].row = nil
			return stageGroups{}, perr
		}
	}
	g.seal()
	ev.bindings[is.si].row = nil
	return g, nil
}

// runIntersect executes the intersection plan: materialize or probe each
// stage in plan order, merge the sorted per-stage key lists, then
// emit the surviving cross products in statement order. Emission order is
// deterministic — keys ascending, each stage's rowids in materialization
// order — independent of the chosen stage order.
func (p *selectPlan) runIntersect(ev *env, emit func() bool) error {
	ip := p.inter
	ns := len(p.stages)
	groups := make([]stageGroups, ns) // indexed by statement-order stage
	var cur []int64                   // surviving keys

	for oi := range ip.order {
		is := &ip.order[oi]
		if oi > 0 && len(cur) == 0 {
			return nil // some stage already came up empty
		}
		var g stageGroups
		var err error
		if oi > 0 && is.probe {
			g, err = p.probeStage(is, ev, cur)
		} else {
			g, err = p.materialize(is, ev)
		}
		if err != nil {
			return err
		}
		groups[is.si] = g
		if oi == 0 {
			cur = append(cur[:0], g.keys...)
		} else {
			cur = intersectKeys(cur, g.keys)
		}
	}
	if len(cur) == 0 {
		return nil
	}

	// Align each stage's groups with the final key list: gidx[si][ki] is
	// the group of the ki-th surviving key in groups[si]. One merge walk per
	// stage — the surviving keys are a subset of every stage's keys, both
	// sorted.
	gidx := make([][]int32, ns)
	for si := 0; si < ns; si++ {
		idx := make([]int32, len(cur))
		keys := groups[si].keys
		j := 0
		for ki, k := range cur {
			for keys[j] != k {
				j++
			}
			idx[ki] = int32(j)
		}
		gidx[si] = idx
	}
	// Emit cross products per surviving key, stages nested in statement
	// order, with the residual conjuncts deciding each tuple. Rows are
	// fetched only for stages the emission actually reads; the rest loop
	// their rowids purely for multiplicity.
	var rec func(ki, si int) (bool, error)
	rec = func(ki, si int) (bool, error) {
		if si == ns {
			ok, err := passesAll(ip.residuals, ev)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil
			}
			return emit(), nil
		}
		g := &groups[si]
		gi := gidx[si][ki]
		for _, rowid := range g.rowids[g.offs[gi]:g.offs[gi+1]] {
			if ip.needed[si] {
				row, _ := ev.bindings[si].tbl.rows.Get(rowid)
				ev.bindings[si].row = row
			}
			cont, err := rec(ki, si+1)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	for ki := range cur {
		cont, err := rec(ki, 0)
		if err != nil {
			return err
		}
		if !cont {
			break
		}
	}
	for si := 0; si < ns; si++ {
		ev.bindings[si].row = nil
	}
	return nil
}
