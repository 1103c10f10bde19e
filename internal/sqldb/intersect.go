package sqldb

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"mcs/internal/btree"
)

// Leapfrog intersection: the execution strategy that replaces nested-loop
// self-joins for the EAV attribute queries behind Fig. 11 (Veldhuizen,
// "Leapfrog Triejoin", ICDT 2014).
//
// An N-attribute query is an N-way self-join over user_attribute in which
// every stage is tied to every other through one equality class of join
// keys ({a0.object_id, t.id, a1.object_id, ...}). Nested loops make the
// cost multiplicative: each stage re-probes its index once per surviving
// tuple of the outer stages. Here each stage instead becomes a cursor that
// yields its join keys in ascending order and can seek forward to the first
// key at or after a target. The cursors leapfrog: each in turn seeks to the
// largest key any of them holds, and a key all of them land on is a match.
// A cursor over a B-tree keeps its path (btree.Cursor), so a seek steps on
// from where it stands, and the whole intersection costs about the smallest
// stage's run times the number of stages, however long the other runs are.
//
// A stage is one of three kinds (stageKind), chosen from the schema and the
// statement alone:
//
//   - seekRun: a cursor over a run of index entries that ascend by key. The
//     catalog's ua_attr_* indexes end in object_id, so an equality stage on
//     their leading columns is such a run, and when those equalities are the
//     stage's only predicates the run is covered: its entries are the
//     stage's rows, with no filter to re-check. A stage with no usable
//     access of its own walks the index its key column leads instead.
//   - seekRows: a cursor over the row store of a table keyed by the join key
//     (the logical_file of every attribute search), for a stage whose own
//     access is a full scan or a range.
//   - sortKeys: any other stage (an IN list, a range, an equality whose run
//     is not ordered by the key) is scanned once, its predicates applied,
//     into a sorted (key, rowid) array that joins as an array cursor.
//
// Cursors other than covered runs yield a superset of the stage's keys; the
// stage's predicates are re-checked on each row of a key all cursors agree
// on (filter), and a key whose rows all fail is no match.
//
// An `ORDER BY col LIMIT n` page, col a column of a seekRows stage that
// leads an index serving the stage, is driven from that index instead: its
// entries arrive in ORDER BY order, from the stage's own bound on the column
// (the page's `after`), and each one's key is tested against the other
// stages' cursors, reset and sought. The result streams to LIMIT with no
// sort. When the walk tests many candidates for few matches, the page falls
// back to the leapfrog and a sort (see runDrive).
//
// The cross-stage equalities between chosen key columns are consumed by the
// key matching, which is exact: every key column is declared INTEGER, so SQL
// `=` between two keys is int64 equality with NULL never matching, and no
// index or sorted array holds a NULL key. (Mixed int/float comparison would
// not be transitive near 2^53; intersection refuses any other key type and
// leaves such a join to the nested executor.) Any other cross-stage conjunct
// is a residual, evaluated on every emitted tuple. Emission fetches rows only
// for the stages the projection, ORDER BY or a residual reads.

// stageKind is how a stage of an intersection yields its keys.
type stageKind uint8

const (
	seekRun stageKind = iota
	seekRows
	sortKeys
)

// istage is one stage of an intersection plan.
type istage struct {
	si     int // index into selectPlan.stages (statement order)
	keyCol int // column position of this stage's join-key column
	kind   stageKind
	// access is the stage's own access path, which sortKeys scans; locals
	// are the stage's predicates, which it applies while scanning.
	access accessSpec
	locals []Expr
	// run is the index, and the equality prefix, a seekRun cursor walks: the
	// stage's access, or the index led by its key column with no prefix.
	run accessSpec
	// filter is what each row of a matched key must still pass: the locals,
	// or nil when the cursor's run consumes them (a covered run) or the
	// stage is sortKeys, whose scan applied them.
	filter []Expr
}

// intersectPlan executes the stages as leapfrogging cursors and emits the
// cross products of each matched key in statement order.
type intersectPlan struct {
	stages []istage // statement order
	// residuals are cross-stage conjuncts other than the consumed key
	// equalities, re-evaluated on every emitted tuple.
	residuals []Expr
	// needed marks stages whose rows emission must bind for the projection,
	// ORDER BY or residuals.
	needed []bool
	// drive, when non-nil, drives an ORDER BY … LIMIT page from an index.
	drive *drivePlan
}

// drivePlan walks the index at slot of stage si, led by the ORDER BY
// column col, from the stage's own bounds on that column.
type drivePlan struct {
	si, slot, col  int
	idx            *indexDef
	loExpr, hiExpr Expr
	loInc, hiInc   bool
}

// keyEq returns the two columns an equality conjunct between columns of two
// different stages compares, as (stage, column) pairs.
func keyEq(c Expr) (l, r [2]int, ok bool) {
	b, isBin := c.(*BinaryExpr)
	if !isBin || b.Op != "=" {
		return l, r, false
	}
	lc, lok := b.L.(*boundCol)
	rc, rok := b.R.(*boundCol)
	if !lok || !rok || lc.bind == rc.bind {
		return l, r, false
	}
	return [2]int{lc.bind, lc.pos}, [2]int{rc.bind, rc.pos}, true
}

// specCovers reports whether the spec's equality slots consume every local
// predicate: each local must be a column-first equality whose (column,
// expression) pair is one of the spec's slots. Expression identity is
// pointer identity — planSpec stores the bound conjuncts' own nodes — so a
// second equality on the same column with a different expression correctly
// fails the check.
func specCovers(sp accessSpec, si int, locals []Expr) bool {
	if sp.idx == nil || sp.inExprs != nil || sp.loExpr != nil || sp.hiExpr != nil {
		return false
	}
	for _, c := range locals {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			return false
		}
		col, ok := colOf(b.L, si)
		if i := slices.Index(sp.eqExprs, b.R); !ok || i < 0 || sp.eqCols[i] != col {
			return false
		}
	}
	return true
}

// planIntersect decides whether the compiled plan qualifies for intersection
// and, if so, attaches the intersection plan. tabs holds the stages' table
// versions compiled against, conjs every WHERE and ON conjunct.
// Requirements: at least two stages and one equality class of join keys
// that covers every stage, with every key column declared INTEGER. Anything
// else keeps the nested executor. Like planSpec, the plan reads the schema
// and the statement, never the data.
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
		if l, r, ok := keyEq(c); ok {
			union(l, r)
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
		if slices.Contains(covered, false) {
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
	// key column must be INTEGER, so that matching the int64 payloads is
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

	// Classify every conjunct: local to the one stage it reads (a constant
	// one to the first), consumed (an equality between two chosen key
	// columns — enforced exactly by the key matching), or a cross-stage
	// residual re-checked at emit time.
	locals := make([][]Expr, len(stages))
	var residuals []Expr
	for _, c := range conjs {
		if first, last := stageSpan(c); first >= last {
			si := max(last, 0)
			locals[si] = append(locals[si], c)
			continue
		}
		if l, r, ok := keyEq(c); ok && l[1] == keyCol[l[0]] && r[1] == keyCol[r[0]] {
			continue // consumed by the key matching
		}
		residuals = append(residuals, c)
	}

	ip := &intersectPlan{stages: make([]istage, len(stages)), residuals: residuals, needed: make([]bool, len(stages))}
	for si := range stages {
		ip.stages[si] = classify(tabs[si], si, keyCol[si], locals[si])
	}
	for _, ex := range slices.Concat(p.items, p.order, residuals) {
		eachCol(ex, func(c *boundCol) { ip.needed[c.bind] = true })
	}
	ip.drive = p.planDrive(tabs, ip)
	p.inter = ip
}

// classify chooses how stage si, over t and keyed by keyCol, yields its
// keys (see stageKind).
func classify(t *table, si, keyCol int, locals []Expr) istage {
	access := planSpec(t, si, locals)
	is := istage{si: si, keyCol: keyCol, kind: sortKeys, access: access, locals: locals}
	eqOnly := access.inExprs == nil && access.loExpr == nil && access.hiExpr == nil
	switch {
	case access.idx != nil && eqOnly:
		// The run of the equality prefix ascends by key when the key column
		// comes right after the prefix, and holds one key when it is in it.
		if pos := slices.Index(access.idx.cols, keyCol); pos >= 0 && pos <= len(access.eqExprs) {
			is.kind, is.run = seekRun, access
			if !specCovers(access, si, locals) {
				is.filter = locals
			}
		}
	case access.inExprs != nil || access.rowid && eqOnly:
		// An IN list, or one row by its rowid: few rows, sorted once.
	case keyCol == t.pk:
		is.kind, is.filter = seekRows, locals
	case access.fullScan():
		if slot := t.findIndex(keyCol, si, locals); slot >= 0 {
			is.kind, is.filter = seekRun, locals
			is.run = accessSpec{tbl: t.tableDef, idx: t.indexes[slot].indexDef, slot: slot}
		}
	}
	return is
}

// planDrive returns the page drive of an `ORDER BY col LIMIT n` statement
// whose col, ascending, is a column of a seekRows stage and leads one of its
// table's indexes that serves the stage, or nil. The stage's own comparisons
// of col with constants bound the walk.
func (p *selectPlan) planDrive(tabs []*table, ip *intersectPlan) *drivePlan {
	if len(p.order) != 1 || p.st.OrderBy[0].Desc || p.st.Limit < 0 || p.st.Count {
		return nil
	}
	c, ok := p.order[0].(*boundCol)
	if !ok || ip.stages[c.bind].kind != seekRows {
		return nil
	}
	is := &ip.stages[c.bind]
	for slot, ix := range tabs[c.bind].indexes {
		if ix.cols[0] != c.pos || !ix.serves(c.bind, is.locals, 0) {
			continue
		}
		d := &drivePlan{si: c.bind, slot: slot, col: c.pos, idx: ix.indexDef}
		for _, l := range is.locals {
			b, ok := l.(*BinaryExpr)
			if !ok || !constExpr(b.R) {
				continue
			}
			if col, isCol := colOf(b.L, c.bind); !isCol || col != c.pos {
				continue
			}
			switch b.Op {
			case "=", ">", ">=":
				if d.loExpr == nil {
					d.loExpr, d.loInc = b.R, b.Op != ">"
				}
			}
			switch b.Op {
			case "=", "<", "<=":
				if d.hiExpr == nil {
					d.hiExpr, d.hiInc = b.R, b.Op != "<"
				}
			}
		}
		return d
	}
	return nil
}

// keyRowid is one row of a sortKeys stage: its join key and rowid.
type keyRowid struct {
	key, rowid int64
}

// member is one row of a stage at a matched key. row is nil for a sortKeys
// stage whose rows emission does not read.
type member struct {
	rowid int64
	row   Row
}

// cursor walks one stage's keys in ascending order for one execution.
type cursor struct {
	is   *istage
	kind stageKind // is.kind, or sortKeys when binding degraded the run
	// seekRun: the index, the bound prefix and the cursor over its entries.
	ix     *index
	prefix []Value
	ents   btree.Cursor[indexEntry, struct{}]
	// seekRows: the table and the cursor over its row store.
	tab  *table
	rows btree.Cursor[int64, Row]
	// sortKeys: the sorted pairs and the position in them.
	keys []keyRowid
	pos  int
	out  bool // past the stage's last key
}

// inRun reports whether the entry cursor stands on an entry of the run.
func (c *cursor) inRun() bool {
	return c.ix.comparePrefix(c.ents.Key(), c.prefix) == 0
}

// seek moves to the first key at or after k and reports whether there is
// one. A cursor already there stays.
func (c *cursor) seek(k int64) bool {
	if c.out {
		return false
	}
	var ok bool
	switch c.kind {
	case seekRun:
		col := c.is.keyCol
		ok = c.ents.Seek(func(e indexEntry) bool {
			if r := c.ix.comparePrefix(e, c.prefix); r != 0 {
				return r > 0
			}
			return e.col(col).N >= k
		}) && c.inRun()
	case seekRows:
		ok = c.rows.Seek(func(id int64) bool { return id >= k })
	default:
		rest := c.keys[c.pos:]
		c.pos += sort.Search(len(rest), func(i int) bool { return rest[i].key >= k })
		ok = c.pos < len(c.keys)
	}
	c.out = !ok
	return ok
}

// key is the key the cursor stands on.
func (c *cursor) key() int64 {
	switch c.kind {
	case seekRun:
		return c.ents.Key().col(c.is.keyCol).N
	case seekRows:
		return c.rows.Key()
	}
	return c.keys[c.pos].key
}

// next steps to the following row.
func (c *cursor) next() {
	switch c.kind {
	case seekRun:
		c.out = !c.ents.Next() || !c.inRun()
	case seekRows:
		c.out = !c.rows.Next()
	default:
		c.pos++
		c.out = c.pos == len(c.keys)
	}
}

// reset returns the cursor to the start of its stage, so the next seek may
// land behind where it stood.
func (c *cursor) reset() {
	c.ents.Reset()
	c.rows.Reset()
	c.pos, c.out = 0, false
}

// group appends to buf the stage's rows at key k, the key the cursor stands
// on, that pass its filter, and leaves the cursor past them.
func (c *cursor) group(k int64, ev *env, need bool, buf []member) ([]member, error) {
	for !c.out && c.key() == k {
		var m member
		switch c.kind {
		case seekRun:
			e := c.ents.Key()
			m = member{e.rowid, c.ix.rowOf(e)}
		case seekRows:
			m = member{k, c.rows.Value()}
		default:
			m.rowid = c.keys[c.pos].rowid
			if need {
				m.row, _ = c.tab.rows.Get(m.rowid)
			}
		}
		c.next()
		if f := c.is.filter; f != nil && c.kind != sortKeys {
			ev.rows[c.is.si] = m.row
			ok, err := passesAll(f, ev)
			if err != nil || !ok {
				if err != nil {
					return buf, err
				}
				continue
			}
		}
		buf = append(buf, m)
	}
	return buf, nil
}

// open binds every stage to its cursor for one execution and reports
// whether every stage may hold a key. sortKeys stages, and seekRun stages
// whose prefix binding degraded (a NULL or unevaluable probe value), scan
// their access path here into arrays carved from one buffer.
func (ip *intersectPlan) open(ev *env) ([]cursor, bool, error) {
	cs := make([]cursor, len(ip.stages))
	var buf []keyRowid
	for si := range ip.stages {
		is := &ip.stages[si]
		c := &cs[si]
		c.is, c.kind, c.tab = is, is.kind, ev.tabs[si]
		switch is.kind {
		case seekRun:
			ap := is.run.bind(c.tab, ev.params)
			if ap.idx != nil && len(ap.eqVals) == len(is.run.eqExprs) || len(is.run.eqExprs) == 0 {
				c.ix, c.prefix = c.tab.indexes[is.run.slot], ap.eqVals
				c.ix.mustBeFlushed()
				c.ents = c.ix.tree.Cursor()
				continue
			}
			c.kind = sortKeys
		case seekRows:
			c.rows = c.tab.rows.Cursor()
			continue
		}
		start := len(buf)
		var err error
		if buf, err = is.scan(ev, buf); err != nil {
			return nil, false, err
		}
		c.keys = buf[start:len(buf):len(buf)]
		if len(c.keys) == 0 {
			return nil, false, nil
		}
		slices.SortFunc(c.keys, func(a, b keyRowid) int {
			return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.rowid, b.rowid))
		})
	}
	return cs, true, nil
}

// scan appends to buf the (key, rowid) pair of every row of the stage's
// access path that passes its predicates. A NULL key never satisfies a join
// equality, so its row is skipped.
func (is *istage) scan(ev *env, buf []keyRowid) ([]keyRowid, error) {
	var serr error
	is.access.bind(ev.tabs[is.si], ev.params).scan(func(rowid int64, row Row) bool {
		ev.rows[is.si] = row
		ok, err := passesAll(is.locals, ev)
		if err != nil {
			serr = err
			return false
		}
		if key := &row[is.keyCol]; ok && key.T != TypeNull {
			buf = append(buf, keyRowid{key: key.N, rowid: rowid})
		}
		return true
	})
	ev.rows[is.si] = nil
	return buf, serr
}

// run executes the intersection plan: the cursors leapfrog to each key they
// all hold, and the key's rows are emitted as cross products, stages nested
// in statement order. Emission order is keys ascending, each stage's rows in
// its cursor's order.
func (ip *intersectPlan) run(ev *env, emit func() bool) error {
	cs, ok, err := ip.open(ev)
	if !ok {
		return err
	}
	defer clear(ev.rows)
	groups := make([][]member, len(cs))
	k, agree := int64(math.MinInt64), 0
	for i := 0; ; i = (i + 1) % len(cs) {
		c := &cs[i]
		if !c.seek(k) {
			return nil
		}
		if ck := c.key(); ck != k {
			k, agree = ck, 1
			continue
		}
		if agree++; agree < len(cs) {
			continue
		}
		cont, err := ip.emitKey(cs, -1, k, ev, groups, emit)
		if err != nil || !cont || k == math.MaxInt64 {
			return err
		}
		k, agree = k+1, 0
	}
}

// emitKey collects every stage's rows at key k, each cursor standing on it,
// except stage skip's, whose group the caller has put in groups, and emits
// their cross products. It reports false once emit wants no more.
func (ip *intersectPlan) emitKey(cs []cursor, skip int, k int64, ev *env, groups [][]member, emit func() bool) (bool, error) {
	for si := range cs {
		if si == skip {
			continue
		}
		g, err := cs[si].group(k, ev, ip.needed[si], groups[si][:0])
		if groups[si] = g; err != nil || len(g) == 0 {
			return true, err
		}
	}
	return ip.cross(groups, 0, ev, emit)
}

// cross emits the tuples of groups from stage si on, the residual conjuncts
// deciding each.
func (ip *intersectPlan) cross(groups [][]member, si int, ev *env, emit func() bool) (bool, error) {
	if si == len(groups) {
		ok, err := passesAll(ip.residuals, ev)
		if err != nil || !ok {
			return err == nil, err
		}
		return emit(), nil
	}
	for _, m := range groups[si] {
		ev.rows[si] = m.row
		if cont, err := ip.cross(groups, si+1, ev, emit); err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// driveSample is how many candidates a page drive tests before it judges
// from their share of matches whether the walk is the cheaper way to the
// page (see runDrive).
const driveSample = 16

// runDrive executes an ORDER BY … LIMIT page from its drive index (see
// drivePlan): each entry from the stage's bound on, in index order, is a
// candidate whose key is sought in every other stage's cursor. Candidates
// that tie on the ORDER BY column are taken by rowid, the order a stable
// sort of the leapfrog's matches gives them.
//
// The walk pays off when matches are dense: with m matches among c
// candidates, the rest of the page costs about (LIMIT-m)·c/m more
// candidates, while the leapfrog costs about the m/c share of the table's n
// rows, plus a sort. Once past driveSample candidates, the walk stops as
// soon as the first exceeds the second, and runDrive reports false, having
// emitted what it found; the caller starts the page over.
func (p *selectPlan) runDrive(ev *env, emit func() bool) (bool, error) {
	ip := p.inter
	d := ip.drive
	cs, ok, err := ip.open(ev)
	if !ok {
		return true, err
	}
	defer clear(ev.rows)
	groups := make([][]member, len(cs))
	bound := func(ex Expr) *Value {
		if ex == nil {
			return nil
		}
		if v, err := eval(ex, &env{params: ev.params}); err == nil && !v.IsNull() {
			return &v
		}
		return nil
	}
	n, limit := int64(ev.tabs[d.si].rows.Len()), int64(p.st.Limit)
	var walked, emitted int64
	count := func() bool { emitted++; return emit() }
	gaveUp := false
	var ties []member // candidates equal on the ORDER BY column, in index order
	done := false     // emit wants no more, or a predicate failed to evaluate
	test := func() {
		slices.SortFunc(ties, func(a, b member) int { return cmp.Compare(a.rowid, b.rowid) })
		for _, m := range ties {
			ev.rows[d.si] = m.row
			ok, terr := passesAll(ip.stages[d.si].locals, ev)
			if terr == nil && ok {
				for si := range cs {
					if c := &cs[si]; si != d.si {
						c.reset()
						c.seek(m.rowid)
					}
				}
				groups[d.si] = append(groups[d.si][:0], m)
				ok, terr = ip.emitKey(cs, d.si, m.rowid, ev, groups, count)
				done = !ok
			}
			if terr != nil {
				err, done = terr, true
			}
			if done {
				return
			}
		}
		ties = ties[:0]
	}
	lo, hi := bound(d.loExpr), bound(d.hiExpr)
	ev.tabs[d.si].indexes[d.slot].scanPrefixRange(nil, lo, hi, d.loInc, d.hiInc, func(rowid int64, row Row) bool {
		if len(ties) > 0 && compareCells(&row[d.col], &ties[0].row[d.col]) != 0 {
			if test(); done {
				return false
			}
		}
		c, m := walked, emitted
		if gaveUp = c >= driveSample && (limit-m)*(c+1)*(c+1) > (m+1)*(m+1)*n; gaveUp {
			return false
		}
		walked++
		ties = append(ties, member{rowid, row})
		return true
	})
	if !done && !gaveUp {
		test()
	}
	return !gaveUp || done, err
}
