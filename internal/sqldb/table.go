package sqldb

import (
	"fmt"
	"slices"
	"unsafe"

	"mcs/internal/btree"
)

// Row is one stored tuple, in table column order.
type Row []Value

func (r Row) clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// indexEntry is the key of one index-tree item: the stored row it indexes
// (a pointer to the row's first cell) and the row's rowid. Entries order by
// the index's key columns — read out of the row through index.cols — then by
// rowid, so duplicate values coexist and each row has exactly one entry.
//
// Pointing at the row instead of copying its key columns is what keeps an
// entry at 16 bytes whatever the index width (a four-column ua_attr_* key
// used to cost 88 bytes inline plus two spill allocations), and it is safe
// because a stored Row is immutable under MVCC: UPDATE installs a fresh
// slice and re-indexes it (table.update), so the cells an entry compares by
// never change while the entry is reachable. The converse obligation is
// that an entry must never outlive its row in any root: every re-index of a
// rowid replaces the entry itself, not just a payload beside it (btree.Set
// replaces the stored key; see TestUpdateDoesNotRetainSupersededRows).
type indexEntry struct {
	row   *Value
	rowid int64
}

func entryOf(rowid int64, row Row) indexEntry {
	return indexEntry{row: &row[0], rowid: rowid}
}

// col returns the cell at table column position c of the indexed row. The
// row is at least as wide as every position an index names: index columns
// are validated against the table definition when the index is created or
// loaded, and every stored row is full width.
func (e indexEntry) col(c int) *Value {
	return (*Value)(unsafe.Add(unsafe.Pointer(e.row), uintptr(c)*unsafe.Sizeof(Value{})))
}

// indexDegree is the btree fan-out for index trees. Indexes are the
// write-amplification hot spot — every row insert touches every index, and
// under MVCC each first touch of a node per transaction copies the whole
// node — so index trees trade depth for small nodes: at degree 8 a leaf
// holds ≤15 16-byte entries (240 B per leaf copy). Re-measured for the
// 16-byte entry with BenchmarkAddSingle/AddBatch100 and the restored
// heap (EXPERIMENTS.md, "Row-pointer index entries"): degree 16 shaves ~4 %
// off the heap and costs ~14 % more bytes per single add; degree 8 stays. The
// primary row store keeps the default fan-out: it is scanned far more than
// written.
const indexDegree = 8

// indexDelta is one deferred index mutation: an entry to set or delete.
type indexDelta struct {
	key indexEntry
	del bool
}

// index is one secondary (or primary) index over a table.
//
// An index holds one entry per row whose key cells are all non-NULL; a row
// with a NULL in any key column has no entry. eval makes every comparison
// with NULL false, so such a row fails any conjunct that compares the
// column, and the planner uses an index only for a stage where each key
// column is NOT NULL or so compared (index.serves): no probe misses a row
// the stage can return. The rule spares the heap, the restore sort and the
// per-write deltas of entries nothing could match, and UNIQUE's NULL
// exemption follows from it: a NULL key has no entry to collide with.
//
// Mutations are not applied to the tree eagerly: insert and remove append
// to pending, and flush applies the whole batch sorted by key — so a
// transaction inserting many rows walks each index path once per leaf
// neighborhood instead of re-descending per row, and insert/delete pairs
// within one transaction (the replay-cache prune pattern) cancel without
// ever touching the tree. Readers of committed roots never see pending
// deltas: the transaction layer flushes before every index-backed scan and
// before publishing a root.
type index struct {
	name    string
	table   *table
	cols    []int // positions in the table's column list
	unique  bool
	tree    *btree.Tree[indexEntry, struct{}]
	pending []indexDelta
}

func newIndex(name string, t *table, cols []int, unique bool) *index {
	return &index{
		name:   name,
		table:  t,
		cols:   cols,
		unique: unique,
		tree:   btree.NewDegree[indexEntry, struct{}](indexDegree, entryLess(cols)),
	}
}

// entryLess returns the tree ordering for an index over cols. It closes over
// the column list alone — never the index — because every clone of the tree
// carries the function along, and a captured *index would pin the version of
// the tree that index held for as long as any descendant lives.
func entryLess(cols []int) func(a, b indexEntry) bool {
	return func(a, b indexEntry) bool { return compareEntries(cols, a, b) < 0 }
}

// compareKeyCols orders two entries by the given key columns alone.
func compareKeyCols(cols []int, a, b indexEntry) int {
	for _, c := range cols {
		if r := compareCells(a.col(c), b.col(c)); r != 0 {
			return r
		}
	}
	return 0
}

// compareEntries orders two entries of an index over cols: key columns in
// order, then rowid.
func compareEntries(cols []int, a, b indexEntry) int {
	if a.row != b.row {
		if r := compareKeyCols(cols, a, b); r != 0 {
			return r
		}
	}
	switch {
	case a.rowid < b.rowid:
		return -1
	case a.rowid > b.rowid:
		return 1
	}
	return 0
}

func (ix *index) compare(a, b indexEntry) int { return compareEntries(ix.cols, a, b) }

// compareKey orders e's leading n key columns against key's.
func (ix *index) compareKey(e, key indexEntry, n int) int {
	return compareKeyCols(ix.cols[:n], e, key)
}

// comparePrefix orders e's leading key columns against the probe values.
func (ix *index) comparePrefix(e indexEntry, prefix []Value) int {
	for i := range prefix {
		if r := compareCells(e.col(ix.cols[i]), &prefix[i]); r != 0 {
			return r
		}
	}
	return 0
}

// nullKey reports whether any key column of e is NULL: the index holds no
// such entry.
func (ix *index) nullKey(e indexEntry) bool {
	for _, c := range ix.cols {
		if e.col(c).IsNull() {
			return true
		}
	}
	return false
}

// rowOf returns the stored row behind an entry of this index.
func (ix *index) rowOf(e indexEntry) Row {
	return unsafe.Slice(e.row, len(ix.table.cols))
}

func (ix *index) uniqueViolation() error {
	return fmt.Errorf("sqldb: UNIQUE constraint %q violated on table %q", ix.name, ix.table.name)
}

// checkUnique reports a constraint violation if another row already holds
// the same full key values. A key with a NULL matches no entry, so NULLs
// are exempt, as in SQL. It flushes the index first, so the tree alone is
// the transaction's net state and one descent answers.
func (ix *index) checkUnique(rowid int64, row Row) error {
	if !ix.unique {
		return nil
	}
	key := entryOf(rowid, row)
	ix.flush()
	nc := len(ix.cols)
	dup := false
	ix.scanWhile(func(e indexEntry) int { return ix.compareKey(e, key, nc) }, func(e indexEntry) bool {
		dup = e.rowid != rowid
		return !dup
	})
	if dup {
		return ix.uniqueViolation()
	}
	return nil
}

// insert and remove queue the entry of row for the next flush; a row with a
// NULL key cell has no entry, so they queue nothing for it.
func (ix *index) insert(rowid int64, row Row) {
	if e := entryOf(rowid, row); !ix.nullKey(e) {
		ix.push(indexDelta{key: e})
	}
}

func (ix *index) remove(rowid int64, row Row) {
	if e := entryOf(rowid, row); !ix.nullKey(e) {
		ix.push(indexDelta{key: e, del: true})
	}
}

func (ix *index) push(d indexDelta) {
	if ix.pending == nil {
		// Start with room for a typical transaction's worth of deltas; the
		// backing array is kept (zeroed) across flushes within a transaction.
		ix.pending = make([]indexDelta, 0, 16)
	}
	ix.pending = append(ix.pending, d)
}

// flush applies pending deltas to the tree: it sorts them by entry, so the
// tree is walked leaf by leaf in key order, coalesces the ops on one entry
// (same key columns and rowid) to the last, and applies what is left. An
// insert+delete pair in the same transaction never touches the tree, and an
// UPDATE that leaves the key columns alone (delete of the old row's entry,
// insert of the new row's, equal under the ordering) becomes one Set that
// swaps the entry's row pointer.
func (ix *index) flush() {
	p := ix.pending
	if len(p) == 0 {
		return
	}
	if len(p) > 1 {
		slices.SortStableFunc(p, func(a, b indexDelta) int { return ix.compare(a.key, b.key) })
	}
	for k := 0; k < len(p); {
		m := k + 1
		for m < len(p) && ix.compare(p[m].key, p[k].key) == 0 {
			m++
		}
		if last := p[m-1]; last.del {
			ix.tree.Delete(last.key)
		} else {
			ix.tree.Set(last.key, struct{}{})
		}
		k = m
	}
	// Keep the backing array for the next batch in this transaction, but
	// zero it so published roots don't pin dead rows.
	for i := range p {
		p[i] = indexDelta{}
	}
	ix.pending = p[:0]
}

// scanWhile visits, in index order, the run of entries for which cmp
// reports 0, until fn returns false. cmp orders an entry against the probe
// the caller has in mind (negative: the entry sorts before it) and must be
// monotone in index order; the probe may be bare values, which is why this
// is a comparator-driven seek and not a key-driven one. Nothing here
// allocates: both closures stay on the caller's stack.
func (ix *index) scanWhile(cmp func(e indexEntry) int, fn func(e indexEntry) bool) {
	ix.tree.AscendFrom(
		func(e indexEntry) bool { return cmp(e) >= 0 },
		func(e indexEntry, _ struct{}) bool { return cmp(e) == 0 && fn(e) })
}

// mustBeFlushed turns a missed flush point into a loud failure instead of
// silently missing rows: scans read the tree alone, and the planner entry
// points flush before they probe.
func (ix *index) mustBeFlushed() {
	if len(ix.pending) != 0 {
		panic("sqldb: index scan with unflushed deltas on " + ix.name)
	}
}

// scanEqual calls fn with the rowid and stored row of every entry whose
// leading columns equal prefix, in index order, until fn returns false. The
// row comes straight from the entry — no row-store lookup — which is also
// what makes covered plans (see intersect.go) free of row fetches.
func (ix *index) scanEqual(prefix []Value, fn func(rowid int64, row Row) bool) {
	ix.mustBeFlushed()
	ix.scanWhile(
		func(e indexEntry) int { return ix.comparePrefix(e, prefix) },
		func(e indexEntry) bool { return fn(e.rowid, ix.rowOf(e)) })
}

// scanPrefixRange calls fn for entries whose leading columns equal prefix
// and whose next column lies in the interval described by lo/hi (nil means
// unbounded) with the given inclusivity. An empty prefix is a plain range
// scan on the first column.
func (ix *index) scanPrefixRange(prefix []Value, lo, hi *Value, loInc, hiInc bool, fn func(rowid int64, row Row) bool) {
	ix.mustBeFlushed()
	rc := ix.cols[len(prefix)] // the ranged column
	ix.tree.AscendFrom(func(e indexEntry) bool {
		if c := ix.comparePrefix(e, prefix); c != 0 {
			return c > 0
		}
		return lo == nil || compareCells(e.col(rc), lo) >= 0
	}, func(e indexEntry, _ struct{}) bool {
		if ix.comparePrefix(e, prefix) != 0 {
			return false
		}
		v := e.col(rc)
		if lo != nil && !loInc && compareCells(v, lo) == 0 {
			return true // the excluded lower bound itself; the range starts after it
		}
		if hi != nil {
			c := compareCells(v, hi)
			if c > 0 || (c == 0 && !hiInc) {
				return false
			}
		}
		return fn(e.rowid, ix.rowOf(e))
	})
}

// rowidLess orders the primary row store by rowid.
func rowidLess(a, b int64) bool { return a < b }

// table is the storage for one table: rows keyed by rowid plus its indexes.
// Under MVCC a table version reachable from a committed root is immutable;
// writers work on clones (see clone).
type table struct {
	name    string
	cols    []ColumnDef
	colPos  map[string]int
	rows    *btree.Tree[int64, Row]
	indexes []*index
	nextRow int64
	autoInc int64
}

func newTable(st *CreateTableStmt) (*table, error) {
	t := &table{
		name:   st.Name,
		cols:   st.Columns,
		colPos: make(map[string]int, len(st.Columns)),
		rows:   btree.New[int64, Row](rowidLess),
	}
	for i, c := range st.Columns {
		if _, dup := t.colPos[c.Name]; dup {
			return nil, fmt.Errorf("sqldb: duplicate column %q in table %q", c.Name, st.Name)
		}
		t.colPos[c.Name] = i
	}
	for i, c := range st.Columns {
		if c.PrimaryKey || c.Unique {
			t.indexes = append(t.indexes,
				newIndex(fmt.Sprintf("%s_%s_key", st.Name, c.Name), t, []int{i}, true))
		}
	}
	return t, nil
}

// clone returns a shadow version of the table for a writer: row and index
// trees are O(1) copy-on-write clones sharing nodes with the original, and
// the index slice is copied so DDL on the clone leaves the original intact.
// Column metadata is shared — it is immutable after creation.
func (t *table) clone() *table {
	nt := &table{
		name:    t.name,
		cols:    t.cols,
		colPos:  t.colPos,
		rows:    t.rows.Clone(),
		nextRow: t.nextRow,
		autoInc: t.autoInc,
	}
	nt.indexes = make([]*index, len(t.indexes))
	for i, ix := range t.indexes {
		// Committed roots are always flushed (the transaction layer flushes
		// before publishing), so the clone starts with no pending deltas.
		nt.indexes[i] = &index{
			name:   ix.name,
			table:  nt,
			cols:   ix.cols,
			unique: ix.unique,
			tree:   ix.tree.Clone(),
		}
	}
	return nt
}

// flushIndexes applies every index's pending deltas. The transaction layer
// calls it before any index-backed scan and before a commit publishes the
// table.
func (t *table) flushIndexes() {
	for _, ix := range t.indexes {
		ix.flush()
	}
}

// columnPos resolves a column name to its position.
func (t *table) columnPos(name string) (int, error) {
	if p, ok := t.colPos[name]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("sqldb: no column %q in table %q", name, t.name)
}

// completeRow finalizes a full-width row in place, applying autoincrement,
// NOT NULL checks and type coercion. Callers fill the row's known columns
// and leave the rest NULL (the Value zero value).
func (t *table) completeRow(row Row) error {
	for i, c := range t.cols {
		if row[i].IsNull() && c.AutoIncrement {
			t.autoInc++
			row[i] = Int(t.autoInc)
			continue
		}
		if row[i].IsNull() {
			if c.NotNull {
				return fmt.Errorf("sqldb: NOT NULL constraint on %s.%s", t.name, c.Name)
			}
			continue
		}
		cv, err := coerce(row[i], c.Type)
		if err != nil {
			return fmt.Errorf("%w (column %s.%s)", err, t.name, c.Name)
		}
		if cv.T == TypeText {
			// Stored text skews to a small repeated vocabulary (attribute
			// names, type tags, DNs); share one copy per distinct value.
			cv.S = Intern(cv.S)
		}
		row[i] = cv
		if c.AutoIncrement && cv.Int() > t.autoInc {
			t.autoInc = cv.Int()
		}
	}
	return nil
}

// insert stores row and updates indexes, returning the new rowid.
func (t *table) insert(row Row) (int64, error) {
	t.nextRow++
	rowid := t.nextRow
	for _, ix := range t.indexes {
		if err := ix.checkUnique(rowid, row); err != nil {
			t.nextRow--
			return 0, err
		}
	}
	t.rows.Set(rowid, row)
	for _, ix := range t.indexes {
		ix.insert(rowid, row)
	}
	return rowid, nil
}

// delete removes rowid, returning the removed row.
func (t *table) delete(rowid int64) (Row, bool) {
	row, ok := t.rows.Get(rowid)
	if !ok {
		return nil, false
	}
	for _, ix := range t.indexes {
		ix.remove(rowid, row)
	}
	t.rows.Delete(rowid)
	return row, true
}

// update replaces the row at rowid, returning the previous row.
func (t *table) update(rowid int64, newRow Row) (Row, error) {
	old, ok := t.rows.Get(rowid)
	if !ok {
		return nil, fmt.Errorf("sqldb: update of missing rowid %d in %q", rowid, t.name)
	}
	for _, ix := range t.indexes {
		ix.remove(rowid, old)
	}
	for _, ix := range t.indexes {
		if err := ix.checkUnique(rowid, newRow); err != nil {
			for _, ix2 := range t.indexes {
				ix2.insert(rowid, old)
			}
			return nil, err
		}
	}
	t.rows.Set(rowid, newRow)
	for _, ix := range t.indexes {
		ix.insert(rowid, newRow)
	}
	return old, nil
}

// findIndex returns the shortest index led by column col that may serve a
// stage with conjuncts preds (table bound as alias) when probed with a
// non-NULL value of col alone, or nil.
func (t *table) findIndex(col int, alias string, preds []Expr) *index {
	var best *index
	for _, ix := range t.indexes {
		if ix.cols[0] == col && (best == nil || len(ix.cols) < len(best.cols)) && ix.serves(alias, preds, 1) {
			best = ix
		}
	}
	return best
}
