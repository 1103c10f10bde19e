package sqldb

import (
	"errors"
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
	*indexDef
	tree    *btree.Tree[indexEntry, struct{}]
	pending []indexDelta
}

// indexDef is what an index is, as against what it holds: immutable, and
// shared by every version of the index, so a cached plan may keep it.
type indexDef struct {
	name   string
	table  *tableDef
	cols   []int // positions in the table's column list
	unique bool
}

func newIndex(name string, t *table, cols []int, unique bool) *index {
	return &index{
		indexDef: &indexDef{name: name, table: t.tableDef, cols: cols, unique: unique},
		tree:     btree.NewDegree[indexEntry, struct{}](indexDegree, entryLess(cols)),
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

func (ix *index) uniqueViolation() error { return uniqueViolation(ix.name, ix.table.name) }

// ErrUniqueViolation is wrapped by the error of a write refused because it
// would give two rows one key under a UNIQUE constraint or INTEGER PRIMARY
// KEY.
var ErrUniqueViolation = errors.New("sqldb: UNIQUE constraint")

func uniqueViolation(constraint, table string) error {
	return fmt.Errorf("%w %q violated on table %q", ErrUniqueViolation, constraint, table)
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
	*tableDef
	rows    *btree.Tree[int64, Row]
	indexes []*index
	// nextRow is the highest rowid inserted: the last one assigned when pk
	// is -1, the highest key inserted otherwise.
	nextRow int64
	autoInc int64
	// epoch is the root epoch that last changed the table's rows or schema
	// (see DB.TableEpoch); a clone keeps it until the clone is changed.
	epoch uint64
}

// tableDef is a table's name and columns: immutable after CREATE TABLE and
// shared by every version of the table, so a cached plan may keep it.
//
// A table with an INTEGER PRIMARY KEY column is clustered on it, as
// SQLite's rowid alias and InnoDB's primary key are: the column's value is
// the row's rowid, so the row store itself is the key's unique index and
// `id = ?`, `id IN (...)`, id ranges and key probes on the column are row
// store lookups (see table.scanRowids). pk is the column's position, or -1
// when the table has none and rowids count inserts instead.
type tableDef struct {
	name   string
	cols   []ColumnDef
	colPos map[string]int
	pk     int
}

// rowidColumn returns the position of the first INTEGER PRIMARY KEY column
// of cols, the one a table keys its rows by, or -1.
func rowidColumn(cols []ColumnDef) int {
	for i, c := range cols {
		if c.PrimaryKey && c.Type == TypeInt {
			return i
		}
	}
	return -1
}

func newTable(st *CreateTableStmt) (*table, error) {
	t := &table{
		tableDef: &tableDef{name: st.Name, cols: st.Columns, colPos: make(map[string]int, len(st.Columns)), pk: rowidColumn(st.Columns)},
		rows:     btree.New[int64, Row](rowidLess),
	}
	for i, c := range st.Columns {
		if _, dup := t.colPos[c.Name]; dup {
			return nil, fmt.Errorf("sqldb: duplicate column %q in table %q", c.Name, st.Name)
		}
		t.colPos[c.Name] = i
	}
	for i, c := range st.Columns {
		if (c.PrimaryKey || c.Unique) && i != t.pk {
			t.indexes = append(t.indexes,
				newIndex(keyConstraint(st.Name, c.Name), t, []int{i}, true))
		}
	}
	return t, nil
}

// keyConstraint names the UNIQUE constraint of a PRIMARY KEY or UNIQUE
// column: the name of its index, or of the row store's key for the rowid
// column.
func keyConstraint(table, col string) string { return table + "_" + col + "_key" }

// pkViolation reports a second row with the same INTEGER PRIMARY KEY.
func (t *table) pkViolation() error {
	return uniqueViolation(keyConstraint(t.name, t.cols[t.pk].Name), t.name)
}

// scanRowids calls fn, in key order, for the rows of a table with an
// INTEGER PRIMARY KEY whose key lies in the interval lo..hi (nil means
// unbounded) with the given inclusivity, until fn returns false. A bound
// compares against the key cell as the filters do (compareCells), so a
// FLOAT or non-numeric bound selects exactly the rows a filter passes; that
// order is monotone in the key, so the scan is one descent and a walk. An
// INTEGER equality bound is a single lookup.
func (t *table) scanRowids(lo, hi *Value, loInc, hiInc bool, fn func(rowid int64, row Row) bool) {
	if lo != nil && lo == hi && lo.T == TypeInt {
		if row, ok := t.rows.Get(lo.N); ok {
			fn(lo.N, row)
		}
		return
	}
	t.rows.AscendFrom(func(k int64) bool {
		if lo == nil {
			return true
		}
		key := Int(k)
		c := compareCells(&key, lo)
		return c > 0 || c == 0 && loInc
	}, func(k int64, row Row) bool {
		if hi != nil {
			c := compareCells(&row[t.pk], hi)
			if c > 0 || c == 0 && !hiInc {
				return false
			}
		}
		return fn(k, row)
	})
}

// clone returns a shadow version of the table for a writer: row and index
// trees are O(1) copy-on-write clones sharing nodes with the original, and
// the index slice is copied so DDL on the clone leaves the original intact.
// The table's and indexes' definitions are shared.
func (t *table) clone() *table {
	nt := &table{
		tableDef: t.tableDef,
		rows:     t.rows.Clone(),
		nextRow:  t.nextRow,
		autoInc:  t.autoInc,
		epoch:    t.epoch,
	}
	nt.indexes = make([]*index, len(t.indexes))
	for i, ix := range t.indexes {
		// Committed roots are always flushed (the transaction layer flushes
		// before publishing), so the clone starts with no pending deltas.
		nt.indexes[i] = &index{indexDef: ix.indexDef, tree: ix.tree.Clone()}
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
func (t *tableDef) columnPos(name string) (int, error) {
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

// insert stores row and updates indexes, returning the new rowid: the
// row's INTEGER PRIMARY KEY, or the next unused rowid.
func (t *table) insert(row Row) (int64, error) {
	rowid := t.nextRow + 1
	if t.pk >= 0 {
		rowid = row[t.pk].N
		if _, dup := t.rows.Get(rowid); dup {
			return 0, t.pkViolation()
		}
	}
	for _, ix := range t.indexes {
		if err := ix.checkUnique(rowid, row); err != nil {
			return 0, err
		}
	}
	t.nextRow = max(t.nextRow, rowid)
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

// update replaces the row at rowid, returning the rowid it is stored at
// now. A new INTEGER PRIMARY KEY value re-keys the row: it moves to the new
// rowid, unless another row holds it.
func (t *table) update(rowid int64, newRow Row) (int64, error) {
	old, ok := t.rows.Get(rowid)
	if !ok {
		return 0, fmt.Errorf("sqldb: update of missing rowid %d in %q", rowid, t.name)
	}
	newID := rowid
	if t.pk >= 0 {
		if newID = newRow[t.pk].N; newID != rowid {
			if _, dup := t.rows.Get(newID); dup {
				return 0, t.pkViolation()
			}
		}
	}
	for _, ix := range t.indexes {
		ix.remove(rowid, old)
	}
	for _, ix := range t.indexes {
		if err := ix.checkUnique(newID, newRow); err != nil {
			for _, ix2 := range t.indexes {
				ix2.insert(rowid, old)
			}
			return 0, err
		}
	}
	if newID != rowid {
		t.rows.Delete(rowid)
		t.nextRow = max(t.nextRow, newID)
	}
	t.rows.Set(newID, newRow)
	for _, ix := range t.indexes {
		ix.insert(newID, newRow)
	}
	return newID, nil
}

// put applies a replayed change to the row store alone: row, which a
// logged insert or update (op) stored at rowid, or rowid's deletion (row
// nil). It returns the row replaced or deleted, nil for none. The log was
// checked when it was written, so no constraint is. An insert raises the
// rowid and AUTOINCREMENT counters as the live insert did; an update raises
// the rowid counter only, as a live update that re-keys a row does.
func (t *table) put(op byte, rowid int64, row Row) (Row, error) {
	if op == rowInsert {
		for i, c := range t.cols {
			if c.AutoIncrement && row[i].T == TypeInt && row[i].N > t.autoInc {
				t.autoInc = row[i].N
			}
		}
		t.nextRow = max(t.nextRow, rowid)
		if t.rows.Set(rowid, row) {
			return nil, fmt.Errorf("sqldb: insert of existing rowid %d in %q", rowid, t.name)
		}
		return nil, nil
	}
	old, found := t.rows.Get(rowid)
	switch {
	case op == rowDelete && !found:
		return nil, fmt.Errorf("sqldb: delete of missing rowid %d in %q", rowid, t.name)
	case op == rowDelete:
		t.rows.Delete(rowid)
		return old, nil
	}
	t.nextRow = max(t.nextRow, rowid)
	t.rows.Set(rowid, row)
	return old, nil
}

// allRows returns the table's rows and their rowids in rowid order, the
// input of the bulk index build.
func (t *table) allRows() ([]int64, []Row) {
	rowids, rows := make([]int64, 0, t.rows.Len()), make([]Row, 0, t.rows.Len())
	t.rows.Ascend(func(rowid int64, row Row) bool {
		rowids, rows = append(rowids, rowid), append(rows, row)
		return true
	})
	return rowids, rows
}

// The replay rule. Replay queues the index deltas of a table's row changes
// and then either flushes them or drops them and rebuilds the table's
// indexes from its rows, whichever costs less at these per-entry costs:
//
//   - a flushed delta is a sort record and one B-tree Set or Delete into a
//     tree of the table's size, about flushNsPerDelta;
//   - a rebuilt entry is its share of the key words, a radix-sort record
//     and a slot in the bottom-up tree (build.go), about buildNsPerEntry,
//     and a rebuild pays for every entry the indexes will hold, not only
//     the changed ones.
//
// Measured on 2 vCPUs at the end of replaying BenchmarkReplay's logs over
// 10,000 files: user_attribute flushed 29k–264k deltas at 0.7–1.5 µs each
// and rebuilt 212k–460k entries at 0.14–0.32 µs each (EXPERIMENTS.md, "Log
// row changes, not statements"). So a table rebuilds once its deltas pass
// about a quarter of its entries.
const (
	flushNsPerDelta = 1000
	buildNsPerEntry = 200
)

// rebuildCheaper reports whether rebuilding t's indexes costs less than
// flushing their queued deltas.
func (t *table) rebuildCheaper() bool {
	pending, entries := 0, 0
	for _, ix := range t.indexes {
		pending += len(ix.pending)
		entries += ix.tree.Len()
	}
	return pending*flushNsPerDelta > (entries+pending)*buildNsPerEntry
}

// dropPending forgets every index's queued deltas: the indexes are to be
// rebuilt from the row store.
func (t *table) dropPending() {
	for _, ix := range t.indexes {
		clear(ix.pending)
		ix.pending = nil
	}
}

// findIndex returns the slot of the shortest index led by column col that
// may serve a stage with conjuncts preds (table bound as alias) when probed
// with a non-NULL value of col alone, or -1.
func (t *table) findIndex(col int, alias string, preds []Expr) int {
	best := -1
	for i, ix := range t.indexes {
		if ix.cols[0] == col && (best < 0 || len(ix.cols) < len(t.indexes[best].cols)) && ix.serves(alias, preds, 1) {
			best = i
		}
	}
	return best
}
