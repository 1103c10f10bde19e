package sqldb

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// DB is an in-memory relational database with a copy-on-write MVCC core.
//
// Committed state lives in an immutable dbRoot swapped atomically on commit:
// readers load the current root with one atomic pointer read and run against
// it wait-free — a Query never blocks behind an open transaction, a DDL
// statement or a snapshot dump. Writers are serialized by a single mutex;
// each builds shadow copies of the tables it touches (cheap O(1) btree
// clones that share nodes with the committed versions) and publishes them
// as the new root on commit. Rollback simply discards the shadow copies.
type DB struct {
	// root is the committed state. It is immutable once stored: no table,
	// index or row reachable from a published root is ever mutated again.
	root atomic.Pointer[dbRoot]

	// wmu serializes writers (transactions, standalone mutating statements,
	// DDL and snapshot loads). Readers never take it.
	wmu sync.Mutex

	// stmtCache holds the engine's prepared statements, the counterpart of
	// the JDBC prepared-statement cache in the original MCS server: by SQL
	// text, the parsed statement and, for a SELECT, its plan. A plan serves
	// every root of the schema generation it was compiled for (dbRoot.schema)
	// and every parameter binding; a schema change makes its next use
	// recompile it. DDL is never cached (it is rare and runs once).
	stmtMu    sync.RWMutex
	stmtCache map[string]cachedStmt

	// faultHook, when set, runs once per statement with the statement's
	// verb ("select", "insert", "update", "delete", "ddl") before any lock
	// is taken; a non-nil return aborts the statement with that error (and
	// rolls back an enclosing transaction). Installed only by the chaos
	// fault-injection harness.
	hookMu    sync.RWMutex
	faultHook func(verb string) error

	// wal, when attached, receives what every commit changed before
	// the root is published, and the commit blocks until a group-commit
	// fsync covers its LSN. Written once at boot under wmu (AttachWAL);
	// read only with wmu held (every writer path holds it).
	wal *WAL
}

// dbRoot is one immutable committed version of the whole database: the
// table set, the global index namespace, the epoch that names it, its schema
// generation, and the LSN of the last logged commit it contains.
//
// The schema generation is the epoch of the commit that last changed the
// schema (CREATE TABLE or INDEX, DropIndexesExcept, a snapshot load): roots
// of one generation share tables, columns and index slots, all a plan reads.
// Tx refuses DDL, so a shadow root a query runs on keeps its base's.
type dbRoot struct {
	epoch   uint64
	schema  uint64
	lsn     uint64
	tables  map[string]*table
	indexes map[string]*index
}

// SetFaultHook installs (or, with nil, removes) the per-statement fault
// hook. See the faultHook field for semantics.
func (db *DB) SetFaultHook(fn func(verb string) error) {
	db.hookMu.Lock()
	db.faultHook = fn
	db.hookMu.Unlock()
}

// checkFault consults the fault hook for a parsed statement.
func (db *DB) checkFault(st Statement) error {
	db.hookMu.RLock()
	fn := db.faultHook
	db.hookMu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn(stmtVerb(st))
}

// stmtVerb names a statement class for the fault hook.
func stmtVerb(st Statement) string {
	switch st.(type) {
	case *SelectStmt:
		return "select"
	case *InsertStmt:
		return "insert"
	case *UpdateStmt:
		return "update"
	case *DeleteStmt:
		return "delete"
	default:
		return "ddl"
	}
}

// maxCachedStatements bounds the statement cache; at the limit one
// arbitrary entry is evicted per insert (statement texts in MCS are a small
// fixed set, so eviction never triggers in practice).
const maxCachedStatements = 4096

// cachedStmt is one statement cache entry: the parsed statement and, once a
// SELECT has been planned, its plan.
type cachedStmt struct {
	st   Statement
	plan *selectPlan
}

// prepare returns the cache entry for sql, parsing it on a miss and caching
// it unless it is DDL.
func (db *DB) prepare(sql string) (cachedStmt, error) {
	db.stmtMu.RLock()
	e, ok := db.stmtCache[sql]
	db.stmtMu.RUnlock()
	if ok {
		return e, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return cachedStmt{}, err
	}
	e = cachedStmt{st: st}
	switch st.(type) {
	case *CreateTableStmt, *CreateIndexStmt:
		return e, nil
	}
	db.cache(sql, e)
	return e, nil
}

// cache stores e under sql, evicting one arbitrary entry when a new text
// would take the cache past its bound.
func (db *DB) cache(sql string, e cachedStmt) {
	db.stmtMu.Lock()
	if _, ok := db.stmtCache[sql]; !ok && len(db.stmtCache) >= maxCachedStatements {
		for k := range db.stmtCache {
			delete(db.stmtCache, k)
			break
		}
	}
	db.stmtCache[sql] = e
	db.stmtMu.Unlock()
}

// planFor returns the plan of e, the cache entry of the SELECT sql, for
// root's schema generation: the cached one, or one compiled against root
// and cached in its place.
func (db *DB) planFor(sql string, e cachedStmt, root *dbRoot) (*selectPlan, error) {
	if e.plan != nil && e.plan.schema == root.schema {
		return e.plan, nil
	}
	plan, err := root.compileSelect(e.st.(*SelectStmt), false)
	if err != nil {
		return nil, err
	}
	e.plan = plan
	db.cache(sql, e)
	return plan, nil
}

// prepareSelect returns the cache entry of the SELECT sql after consulting
// the fault hook.
func (db *DB) prepareSelect(sql string) (cachedStmt, error) {
	e, err := db.prepare(sql)
	if err != nil {
		return cachedStmt{}, err
	}
	if _, ok := e.st.(*SelectStmt); !ok {
		return cachedStmt{}, fmt.Errorf("sqldb: Query requires a SELECT statement")
	}
	return e, db.checkFault(e.st)
}

// Result reports the outcome of a mutating statement.
type Result struct {
	// LastInsertID is the autoincrement value assigned to the last row
	// inserted by an INSERT into a table with an AUTOINCREMENT column.
	LastInsertID int64
	// RowsAffected counts inserted, updated or deleted rows.
	RowsAffected int
}

// ErrTxDone is returned when using a transaction after Commit or Rollback.
var ErrTxDone = errors.New("sqldb: transaction has already been committed or rolled back")

// New returns an empty database.
func New() *DB {
	db := &DB{stmtCache: make(map[string]cachedStmt)}
	db.root.Store(&dbRoot{
		tables:  make(map[string]*table),
		indexes: make(map[string]*index),
	})
	return db
}

// Epoch returns the commit epoch of the current root. It increases by one
// for every committed transaction, standalone write, DDL statement and
// snapshot load, so derived data tagged with an epoch is valid exactly
// while Epoch() keeps returning the same value.
func (db *DB) Epoch() uint64 { return db.root.Load().epoch }

// TableEpoch returns the epoch of the commit that last changed the named
// table's rows or schema — a DML statement that changed a row, DDL, or a
// snapshot load; a statement that changes no row leaves it alone. Data
// derived from one table stays valid while its TableEpoch stands, whatever
// commits elsewhere. The second result is false for no such table.
func (db *DB) TableEpoch(name string) (uint64, bool) {
	t, ok := db.root.Load().tables[name]
	if !ok {
		return 0, false
	}
	return t.epoch, true
}

// LastLSN returns the log sequence number of the last logged commit in the
// current root: 0 until a WAL is attached (or on a root restored from a
// pre-WAL snapshot), then increasing by one per logged commit.
func (db *DB) LastLSN() uint64 { return db.root.Load().lsn }

// AttachWAL installs a write-ahead log opened (and replayed) by OpenWAL.
// Every subsequent commit that changes a row or the schema appends its
// record to w and blocks until a group-commit fsync covers it. Attach before
// accepting traffic; commits already in flight when the attach lands are not
// logged.
func (db *DB) AttachWAL(w *WAL) {
	db.wmu.Lock()
	db.wal = w
	db.wmu.Unlock()
}

// replayer applies recovered commits, every record of the log in one
// transaction, whose root is stamped with the last record's LSN and
// published without re-logging when the log ends. Replay bypasses the fault
// hook — recovery must not be failable by the chaos harness — and permits
// DDL, which the public Tx API forbids but single-statement commits may have
// logged.
//
// A row change goes straight to the row store, and its index deltas queue
// on the indexes as a write's do; nothing flushes them, because a row
// change evaluates no WHERE clause. Once a table's queued deltas cost more
// to flush than rebuilding its indexes would (table.rebuildCheaper), the
// table drops them and queues no more: its indexes will be rebuilt. A
// statement entry (DDL, or DML from a log an older build wrote) first
// brings every index up to date, then runs as a live statement does, and
// so does the end of the log (see catchUp).
type replayer struct {
	db      *DB
	tx      *Tx             // the replay transaction, nil until the first applied record
	stale   map[*table]bool // tables whose indexes are to be rebuilt
	rebuilt int             // tables rebuilt so far
}

// apply runs one record's entries in the replay transaction, starting it if
// needed. A failing entry rolls the whole replay back and names the
// record's LSN.
func (rp *replayer) apply(lsn uint64, rec walRecord) error {
	if rp.tx == nil {
		rp.tx, rp.stale = rp.db.Begin(), make(map[*table]bool)
	}
	var err error
	if len(rec.stmts) > 0 {
		err = rp.catchUp()
	}
	for _, st := range rec.stmts {
		if err != nil {
			break
		}
		var e cachedStmt
		if e, err = rp.db.prepare(st.sql); err == nil {
			_, err = rp.tx.execStmt(e.st, st.args)
		}
	}
	for i := 0; i < len(rec.rows) && err == nil; i++ {
		err = rp.applyRow(&rec.rows[i])
	}
	if err != nil {
		rp.abort()
		return fmt.Errorf("replay lsn %d: %w", lsn, err)
	}
	rp.tx.work.lsn = lsn
	return nil
}

// applyRow applies one logged row change to the transaction's copy of its
// table: the row store changes now, and the index deltas queue unless the
// table's indexes are to be rebuilt.
func (rp *replayer) applyRow(c *rowChange) error {
	t, err := rp.tx.writable(c.table)
	if err != nil {
		return err
	}
	rp.tx.changed(t)
	row := c.row
	if c.op != rowDelete {
		if t.pk >= 0 {
			if len(row) != len(t.cols)-1 || cap(row) < len(t.cols) {
				return fmt.Errorf("sqldb: a row of %d cells for table %q", len(row), t.name)
			}
			row = row[:len(t.cols)]
			copy(row[t.pk+1:], row[t.pk:])
			row[t.pk] = Int(c.rowid)
		} else if len(row) != len(t.cols) {
			return fmt.Errorf("sqldb: a row of %d cells for table %q", len(row), t.name)
		}
	}
	old, err := t.put(c.op, c.rowid, row)
	if err != nil || rp.stale[t] {
		return err
	}
	for _, ix := range t.indexes {
		if old != nil {
			ix.remove(c.rowid, old)
		}
		if row != nil {
			ix.insert(c.rowid, row)
		}
	}
	if t.rebuildCheaper() {
		t.dropPending()
		rp.stale[t] = true
	}
	return nil
}

// catchUp brings the indexes of every table replay changed up to date: a
// table whose queued deltas are few against what its indexes hold flushes
// them, sorted and coalesced; one with many, or marked stale, rebuilds its
// indexes from the row store.
func (rp *replayer) catchUp() error {
	for name := range rp.tx.owned {
		t := rp.tx.work.tables[name]
		if !rp.stale[t] && !t.rebuildCheaper() {
			t.flushIndexes()
			continue
		}
		t.dropPending()
		rowids, rows := t.allRows()
		if err := t.buildIndexes(rowids, rows, t.indexes); err != nil {
			return err
		}
		rp.rebuilt++
	}
	clear(rp.stale)
	return nil
}

// publish brings every index up to date and publishes the replay's root.
// It returns how many tables it rebuilt over the whole replay.
func (rp *replayer) publish() (int, error) {
	if rp.tx == nil {
		return 0, nil
	}
	if err := rp.catchUp(); err != nil {
		rp.abort()
		return 0, fmt.Errorf("sqldb: wal: replay: %w", err)
	}
	tx := rp.tx
	tx.done = true
	rp.db.root.Store(tx.work)
	rp.db.wmu.Unlock()
	rp.tx = nil
	return rp.rebuilt, nil
}

// abort discards the replay transaction, if any.
func (rp *replayer) abort() {
	if rp.tx != nil {
		rp.tx.Rollback() //nolint:errcheck // the transaction is open, so this cannot fail
		rp.tx = nil
	}
}

// Exec parses and runs a mutating or DDL statement; a SELECT is refused.
func (db *DB) Exec(sql string, args ...Value) (Result, error) {
	e, err := db.prepare(sql)
	if err != nil {
		return Result{}, err
	}
	if _, ok := e.st.(*SelectStmt); ok {
		return Result{}, errExecSelect
	}
	if err := db.checkFault(e.st); err != nil {
		return Result{}, err
	}
	return db.execOne(sql, e.st, args)
}

// errExecSelect refuses a SELECT passed to Exec, which would discard its rows.
var errExecSelect = errors.New("sqldb: Exec requires a mutating or DDL statement; run a SELECT through Query")

// execOne runs a single non-SELECT statement as its own transaction. DDL
// logs its statement; DML logs the rows it changed as it runs.
func (db *DB) execOne(sql string, st Statement, args []Value) (Result, error) {
	tx := db.Begin()
	res, err := tx.execStmt(st, args)
	if err != nil {
		tx.Rollback() //nolint:errcheck // the statement error takes precedence
		return Result{}, err
	}
	switch st.(type) {
	case *CreateTableStmt, *CreateIndexStmt:
		if db.wal != nil {
			tx.redo.stmts = append(tx.redo.stmts, redoStmt{sql: sql, args: slices.Clone(args)})
		}
	}
	return res, tx.Commit()
}

// Query parses and runs a SELECT, returning the materialized result.
// It is wait-free with respect to writers: the current committed root is
// read with a single atomic load and never changes under the query.
func (db *DB) Query(sql string, args ...Value) (*Rows, error) {
	e, err := db.prepareSelect(sql)
	if err != nil {
		return nil, err
	}
	root := db.root.Load()
	plan, err := db.planFor(sql, e, root)
	if err != nil {
		return nil, err
	}
	return plan.run(root, args)
}

// QueryNaive runs a SELECT with every planner decision disabled:
// the nested executor over full scans, compiled on every call and never
// cached. It exists as the reference evaluator for the differential
// planner-parity harness — any query must return the same multiset of rows
// through Query and QueryNaive — and is deliberately permanent API, not test
// scaffolding, so the oracle cannot silently rot.
func (db *DB) QueryNaive(sql string, args ...Value) (*Rows, error) {
	e, err := db.prepareSelect(sql)
	if err != nil {
		return nil, err
	}
	root := db.root.Load()
	plan, err := root.compileSelect(e.st.(*SelectStmt), true)
	if err != nil {
		return nil, err
	}
	return plan.run(root, args)
}

// Tx is a serializable read-write transaction. It holds the writer mutex
// from Begin until Commit or Rollback; its statements run against a private
// shadow root, so the transaction observes its own writes while concurrent
// readers keep seeing the last committed root untouched. Commit publishes
// the shadow root atomically; Rollback discards it. DDL is not allowed
// inside transactions.
type Tx struct {
	db *DB
	// work is the shadow root: table and index maps are copied at Begin,
	// table contents are cloned lazily the first time a table is written.
	work *dbRoot
	// owned marks tables already cloned into work (safe to mutate).
	owned map[string]bool
	done  bool
	// redo accumulates what the transaction changed for the WAL (only while
	// one is attached); lsn is assigned at Commit if the transaction was
	// logged.
	redo walRecord
	lsn  uint64
}

// Begin starts a transaction, blocking until the writer mutex is available.
func (db *DB) Begin() *Tx {
	db.wmu.Lock()
	base := db.root.Load()
	return &Tx{
		db: db,
		work: &dbRoot{
			epoch:   base.epoch + 1,
			schema:  base.schema,
			lsn:     base.lsn,
			tables:  maps.Clone(base.tables),
			indexes: maps.Clone(base.indexes),
		},
		owned: make(map[string]bool),
	}
}

// logRow records for the WAL, while one is attached, a row a statement of
// the transaction changed: row, now stored at rowid of t, or rowid's
// deletion (row nil). A stored row is immutable, so the record shares it.
func (tx *Tx) logRow(t *table, op byte, rowid int64, row Row) {
	if tx.db.wal != nil {
		tx.redo.rows = append(tx.redo.rows, rowChange{table: t.name, op: op, rowid: rowid, row: row, skip: t.pk})
	}
}

// changed stamps t, a table the transaction owns, as changed by it.
func (tx *Tx) changed(t *table) { t.epoch = tx.work.epoch }

// schemaChanged starts a new schema generation in the shadow root.
func (tx *Tx) schemaChanged() { tx.work.schema = tx.work.epoch }

// LSN returns the log sequence number Commit assigned to the transaction:
// 0 if it was not logged (no WAL attached, or nothing to log), valid only
// after Commit returns.
func (tx *Tx) LSN() uint64 { return tx.lsn }

// flushWork applies the pending index deltas of every table this
// transaction has cloned. Index maintenance is deferred per table (see
// index.flush); a statement that scans an index inside the transaction
// flushes the tables it reads first, and this runs before the shadow root
// is published, so no root ever becomes visible with unapplied deltas.
func (tx *Tx) flushWork() {
	for name := range tx.owned {
		if t, ok := tx.work.tables[name]; ok {
			t.flushIndexes()
		}
	}
}

// writable returns the transaction's private copy of a table, cloning the
// committed version on first touch and re-pointing its indexes in the
// shadow root's namespace.
func (tx *Tx) writable(name string) (*table, error) {
	t, ok := tx.work.tables[name]
	if !ok {
		return nil, fmt.Errorf("sqldb: no such table %q", name)
	}
	if tx.owned[name] {
		return t, nil
	}
	nt := t.clone()
	tx.work.tables[name] = nt
	for _, ix := range nt.indexes {
		tx.work.indexes[ix.name] = ix
	}
	tx.owned[name] = true
	return nt, nil
}

// Exec runs a mutating statement inside the transaction.
func (tx *Tx) Exec(sql string, args ...Value) (Result, error) {
	if tx.done {
		return Result{}, ErrTxDone
	}
	e, err := tx.db.prepare(sql)
	if err != nil {
		return Result{}, err
	}
	switch e.st.(type) {
	case *CreateTableStmt, *CreateIndexStmt:
		return Result{}, fmt.Errorf("sqldb: DDL is not allowed inside a transaction")
	}
	if err := tx.db.checkFault(e.st); err != nil {
		return Result{}, err
	}
	return tx.execStmt(e.st, args)
}

// Query runs a SELECT inside the transaction, seeing its uncommitted writes:
// the statement cache's plan, run against the shadow root once the tables
// the plan reads have flushed their pending index deltas. The deltas of
// every other table stay queued for a later flush.
func (tx *Tx) Query(sql string, args ...Value) (*Rows, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	e, err := tx.db.prepareSelect(sql)
	if err != nil {
		return nil, err
	}
	plan, err := tx.db.planFor(sql, e, tx.work)
	if err != nil {
		return nil, err
	}
	for _, st := range plan.stages {
		if tx.owned[st.ref.Table] {
			tx.work.tables[st.ref.Table].flushIndexes()
		}
	}
	return plan.run(tx.work, args)
}

// Commit atomically publishes the transaction's shadow root as the new
// committed state and releases the writer mutex. With a WAL attached, a
// mutating commit first appends its redo record (an append failure aborts
// the commit — nothing is published) and then, after publishing and
// releasing the writer mutex, blocks in group commit until an fsync covers
// its LSN. A returned fsync error means the commit is visible in memory but
// of uncertain durability: callers treat it as failed and retry, which the
// replay cache makes safe.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.flushWork()
	w := tx.db.wal
	if w != nil && (len(tx.redo.stmts) > 0 || len(tx.redo.rows) > 0) {
		lsn := tx.work.lsn + 1
		if err := w.append(lsn, tx.redo); err != nil {
			tx.work = nil
			tx.db.wmu.Unlock()
			return fmt.Errorf("sqldb: commit: %w", err)
		}
		tx.work.lsn = lsn
		tx.lsn = lsn
	}
	tx.db.root.Store(tx.work)
	tx.db.wmu.Unlock()
	if w != nil && tx.lsn > 0 {
		return w.waitDurable(tx.lsn)
	}
	return nil
}

// Rollback discards the transaction's shadow root — nothing was published,
// so there is nothing to undo — and releases the writer mutex.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.work = nil
	tx.db.wmu.Unlock()
	return nil
}

// Update runs fn inside a transaction, committing if it returns nil and
// rolling back otherwise (or on panic).
func (db *DB) Update(fn func(tx *Tx) error) error {
	tx := db.Begin()
	defer func() {
		if !tx.done {
			tx.Rollback() //nolint:errcheck // best-effort cleanup on panic
		}
	}()
	if err := fn(tx); err != nil {
		tx.Rollback() //nolint:errcheck // the fn error takes precedence
		return err
	}
	return tx.Commit()
}

// execStmt dispatches a non-SELECT statement against the shadow root.
func (tx *Tx) execStmt(st Statement, args []Value) (Result, error) {
	switch s := st.(type) {
	case *CreateTableStmt:
		return tx.createTable(s)
	case *CreateIndexStmt:
		return tx.createIndex(s)
	case *InsertStmt:
		return tx.execInsert(s, args)
	case *UpdateStmt:
		return tx.execUpdate(s, args)
	case *DeleteStmt:
		return tx.execDelete(s, args)
	}
	return Result{}, errExecSelect
}

func (tx *Tx) createTable(s *CreateTableStmt) (Result, error) {
	if _, exists := tx.work.tables[s.Name]; exists {
		return Result{}, fmt.Errorf("sqldb: table %q already exists", s.Name)
	}
	t, err := newTable(s)
	if err != nil {
		return Result{}, err
	}
	tx.changed(t)
	tx.schemaChanged()
	tx.work.tables[s.Name] = t
	for _, ix := range t.indexes {
		tx.work.indexes[ix.name] = ix
	}
	tx.owned[s.Name] = true
	return Result{}, nil
}

func (tx *Tx) createIndex(s *CreateIndexStmt) (Result, error) {
	if _, exists := tx.work.indexes[s.Name]; exists {
		return Result{}, fmt.Errorf("sqldb: index %q already exists", s.Name)
	}
	t, err := tx.writable(s.Table)
	if err != nil {
		return Result{}, err
	}
	cols := make([]int, len(s.Columns))
	for i, name := range s.Columns {
		p, err := t.columnPos(name)
		if err != nil {
			return Result{}, err
		}
		cols[i] = p
	}
	ix := newIndex(s.Name, t, cols, false)
	// Backfill existing rows through the bulk path.
	rowids, rows := t.allRows()
	if err := t.buildIndexes(rowids, rows, []*index{ix}); err != nil {
		return Result{}, err
	}
	t.indexes = append(t.indexes, ix)
	tx.work.indexes[s.Name] = ix
	tx.changed(t)
	tx.schemaChanged()
	return Result{}, nil
}

// DropIndexesExcept drops every index that CREATE INDEX made — every one
// that does not enforce a UNIQUE constraint — whose name keep does not list.
// The drops publish one new root and are not logged: a restored database
// sheds indexes its schema no longer declares before replaying its log, and
// again after every restart until a checkpoint writes the snapshot without
// them.
func (db *DB) DropIndexesExcept(keep []string) {
	tx := db.Begin()
	var drop []*index
	for name, ix := range tx.work.indexes {
		if !ix.unique && !slices.Contains(keep, name) {
			drop = append(drop, ix)
		}
	}
	if len(drop) == 0 {
		tx.Rollback() //nolint:errcheck // the transaction is open
		return
	}
	for _, ix := range drop {
		t, _ := tx.writable(ix.table.name)
		t.indexes = slices.DeleteFunc(t.indexes, func(x *index) bool { return x.name == ix.name })
		delete(tx.work.indexes, ix.name)
		tx.changed(t)
	}
	tx.schemaChanged()
	tx.Commit() //nolint:errcheck // nothing is logged, so nothing can fail
}

func (tx *Tx) execInsert(s *InsertStmt, args []Value) (Result, error) {
	t, err := tx.writable(s.Table)
	if err != nil {
		return Result{}, err
	}
	ev := &env{params: args}
	var res Result
	autoCol := -1
	for i, c := range t.cols {
		if c.AutoIncrement {
			autoCol = i
			break
		}
	}
	for _, exprRow := range s.Rows {
		// Evaluate directly into the full-width row: inserts are the hottest
		// write path, and a separate values slice per row doubled its
		// allocations.
		row := make(Row, len(t.cols))
		if len(s.Columns) != len(exprRow) {
			return res, fmt.Errorf("sqldb: INSERT into %q names %d columns but supplies %d values",
				t.name, len(s.Columns), len(exprRow))
		}
		for i, n := range s.Columns {
			p, err := t.columnPos(n)
			if err != nil {
				return res, err
			}
			v, err := eval(exprRow[i], ev)
			if err != nil {
				return res, err
			}
			row[p] = v
		}
		if err := t.completeRow(row); err != nil {
			return res, err
		}
		tx.changed(t)
		rowid, err := t.insert(row)
		if err != nil {
			return res, err
		}
		tx.logRow(t, rowInsert, rowid, row)
		res.RowsAffected++
		if autoCol >= 0 {
			res.LastInsertID = row[autoCol].Int()
		}
	}
	return res, nil
}

// matchingRowIDs evaluates where against each row of t (index-accelerated)
// and returns the matching rowids.
func matchingRowIDs(t *table, tableName string, where Expr, args []Value) ([]int64, error) {
	ev := &env{params: args, bindings: []binding{{alias: tableName, tbl: t}}}
	var preds []Expr
	if where != nil {
		scope := map[string]*tableDef{tableName: t.tableDef}
		for _, c := range conjuncts(where) {
			if !refsOnly(c, scope) {
				return nil, fmt.Errorf("sqldb: unresolvable predicate %s", exprString(c))
			}
			preds = append(preds, c)
		}
	}
	sp, _ := planSpec(t, tableName, preds)
	ap := sp.bind(t, args)
	var ids []int64
	var scanErr error
	ap.scan(func(rowid int64, row Row) bool {
		ev.bindings[0].row = row
		for _, p := range preds {
			v, err := eval(p, ev)
			if err != nil {
				scanErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		ids = append(ids, rowid)
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return ids, nil
}

func (tx *Tx) execUpdate(s *UpdateStmt, args []Value) (Result, error) {
	t, err := tx.writable(s.Table)
	if err != nil {
		return Result{}, err
	}
	t.flushIndexes() // matchingRowIDs may probe this table's indexes
	ids, err := matchingRowIDs(t, s.Table, s.Where, args)
	if err != nil {
		return Result{}, err
	}
	if len(ids) > 0 {
		tx.changed(t)
	}
	ev := &env{params: args, bindings: []binding{{alias: s.Table, tbl: t}}}
	var res Result
	for _, rowid := range ids {
		old, _ := t.rows.Get(rowid)
		ev.bindings[0].row = old
		newRow := old.clone()
		for _, as := range s.Set {
			p, err := t.columnPos(as.Column)
			if err != nil {
				return res, err
			}
			v, err := eval(as.Value, ev)
			if err != nil {
				return res, err
			}
			if v.IsNull() {
				if t.cols[p].NotNull {
					return res, fmt.Errorf("sqldb: NOT NULL constraint on %s.%s", t.name, as.Column)
				}
				newRow[p] = v
				continue
			}
			cv, err := coerce(v, t.cols[p].Type)
			if err != nil {
				return res, fmt.Errorf("%w (column %s.%s)", err, t.name, as.Column)
			}
			newRow[p] = cv
		}
		newID, err := t.update(rowid, newRow)
		if err != nil {
			return res, err
		}
		if newID != rowid {
			tx.logRow(t, rowDelete, rowid, nil)
		}
		tx.logRow(t, rowUpdate, newID, newRow)
		res.RowsAffected++
	}
	return res, nil
}

func (tx *Tx) execDelete(s *DeleteStmt, args []Value) (Result, error) {
	t, err := tx.writable(s.Table)
	if err != nil {
		return Result{}, err
	}
	t.flushIndexes() // matchingRowIDs may probe this table's indexes
	ids, err := matchingRowIDs(t, s.Table, s.Where, args)
	if err != nil {
		return Result{}, err
	}
	if len(ids) > 0 {
		tx.changed(t)
	}
	var res Result
	for _, rowid := range ids {
		if _, ok := t.delete(rowid); ok {
			tx.logRow(t, rowDelete, rowid, nil)
			res.RowsAffected++
		}
	}
	return res, nil
}

// RowCount returns the number of rows in a table.
func (db *DB) RowCount(table string) (int, error) {
	root := db.root.Load()
	t, ok := root.tables[table]
	if !ok {
		return 0, fmt.Errorf("sqldb: no such table %q", table)
	}
	return t.rows.Len(), nil
}
