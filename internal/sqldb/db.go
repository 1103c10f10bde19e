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

	// stmtCache memoizes parsed statements by SQL text, the counterpart of
	// the JDBC prepared-statement cache in the original MCS server. DDL is
	// never cached (it is rare and self-invalidating).
	stmtMu    sync.RWMutex
	stmtCache map[string]Statement

	// planCache memoizes compiled SELECT plans by SQL text, each entry
	// stamped with the epoch of the root it was compiled against. Epochs are
	// unique per published root, so a stale plan can never be served: any
	// commit, DDL statement or snapshot load bumps the epoch and the next
	// lookup recompiles. Entries are value-free (see compileSelect), so one
	// cached plan serves every parameter binding and every goroutine.
	planMu    sync.RWMutex
	planCache map[string]planCacheEntry

	// faultHook, when set, runs once per statement with the statement's
	// verb ("select", "insert", "update", "delete", "ddl") before any lock
	// is taken; a non-nil return aborts the statement with that error (and
	// rolls back an enclosing transaction). Installed only by the chaos
	// fault-injection harness.
	hookMu    sync.RWMutex
	faultHook func(verb string) error

	// wal, when attached, receives every commit's redo statements before
	// the root is published, and the commit blocks until a group-commit
	// fsync covers its LSN. Written once at boot under wmu (AttachWAL);
	// read only with wmu held (every writer path holds it).
	wal *WAL
}

// dbRoot is one immutable committed version of the whole database: the
// table set, the global index namespace, the epoch that names it, and the
// LSN of the last logged commit it contains.
type dbRoot struct {
	epoch   uint64
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

// maxCachedStatements bounds the parse cache; at the limit one arbitrary
// entry is evicted per insert (statement texts in MCS are a small fixed
// set, so eviction never triggers in practice).
const maxCachedStatements = 4096

// parseCached returns the parsed form of sql, caching non-DDL statements.
func (db *DB) parseCached(sql string) (Statement, error) {
	db.stmtMu.RLock()
	st, ok := db.stmtCache[sql]
	db.stmtMu.RUnlock()
	if ok {
		return st, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	switch st.(type) {
	case *CreateTableStmt, *CreateIndexStmt:
		return st, nil
	}
	db.stmtMu.Lock()
	if len(db.stmtCache) >= maxCachedStatements {
		for k := range db.stmtCache {
			delete(db.stmtCache, k)
			break
		}
	}
	db.stmtCache[sql] = st
	db.stmtMu.Unlock()
	return st, nil
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

// planCacheEntry pairs a compiled plan with the epoch it is valid for.
type planCacheEntry struct {
	epoch uint64
	plan  *selectPlan
}

// maxCachedPlans bounds the plan cache the same way maxCachedStatements
// bounds the parse cache.
const maxCachedPlans = 4096

// plannedSelect returns the compiled plan for sel against root, consulting
// the epoch-keyed cache. Hits are two map reads under an RLock; misses
// compile once and publish for every later query on the same root.
func (db *DB) plannedSelect(sql string, sel *SelectStmt, root *dbRoot) (*selectPlan, error) {
	db.planMu.RLock()
	e, ok := db.planCache[sql]
	db.planMu.RUnlock()
	if ok && e.epoch == root.epoch {
		return e.plan, nil
	}
	plan, err := root.compileSelect(sel, false)
	if err != nil {
		return nil, err
	}
	db.planMu.Lock()
	if len(db.planCache) >= maxCachedPlans {
		for k := range db.planCache {
			delete(db.planCache, k)
			break
		}
	}
	db.planCache[sql] = planCacheEntry{epoch: root.epoch, plan: plan}
	db.planMu.Unlock()
	return plan, nil
}

// New returns an empty database.
func New() *DB {
	db := &DB{
		stmtCache: make(map[string]Statement),
		planCache: make(map[string]planCacheEntry),
	}
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

// LastLSN returns the log sequence number of the last logged commit in the
// current root: 0 until a WAL is attached (or on a root restored from a
// pre-WAL snapshot), then increasing by one per mutating commit.
func (db *DB) LastLSN() uint64 { return db.root.Load().lsn }

// AttachWAL installs a write-ahead log opened (and replayed) by OpenWAL.
// Every subsequent mutating commit appends its statements to w and blocks
// until a group-commit fsync covers it. Attach before accepting traffic;
// commits already in flight when the attach lands are not logged.
func (db *DB) AttachWAL(w *WAL) {
	db.wmu.Lock()
	db.wal = w
	db.wmu.Unlock()
}

// walReplayBatch is how many recovered records one replay transaction
// applies. A record replayed alone paid most of its time flushing its own
// transaction's index deltas; a batch pays that once.
const walReplayBatch = 256

// replayer applies recovered commits walReplayBatch records at a time: a
// batch's statements run in one transaction, whose root is stamped with the
// batch's last LSN and published without re-logging. Replay bypasses the
// fault hook — recovery must not be failable by the chaos harness — and
// permits DDL, which the public Tx API forbids but single-statement commits
// may have logged.
type replayer struct {
	db *DB
	tx *Tx // the open batch, nil between batches
	n  int // records in it
}

// apply runs one record's statements in the open batch, starting one if
// needed, and publishes the batch once it is full. A failing statement
// rolls the whole batch back and names the record's LSN.
func (rp *replayer) apply(lsn uint64, stmts []redoStmt) error {
	if rp.tx == nil {
		rp.tx = rp.db.Begin()
	}
	for _, s := range stmts {
		st, err := rp.db.parseCached(s.sql)
		if err == nil {
			_, err = rp.tx.execStmt(st, s.args)
		}
		if err != nil {
			rp.abort()
			return fmt.Errorf("replay lsn %d: %w", lsn, err)
		}
	}
	rp.tx.work.lsn = lsn
	if rp.n++; rp.n == walReplayBatch {
		rp.publish()
	}
	return nil
}

// publish flushes the open batch's index deltas and publishes its root.
func (rp *replayer) publish() {
	if tx := rp.tx; tx != nil {
		tx.done = true
		tx.flushWork() // replay bypasses Commit, which normally flushes
		rp.db.root.Store(tx.work)
		rp.db.wmu.Unlock()
		rp.tx, rp.n = nil, 0
	}
}

// abort discards the open batch, if any.
func (rp *replayer) abort() {
	if rp.tx != nil {
		rp.tx.Rollback() //nolint:errcheck // the batch is open, so this cannot fail
		rp.tx, rp.n = nil, 0
	}
}

// Exec parses and runs a mutating or DDL statement; a SELECT is refused.
func (db *DB) Exec(sql string, args ...Value) (Result, error) {
	st, err := db.parseCached(sql)
	if err != nil {
		return Result{}, err
	}
	if _, ok := st.(*SelectStmt); ok {
		return Result{}, errExecSelect
	}
	if err := db.checkFault(st); err != nil {
		return Result{}, err
	}
	return db.execOne(sql, st, args)
}

// errExecSelect refuses a SELECT passed to Exec, which would discard its rows.
var errExecSelect = errors.New("sqldb: Exec requires a mutating or DDL statement; run a SELECT through Query")

// querySelect runs a SELECT through the epoch-keyed plan cache against the
// current committed root.
func (db *DB) querySelect(sql string, sel *SelectStmt, args []Value) (*Rows, error) {
	root := db.root.Load()
	plan, err := db.plannedSelect(sql, sel, root)
	if err != nil {
		return nil, err
	}
	return plan.run(args)
}

// execOne runs a single non-SELECT statement as its own transaction.
func (db *DB) execOne(sql string, st Statement, args []Value) (Result, error) {
	tx := db.Begin()
	res, err := tx.execStmt(st, args)
	if err != nil {
		tx.Rollback() //nolint:errcheck // the statement error takes precedence
		return Result{}, err
	}
	tx.noteRedo(sql, args)
	return res, tx.Commit()
}

// Query parses and runs a SELECT, returning the materialized result.
// It is wait-free with respect to writers: the current committed root is
// read with a single atomic load and never changes under the query.
func (db *DB) Query(sql string, args ...Value) (*Rows, error) {
	st, err := db.parseCached(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query requires a SELECT statement")
	}
	if err := db.checkFault(st); err != nil {
		return nil, err
	}
	return db.querySelect(sql, sel, args)
}

// QueryNaive runs a SELECT with every planner decision disabled:
// the nested executor over full scans, never touching the plan cache. It exists
// as the reference evaluator for the differential planner-parity harness —
// any query must return the same multiset of rows through Query and
// QueryNaive — and is deliberately permanent API, not test scaffolding, so
// the oracle cannot silently rot.
func (db *DB) QueryNaive(sql string, args ...Value) (*Rows, error) {
	st, err := db.parseCached(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query requires a SELECT statement")
	}
	if err := db.checkFault(st); err != nil {
		return nil, err
	}
	plan, err := db.root.Load().compileSelect(sel, true)
	if err != nil {
		return nil, err
	}
	return plan.run(args)
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
	// redo accumulates the transaction's mutating statements for the WAL
	// (only while one is attached); lsn is assigned at Commit if the
	// transaction was logged.
	redo []redoStmt
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
			lsn:     base.lsn,
			tables:  maps.Clone(base.tables),
			indexes: maps.Clone(base.indexes),
		},
		owned: make(map[string]bool),
	}
}

// noteRedo records one successfully executed mutating statement for the
// WAL. Every one is logged — including statements that matched zero rows —
// keeping replay a pure re-execution of the committed statement stream (a
// SELECT never gets here: Exec refuses it). The args slice is cloned because
// callers may reuse theirs.
func (tx *Tx) noteRedo(sql string, args []Value) {
	if tx.db.wal == nil {
		return
	}
	tx.redo = append(tx.redo, redoStmt{sql: sql, args: slices.Clone(args)})
}

// LSN returns the log sequence number Commit assigned to the transaction:
// 0 if it was not logged (no WAL attached, or nothing to log), valid only
// after Commit returns.
func (tx *Tx) LSN() uint64 { return tx.lsn }

// flushWork applies the pending index deltas of every table this
// transaction has cloned. Index maintenance is deferred per table (see
// index.flush); this runs before any statement that scans an index inside
// the transaction and before the shadow root is published, so no root ever
// becomes visible with unapplied deltas.
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
	st, err := tx.db.parseCached(sql)
	if err != nil {
		return Result{}, err
	}
	switch st.(type) {
	case *CreateTableStmt, *CreateIndexStmt:
		return Result{}, fmt.Errorf("sqldb: DDL is not allowed inside a transaction")
	}
	if err := tx.db.checkFault(st); err != nil {
		return Result{}, err
	}
	res, err := tx.execStmt(st, args)
	if err == nil {
		tx.noteRedo(sql, args)
	}
	return res, err
}

// Query runs a SELECT inside the transaction, seeing its uncommitted writes.
func (tx *Tx) Query(sql string, args ...Value) (*Rows, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	st, err := tx.db.parseCached(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query requires a SELECT statement")
	}
	if err := tx.db.checkFault(st); err != nil {
		return nil, err
	}
	tx.flushWork()
	return tx.work.executeSelect(sel, args)
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
	if w != nil && len(tx.redo) > 0 {
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
	rowids, rows := make([]int64, 0, t.rows.Len()), make([]Row, 0, t.rows.Len())
	t.rows.Ascend(func(rowid int64, row Row) bool {
		rowids, rows = append(rowids, rowid), append(rows, row)
		return true
	})
	if err := t.buildIndexes(rowids, rows, []*index{ix}); err != nil {
		return Result{}, err
	}
	t.indexes = append(t.indexes, ix)
	tx.work.indexes[s.Name] = ix
	return Result{}, nil
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
		if _, err := t.insert(row); err != nil {
			return res, err
		}
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
		scope := map[string]*table{tableName: t}
		for _, c := range conjuncts(where) {
			if !refsOnly(c, scope) {
				return nil, fmt.Errorf("sqldb: unresolvable predicate %s", exprString(c))
			}
			preds = append(preds, c)
		}
	}
	sp, _ := planSpec(t, tableName, preds)
	ap := sp.bind(args)
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
		if _, err := t.update(rowid, newRow); err != nil {
			return res, err
		}
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
	var res Result
	for _, rowid := range ids {
		if _, ok := t.delete(rowid); ok {
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
