package sqldb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Write-ahead log.
//
// Snapshots give the engine restart durability at snapshot granularity: a
// crash loses every commit since the last dump. The WAL closes that gap to
// per-commit durability. Each committed transaction serializes what it
// changed into one self-contained record, one frame (frame.go) appended to
// an append-only log file. A DML statement logs the rows it changed, not
// its text: an insert or update logs the row as stored, a delete only the
// rowid, and a statement that changed no row logs nothing. DDL logs its
// statement text.
//
//	payload:   lsn (8B big-endian)
//	           nstmts (uvarint), statements
//	           runs of row changes, to the end of the payload
//	statement: sql, nargs (uvarint), args
//	sql:       sqlLen (uvarint) > 0, sql bytes     a literal text
//	         | 0, ref (uvarint) < i                statement ref's text (read only)
//	         | 0, i + id (uvarint)                 the file's dictionary entry id
//	run:       table, kind (uvarint), n (uvarint) > 0, n changes
//	table:     0, len (uvarint) > 0, name bytes    a literal table name
//	         | id + 1 (uvarint)                    the file's dictionary entry id
//	kind:      cells << 2 | op                     op 0 insert, 1 update, 2 delete (cells 0)
//	change:    rowid delta (varint), cells values
//	arg, value: a tagged value (encodeWALValue), or
//	           tag 7, k (uvarint)                  the record's k-th literal text value
//
// where i is the statement's position in the record. A run is changes of
// one kind to one table. An insert or update writes every cell of the row
// but its INTEGER PRIMARY KEY, which is the rowid. A rowid is written as its
// difference from the last rowid of the same table earlier in the record
// (from 0 for the table's first). Each log file keeps a dictionary: the
// first literal occurrence of a statement text or table name in the file
// defines its next id, so a file spells each once. Repeated text values
// inside one record become tag-7 back-references. A log an older build
// wrote holds DML statements and no runs; replay still runs those. See
// DESIGN.md §6 "Log format" for why a torn tail cannot orphan a reference.
//
// The frame's CRC lets recovery detect a torn write — a record whose tail
// never reached disk — and truncate it instead of failing. Records carry
// strictly increasing log sequence numbers (LSNs)
// assigned at commit; snapshots embed the LSN of the root they pinned, so
// boot restores the snapshot and replays only the log suffix with larger
// LSNs, as one transaction (see replayer).
//
// Durability is amortized across concurrent committers by group commit: a
// committer appends its record under the writer lock, publishes its root,
// then either becomes the flush leader — flushing and fsyncing everything
// appended so far — or parks until a leader's fsync covers its LSN. One
// fsync thus acknowledges every commit that arrived while the previous
// fsync was in flight.
//
// A checkpoint (snapshot) rotates the log: the current file is sealed and
// renamed to <path>.1, a fresh file (with an empty dictionary) takes new
// appends, and once a snapshot covering the sealed file's last LSN has
// durably persisted the sealed file is deleted. A crash between those steps
// leaves both generations on disk; recovery replays <path>.1 then <path>.

// walRecord is one commit's log entries: its statements, then its row
// changes.
type walRecord struct {
	stmts []redoStmt
	rows  []rowChange
}

// redoStmt is one logged statement: the text and its bound parameters,
// exactly as the committer executed them.
type redoStmt struct {
	sql  string
	args []Value
}

// Row change ops, the low two bits of a run's kind.
const (
	rowInsert = 0
	rowUpdate = 1
	rowDelete = 2
)

// rowChange is one row a statement changed: row is now stored at rowid of
// table (rowInsert, rowUpdate), or rowid is gone (rowDelete, row nil). The
// log leaves out the row's cell at position skip, the INTEGER PRIMARY KEY
// that equals the rowid; a decoded change holds the cells the log carried,
// with skip -1.
type rowChange struct {
	table string
	op    byte
	rowid int64
	row   Row
	skip  int
}

// cells is how many cells of the change the log carries.
func (c *rowChange) cells() int {
	if c.skip >= 0 && c.row != nil {
		return len(c.row) - 1
	}
	return len(c.row)
}

// WALOptions configures a write-ahead log.
type WALOptions struct {
	// NoSync skips the fsync in group commit: records are flushed to the
	// OS on every commit but reach disk at the kernel's pace. A process
	// crash loses nothing; a power failure can lose the unsynced tail.
	NoSync bool
}

// WALFault describes an injected write-ahead-log failure, returned by the
// fault hook (see SetFaultHook). Ops: "append" (record write), "fsync"
// (group-commit flush).
type WALFault struct {
	// Err fails the operation with this error.
	Err error
	// ShortWrite, for op "append", writes only this many bytes of the
	// record before failing — a simulated torn write. The WAL rewinds the
	// file to the record's start so the live log stays consistent.
	ShortWrite int
	// Delay sleeps this long before the operation proceeds (or fails).
	Delay time.Duration
}

// WALStats reports write-ahead-log counters.
type WALStats struct {
	// Appends counts records appended since open.
	Appends uint64
	// Fsyncs counts group-commit fsync rounds since open. Under concurrent
	// committers this stays well below Appends — that gap is the group-
	// commit amortization.
	Fsyncs uint64
	// Replayed counts records applied during recovery at open.
	Replayed uint64
	// AppendLSN is the LSN of the last record appended (or recovered).
	AppendLSN uint64
	// DurableLSN is the highest LSN covered by a completed flush.
	DurableLSN uint64
}

// ReplayStats reports what recovery found in the log files.
type ReplayStats struct {
	// Records is how many whole records the log held (both generations).
	Records int
	// Applied is how many of them were replayed into the database (LSN
	// above the snapshot's).
	Applied int
	// LastLSN is the highest LSN seen.
	LastLSN uint64
	// TornBytes is how many trailing bytes were truncated as torn or
	// corrupt (never fatal; the log is cut back to the last whole record).
	TornBytes int64
	// Rebuilt is how many of the tables replay changed had their indexes
	// rebuilt from the row store at the end of the log instead of brought up
	// to date by their queued changes (see replayer.publish).
	Rebuilt int
}

// WAL is an append-only redo log with group commit. Open one with OpenWAL
// and install it on a database with DB.AttachWAL; every subsequent commit
// appends what it changed and blocks until an fsync covers it.
type WAL struct {
	path string
	opts WALOptions

	// mu guards the file, the buffered tail, sizes and append bookkeeping.
	// Appends run under it (they already hold the database writer lock, so
	// contention is with the flush leader's buffer drain only).
	mu        sync.Mutex
	f         *os.File
	buf       []byte // appended but not yet written to the OS
	size      int64  // bytes written to the OS (file offset of buf)
	appendLSN uint64
	curRecs   uint64     // records in the current generation file
	prevMax   uint64     // last LSN in the sealed previous generation, if any
	prevSeal  bool       // <path>.1 exists
	broken    error      // sticky: the log could not be rewound after a failed append
	enc       walEncoder // the current file's dictionary

	// gc guards group-commit state; cond signals leader handoff and
	// durable-LSN advances.
	gc         sync.Mutex
	cond       *sync.Cond
	durable    uint64
	leaderBusy bool
	flushErr   error  // last failed flush round's error...
	errUpto    uint64 // ...and the highest LSN that round tried to cover

	appends  atomic.Uint64
	fsyncs   atomic.Uint64
	replayed atomic.Uint64

	hookMu sync.RWMutex
	hook   func(op string) *WALFault
}

// prevPath is the sealed previous-generation file left by a checkpoint
// rotation that has not yet been released.
func (w *WAL) prevPath() string { return w.path + ".1" }

// SetFaultHook installs (or, with nil, removes) the per-operation fault
// hook — the chaos harness's injection point for append failures, torn
// writes and fsync errors.
func (w *WAL) SetFaultHook(fn func(op string) *WALFault) {
	w.hookMu.Lock()
	w.hook = fn
	w.hookMu.Unlock()
}

// evalHook consults the fault hook, applying any injected delay.
func (w *WAL) evalHook(op string) *WALFault {
	w.hookMu.RLock()
	fn := w.hook
	w.hookMu.RUnlock()
	if fn == nil {
		return nil
	}
	f := fn(op)
	if f != nil && f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	return f
}

// Stats returns the log's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	lsn := w.appendLSN
	w.mu.Unlock()
	return WALStats{
		Appends:    w.appends.Load(),
		Fsyncs:     w.fsyncs.Load(),
		Replayed:   w.replayed.Load(),
		AppendLSN:  lsn,
		DurableLSN: w.DurableLSN(),
	}
}

// DurableLSN returns the highest LSN covered by a completed flush. A commit
// whose LSN is at or below it has been acknowledged durably.
func (w *WAL) DurableLSN() uint64 {
	w.gc.Lock()
	defer w.gc.Unlock()
	return w.durable
}

// OpenWAL opens (creating if absent) the log at path and replays into db
// every record with an LSN above afterLSN — the caller passes the LSN
// embedded in the snapshot the database was restored from, or 0 for a fresh
// database. A torn or CRC-corrupt tail is truncated, never fatal: the log
// is cut back to its last whole record and recovery proceeds. Both
// generations are replayed when a checkpoint was interrupted mid-rotation,
// into one transaction that publishes one root at the end (see replayer).
//
// The returned WAL is positioned for appends; install it with DB.AttachWAL
// before accepting writes. Replay bypasses the database fault hook.
func OpenWAL(path string, db *DB, afterLSN uint64, opts WALOptions) (*WAL, ReplayStats, error) {
	w := &WAL{path: path, opts: opts}
	w.cond = sync.NewCond(&w.gc)
	var stats ReplayStats
	last := afterLSN
	rp := replayer{db: db}
	defer rp.abort()

	if _, err := os.Stat(w.prevPath()); err == nil {
		w.prevSeal = true
		if err := replayFile(w.prevPath(), &rp, afterLSN, &stats, &last); err != nil {
			return nil, stats, err
		}
		w.prevMax = last
	} else if !os.IsNotExist(err) {
		return nil, stats, fmt.Errorf("sqldb: wal: %w", err)
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, stats, fmt.Errorf("sqldb: wal: %w", err)
	}
	// Replaying the current file also seeds the dictionary its next
	// records extend, covered records included.
	recs, err := replayInto(f, &rp, afterLSN, &stats, &last, &w.enc.dict)
	if err == nil {
		stats.Rebuilt, err = rp.publish()
	}
	if err != nil {
		f.Close()
		return nil, stats, err
	}
	w.f = f
	if fi, err := f.Stat(); err == nil {
		w.size = fi.Size() // after any truncation
	}
	w.curRecs = recs
	w.appendLSN = last
	w.durable = last
	w.replayed.Store(uint64(stats.Applied))
	stats.LastLSN = last
	return w, stats, nil
}

// replayFile opens one log generation read-write, replays it and closes it.
func replayFile(path string, rp *replayer, afterLSN uint64, stats *ReplayStats, last *uint64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("sqldb: wal: %w", err)
	}
	defer f.Close()
	_, err = replayInto(f, rp, afterLSN, stats, last, &walDict{})
	return err
}

// replayInto scans one log file, applies every whole record with LSN above
// afterLSN through rp, and truncates the file at the first torn, corrupt or
// non-monotonic record. last carries the running LSN high-water mark across
// generations; a record's LSN must exceed it. dict starts empty and ends as
// the file's dictionary after its last whole record. It returns how many
// whole records the file kept. The file is read and decoded on a goroutine
// of its own while the records apply (replayAhead).
func replayInto(f *os.File, rp *replayer, afterLSN uint64, stats *ReplayStats, last *uint64, dict *walDict) (uint64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("sqldb: wal: %w", err)
	}
	fr := frameReader{r: bufio.NewReader(io.NewSectionReader(f, 0, fi.Size()))}
	valid, recs := int64(0), uint64(0)
	// scan reads and decodes the file's records in order and hands each one
	// to replay to emit, which returns the row changes' buffer for the next.
	scan := func(emit func(lsn uint64, rec walRecord) ([]rowChange, error)) error {
		var rows []rowChange
		for {
			payload, err := fr.next()
			if err == io.EOF || errors.Is(err, errFrameDamaged) {
				return nil // clean end, or a torn or scribbled record: cut here
			}
			if err != nil {
				return fmt.Errorf("sqldb: wal: read: %w", err)
			}
			defined := len(dict.texts)
			lsn, rec, err := decodeWALRecord(dict, payload, rows)
			if err != nil {
				// The CRC matched, so the bytes are what was written: this is
				// a format error, not a torn write. Refuse to guess.
				return fmt.Errorf("sqldb: wal: record at offset %d: %w", fr.off, err)
			}
			if lsn <= *last && !(lsn <= afterLSN) {
				dict.rollback(defined) // the cut takes its definitions with it
				return nil             // LSN went backwards: treat the rest as garbage
			}
			rows = rec.rows
			stats.Records++
			if lsn > *last {
				*last = lsn
			}
			if lsn > afterLSN {
				if rows, err = emit(lsn, rec); err != nil {
					return err
				}
			}
			valid = fr.end
			recs++
		}
	}
	apply := func(lsn uint64, rec walRecord) error {
		if err := rp.apply(lsn, rec); err != nil {
			return fmt.Errorf("sqldb: wal: %w", err)
		}
		stats.Applied++
		return nil
	}
	if err := replayAhead(scan, apply); err != nil {
		return 0, err
	}
	if valid < fi.Size() {
		stats.TornBytes += fi.Size() - valid
		if err := f.Truncate(valid); err != nil {
			return 0, fmt.Errorf("sqldb: wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("sqldb: wal: %w", err)
		}
	}
	return recs, nil
}

// replayDepth is how many decoded records replayAhead holds ahead of the
// one applying.
const replayDepth = 64

// replayAhead runs scan on a goroutine of its own and applies the records
// it emits, in order, on the calling one; the row changes' buffers go back
// to scan once applied. The first error in log order wins: an apply error
// stops the scan, and scan's own error is returned once every record
// before it applied.
func replayAhead(scan func(emit func(uint64, walRecord) ([]rowChange, error)) error, apply func(uint64, walRecord) error) error {
	type item struct {
		lsn uint64
		rec walRecord
	}
	items, free := make(chan item, replayDepth), make(chan []rowChange, replayDepth+1)
	stop, done := make(chan struct{}), make(chan struct{})
	var scanErr error
	go func() {
		defer close(done)
		defer close(items)
		scanErr = scan(func(lsn uint64, rec walRecord) ([]rowChange, error) {
			select {
			case items <- item{lsn, rec}:
			case <-stop:
				return nil, errReplayStopped
			}
			select {
			case rows := <-free:
				return rows, nil
			default:
				return nil, nil
			}
		})
	}()
	for it := range items {
		if err := apply(it.lsn, it.rec); err != nil {
			close(stop)
			<-done
			return err
		}
		select {
		case free <- it.rec.rows:
		default:
		}
	}
	<-done
	return scanErr
}

// errReplayStopped ends a scan whose records no longer apply.
var errReplayStopped = errors.New("sqldb: wal: replay stopped")

// append encodes and buffers one commit's record. Called with the database
// writer lock held, so records land in the file in LSN order; the encode
// runs under mu too, so a concurrent Rotate cannot split a record from the
// dictionary it was encoded against. The bytes are buffered; group commit
// flushes them. A failed append rewinds the log to the record's start and
// forgets the dictionary entries the record defined, so the file never
// carries a half-record while the process lives (a crash mid-write is what
// the CRC is for).
func (w *WAL) append(lsn uint64, rec walRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	start, defined := len(w.buf), len(w.enc.dict.texts)
	w.buf = w.enc.encode(w.buf, lsn, rec)
	if f := w.evalHook("append"); f != nil {
		rec := w.buf[start:]
		if f.ShortWrite > 0 && f.ShortWrite < len(rec) {
			// Simulate a torn live write: push a prefix to the OS, then
			// recover by rewinding the file to the record boundary.
			if _, werr := w.f.WriteAt(rec[:f.ShortWrite], w.size); werr == nil {
				if terr := w.f.Truncate(w.size); terr != nil {
					w.broken = fmt.Errorf("sqldb: wal: rewind after failed append: %w", terr)
				}
			}
		}
		if f.Err != nil {
			w.buf = w.buf[:start]
			w.enc.dict.rollback(defined)
			return f.Err
		}
	}
	w.appendLSN = lsn
	w.curRecs++
	w.appends.Add(1)
	return nil
}

// waitDurable blocks until an fsync covers lsn, leading the flush itself
// when no other committer is. Returns the flush error if the round covering
// lsn failed.
func (w *WAL) waitDurable(lsn uint64) error {
	w.gc.Lock()
	for {
		if w.durable >= lsn {
			w.gc.Unlock()
			return nil
		}
		if w.flushErr != nil && w.errUpto >= lsn {
			err := w.flushErr
			w.gc.Unlock()
			return err
		}
		if !w.leaderBusy {
			w.leaderBusy = true
			w.gc.Unlock()
			break
		}
		w.cond.Wait()
	}

	target, err := w.flushRound()

	w.gc.Lock()
	w.leaderBusy = false
	if err == nil {
		if target > w.durable {
			w.durable = target
		}
	} else {
		w.flushErr, w.errUpto = err, target
	}
	w.cond.Broadcast()
	w.gc.Unlock()
	return err
}

// flushRound drains the append buffer to the OS and fsyncs. It returns the
// highest LSN the round covered. Only one round runs at a time (leaderBusy);
// appends continue concurrently and are picked up by the next round.
func (w *WAL) flushRound() (uint64, error) {
	w.mu.Lock()
	target := w.appendLSN
	f := w.f
	var err error
	if len(w.buf) > 0 {
		var n int
		n, err = f.WriteAt(w.buf, w.size)
		w.size += int64(n)
		if err == nil {
			w.buf = w.buf[:0]
		} else if n > 0 {
			w.buf = append(w.buf[:0], w.buf[n:]...)
		}
	}
	w.mu.Unlock()
	if err != nil {
		return target, fmt.Errorf("sqldb: wal write: %w", err)
	}
	if fault := w.evalHook("fsync"); fault != nil && fault.Err != nil {
		return target, fault.Err
	}
	if !w.opts.NoSync {
		if err := f.Sync(); err != nil {
			return target, fmt.Errorf("sqldb: wal fsync: %w", err)
		}
	}
	w.fsyncs.Add(1)
	return target, nil
}

// Rotate seals the current log file for an imminent checkpoint: the file is
// flushed, fsynced and renamed to <path>.1, and a fresh file takes new
// appends. It is a no-op when the current file is empty or when a previous
// seal is still awaiting release (an earlier checkpoint failed mid-way —
// records keep accumulating until a checkpoint succeeds). The sealed file
// is deleted only by DropCovered, after a snapshot covering it has durably
// persisted.
func (w *WAL) Rotate() error {
	// Exclude concurrent flush rounds: rotation swaps the file handle.
	w.gc.Lock()
	for w.leaderBusy {
		w.cond.Wait()
	}
	w.leaderBusy = true
	w.gc.Unlock()
	defer func() {
		w.gc.Lock()
		w.leaderBusy = false
		w.cond.Broadcast()
		w.gc.Unlock()
	}()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if w.curRecs == 0 || w.prevSeal {
		return nil
	}
	if len(w.buf) > 0 {
		n, err := w.f.WriteAt(w.buf, w.size)
		w.size += int64(n)
		if err != nil {
			return fmt.Errorf("sqldb: wal rotate: %w", err)
		}
		w.buf = w.buf[:0]
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("sqldb: wal rotate: %w", err)
	}
	if err := os.Rename(w.path, w.prevPath()); err != nil {
		return fmt.Errorf("sqldb: wal rotate: %w", err)
	}
	nf, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		// The rename happened; appends must keep going somewhere. Rename
		// back so the single-file invariant holds.
		if rerr := os.Rename(w.prevPath(), w.path); rerr != nil {
			w.broken = fmt.Errorf("sqldb: wal rotate: %v (and undo failed: %v)", err, rerr)
			return w.broken
		}
		return fmt.Errorf("sqldb: wal rotate: %w", err)
	}
	if err := syncWALDir(w.path); err != nil {
		nf.Close()
		return err
	}
	w.f.Close()
	w.f = nf
	w.enc.dict = walDict{} // a new file spells its texts afresh
	w.size = 0
	w.prevSeal = true
	w.prevMax = w.appendLSN
	w.curRecs = 0
	return nil
}

// DropCovered releases the sealed previous-generation file once a snapshot
// embedding checkpointLSN has durably persisted. The file is kept — and
// recovery keeps replaying it — unless the checkpoint actually covers its
// last record; a checkpoint that failed or raced an in-flight commit simply
// leaves it for the next one. This conditionality is what makes a failed
// periodic snapshot harmless: the log is never truncated past durable
// coverage.
func (w *WAL) DropCovered(checkpointLSN uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.prevSeal || checkpointLSN < w.prevMax {
		return nil
	}
	if err := os.Remove(w.prevPath()); err != nil {
		return fmt.Errorf("sqldb: wal drop: %w", err)
	}
	w.prevSeal = false
	w.prevMax = 0
	return syncWALDir(w.path)
}

// Sealed reports whether a previous-generation file is awaiting release
// (diagnostic; a long-lived seal means checkpoints keep failing).
func (w *WAL) Sealed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.prevSeal
}

// Close flushes and fsyncs the log and closes the file. Commits after Close
// fail.
func (w *WAL) Close() error {
	if err := w.waitDurable(func() uint64 { w.mu.Lock(); defer w.mu.Unlock(); return w.appendLSN }()); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken == nil {
		w.broken = fmt.Errorf("sqldb: wal is closed")
	}
	return w.f.Close()
}

// syncWALDir fsyncs the log's directory so renames and removals survive
// power loss.
func syncWALDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("sqldb: wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sqldb: wal: %w", err)
	}
	return nil
}

// --- record encoding -------------------------------------------------------

// walDict is one log file's dictionary: the statement texts and table
// names its records defined, in the order their first literal occurrence
// defined them.
type walDict struct {
	ids   map[string]uint64
	texts []string
}

// literal returns a literal statement text or table name, defining it as
// the next id if it is new. A text already defined comes back as the
// dictionary's own copy, without allocating.
func (d *walDict) literal(b []byte) string {
	if id, ok := d.ids[string(b)]; ok {
		return d.texts[id]
	}
	s := string(b)
	d.define(s)
	return s
}

func (d *walDict) define(s string) {
	if d.ids == nil {
		d.ids = make(map[string]uint64)
	}
	d.ids[s] = uint64(len(d.texts))
	d.texts = append(d.texts, s)
}

// rollback forgets every definition after the first n.
func (d *walDict) rollback(n int) {
	for _, s := range d.texts[n:] {
		delete(d.ids, s)
	}
	clear(d.texts[n:])
	d.texts = d.texts[:n]
}

// walEncoder renders the records of one log file.
type walEncoder struct {
	dict walDict
	// The current record's literal text values: index by text, and the
	// texts in index order so the index can be emptied between records.
	textIDs map[string]uint64
	texts   []string
	last    lastRowids
}

// lastRowids holds, per table, the last rowid a record's changes named: the
// base its next rowid delta counts from. A record names a few tables, so a
// scan beats a map.
type lastRowids []lastRowid

type lastRowid struct {
	table string
	rowid int64
}

// at returns table's last rowid, 0 until the record names the table.
func (l *lastRowids) at(table string) *int64 {
	for i := range *l {
		if (*l)[i].table == table {
			return &(*l)[i].rowid
		}
	}
	*l = append(*l, lastRowid{table: table})
	return &(*l)[len(*l)-1].rowid
}

// encode appends one commit's record to b as one sealed frame. A statement
// text or table name in the dictionary is written as a reference to it;
// any other is written in full and defines the next id. A text value equal
// to an earlier literal text value of the record is written as a tag-7
// back-reference to it.
func (e *walEncoder) encode(b []byte, lsn uint64, rec walRecord) []byte {
	start := len(b)
	b = beginFrame(b)
	b = binary.BigEndian.AppendUint64(b, lsn)
	b = binary.AppendUvarint(b, uint64(len(rec.stmts)))
	if e.textIDs == nil {
		e.textIDs = make(map[string]uint64)
	}
	for i, s := range rec.stmts {
		if id, ok := e.dict.ids[s.sql]; ok {
			b = append(b, 0)
			b = binary.AppendUvarint(b, uint64(i)+id)
		} else {
			e.dict.define(s.sql)
			b = appendString(b, s.sql)
		}
		b = binary.AppendUvarint(b, uint64(len(s.args)))
		for _, v := range s.args {
			b = e.value(b, v)
		}
	}
	rows := rec.rows
	for i := 0; i < len(rows); {
		c := &rows[i]
		n := c.cells()
		j := i + 1
		for j < len(rows) && rows[j].table == c.table && rows[j].op == c.op && rows[j].cells() == n {
			j++
		}
		if id, ok := e.dict.ids[c.table]; ok {
			b = binary.AppendUvarint(b, id+1)
		} else {
			e.dict.define(c.table)
			b = appendString(append(b, 0), c.table)
		}
		b = binary.AppendUvarint(b, uint64(n)<<2|uint64(c.op))
		b = binary.AppendUvarint(b, uint64(j-i))
		for k := i; k < j; k++ {
			c := &rows[k]
			last := e.last.at(c.table)
			b = binary.AppendVarint(b, c.rowid-*last)
			*last = c.rowid
			for p, v := range c.row {
				if p != c.skip {
					b = e.value(b, v)
				}
			}
		}
		i = j
	}
	for _, s := range e.texts {
		delete(e.textIDs, s)
	}
	clear(e.texts)
	e.texts, e.last = e.texts[:0], e.last[:0]
	endFrame(b, start)
	return b
}

// value appends v; a text value already in the record goes as a tag-7
// back-reference.
func (e *walEncoder) value(b []byte, v Value) []byte {
	if v.T == TypeText {
		if k, ok := e.textIDs[v.S]; ok {
			b = append(b, walTagTextRef)
			return binary.AppendUvarint(b, k)
		}
		e.textIDs[v.S] = uint64(len(e.texts))
		e.texts = append(e.texts, v.S)
	}
	return encodeWALValue(b, v)
}

// decodeWALRecord parses a CRC-verified payload back into its entries,
// resolving references against dict and adding the record's definitions to
// it. A refused record leaves dict as it found it. The row changes are
// appended to rows, a buffer the caller may reuse once it is done with the
// record. A decoded row change holds the cells the log carried, in a row
// with room for one more: the rowid cell replay puts back.
func decodeWALRecord(dict *walDict, payload []byte, rows []rowChange) (lsn uint64, rec walRecord, err error) {
	if len(payload) < 8 {
		return 0, walRecord{}, fmt.Errorf("payload too short")
	}
	lsn = binary.BigEndian.Uint64(payload)
	defined := len(dict.texts)
	d := recordDecoder{decoder: decoder{b: payload[8:]}}
	stmts := make([]redoStmt, 0, d.count())
	for i := range cap(stmts) {
		var sql string
		if text := d.bytes(); len(text) > 0 {
			sql = dict.literal(text)
		} else if ref := d.uvarint(); ref < uint64(i) {
			sql = stmts[ref].sql // an earlier statement's text (logs before the dictionary)
		} else if id := ref - uint64(i); id < uint64(len(dict.texts)) {
			sql = dict.texts[id]
		} else {
			d.fail("bad sql reference %d", ref)
		}
		args := make([]Value, d.count())
		for j := range args {
			args[j] = d.value()
		}
		if d.err != nil {
			dict.rollback(defined)
			return 0, walRecord{}, fmt.Errorf("statement %d: %w", i, d.err)
		}
		stmts = append(stmts, redoStmt{sql: sql, args: args})
	}
	rows = rows[:0]
	var last lastRowids
	for len(d.b) > 0 {
		var table string
		if k := d.uvarint(); k > 0 {
			if k-1 < uint64(len(dict.texts)) {
				table = dict.texts[k-1]
			} else {
				d.fail("bad table reference %d", k)
			}
		} else if name := d.bytes(); len(name) > 0 {
			table = dict.literal(name)
		} else {
			d.fail("empty table name")
		}
		kind := d.uvarint()
		op, cells := byte(kind&3), kind>>2
		if op > rowDelete || op == rowDelete && cells != 0 {
			d.fail("bad row change kind %d", kind)
		}
		n := d.count()
		if n == 0 {
			d.fail("empty run")
		} else if cells+1 > uint64(len(d.b)/n) {
			// Every change takes a byte for its rowid and one per cell.
			d.fail("%d changes of %d cells exceed the %d bytes left", n, cells, len(d.b))
		}
		for range n {
			if d.err != nil {
				break
			}
			rowid := last.at(table)
			*rowid += d.varint()
			c := rowChange{table: table, op: op, rowid: *rowid, skip: -1}
			if op != rowDelete {
				c.row = make(Row, cells, cells+1)
				for k := range c.row {
					c.row[k] = d.value()
				}
			}
			rows = append(rows, c)
		}
		if d.err != nil {
			dict.rollback(defined)
			return 0, walRecord{}, fmt.Errorf("row change %d: %w", len(rows), d.err)
		}
	}
	if d.err != nil {
		dict.rollback(defined)
		return 0, walRecord{}, d.err
	}
	return lsn, walRecord{stmts: stmts, rows: rows}, nil
}

// recordDecoder decodes one log record's values, resolving tag-7
// back-references against the record's literal text values.
type recordDecoder struct {
	decoder
	texts []string // the record's literal text values, in order
}

func (d *recordDecoder) value() Value {
	switch {
	case len(d.b) > 0 && d.b[0] == walTagTextRef:
		d.b = d.b[1:]
		k := d.uvarint()
		if k < uint64(len(d.texts)) {
			return Text(d.texts[k])
		}
		d.fail("bad text reference %d", k)
		return Null()
	case len(d.b) > 0 && d.b[0] == walTagText:
		v := decodeWALValue(&d.decoder)
		d.texts = append(d.texts, v.S)
		return v
	default:
		return decodeWALValue(&d.decoder)
	}
}

// Typed-argument wire tags. These are a frozen on-disk contract — logs
// written before the in-memory Value layout changed must keep replaying —
// so they are named constants rather than casts of the (internal,
// reorderable) Type enum, even though the numeric values coincide for the
// original five. walTagTimeMicro carries sub-second timestamps, which the
// seconds tag cannot. walTagTextRef is a back-reference to an earlier text
// argument of the same log record; it exists only in the record decoder —
// decodeWALValue, which is also the snapshot's frozen value layout, refuses
// it like any unknown tag.
const (
	walTagNull      = 0
	walTagInt       = 1
	walTagFloat     = 2
	walTagText      = 3
	walTagBool      = 4
	walTagTimeSec   = 5 // varint unix seconds
	walTagTimeMicro = 6 // varint unix microseconds
	walTagTextRef   = 7 // uvarint index of an earlier literal text argument (log records only)
)

// encodeWALValue appends one tagged value: a tag byte then a tag-specific
// payload (varint int, raw float bits, length-prefixed text, bool byte,
// varint unix seconds or microseconds).
func encodeWALValue(b []byte, v Value) []byte {
	switch v.T {
	case TypeNull:
		b = append(b, walTagNull)
	case TypeInt:
		b = append(b, walTagInt)
		b = binary.AppendVarint(b, v.N)
	case TypeFloat:
		b = append(b, walTagFloat)
		b = binary.BigEndian.AppendUint64(b, uint64(v.N))
	case TypeText:
		b = append(b, walTagText)
		b = binary.AppendUvarint(b, uint64(len(v.S)))
		b = append(b, v.S...)
	case TypeBool:
		b = append(b, walTagBool)
		if v.N != 0 {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case TypeTime:
		const perSec = int64(time.Second) / int64(time.Microsecond)
		if v.N%perSec == 0 {
			b = append(b, walTagTimeSec)
			b = binary.AppendVarint(b, v.N/perSec)
		} else {
			b = append(b, walTagTimeMicro)
			b = binary.AppendVarint(b, v.N)
		}
	default:
		// Writing nothing would shift every value behind this one.
		panic(fmt.Sprintf("sqldb: cannot encode a value of unknown type %v", v.T))
	}
	return b
}

// decodeWALValue parses one tagged value. Text is interned: replay and
// restore re-create every hot string on disk, and the schema vocabulary
// (attribute names, type tags) repeats per row.
func decodeWALValue(d *decoder) Value {
	switch t := d.byte(); t {
	case walTagNull:
		return Null()
	case walTagInt:
		return Int(d.varint())
	case walTagFloat:
		if len(d.b) < 8 {
			d.fail("bad float")
			return Null()
		}
		bits := binary.BigEndian.Uint64(d.b)
		d.b = d.b[8:]
		return Float(math.Float64frombits(bits))
	case walTagText:
		return Text(internBytes(d.bytes()))
	case walTagBool:
		return Bool(d.byte() != 0)
	case walTagTimeSec:
		return Time(time.Unix(d.varint(), 0).UTC())
	case walTagTimeMicro:
		return TimeMicros(d.varint())
	default:
		d.fail("unknown value tag %d", t)
		return Null()
	}
}

// AppendValue appends v to b in the tagged layout the log and the snapshot
// store values in, for a caller that packs several values into one cell.
func AppendValue(b []byte, v Value) []byte { return encodeWALValue(b, v) }

// ReadValue decodes the value AppendValue wrote at the front of b and
// returns it with the rest of b. A truncated value or an unknown tag is an
// error.
func ReadValue(b []byte) (Value, []byte, error) {
	d := decoder{b: b}
	v := decodeWALValue(&d)
	return v, d.b, d.err
}

// decoder walks one CRC-verified payload. The first malformed field sets err
// and empties what is left, so a caller decodes a whole structure and checks
// once; every later read returns a zero.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("unexpected end of payload")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) varint() int64 {
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// count reads how many elements follow. Every element takes at least a
// byte, so a count above what is left of the payload is refused before
// anything is allocated for it.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string, aliasing the payload.
func (d *decoder) bytes() []byte {
	n := d.count()
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}
