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
// per-commit durability. Each committed transaction serializes its redo
// statements — the same logical statement stream the MVCC writer applied —
// into one self-contained record, one frame (frame.go) appended to an
// append-only log file:
//
//	payload: lsn (8B big-endian)
//	         nstmts (uvarint)
//	         per statement: sqlLen (uvarint), sql bytes,
//	                        nargs (uvarint), args (tagged values)
//
// The frame's CRC lets recovery detect a torn write — a record whose tail
// never reached disk — and truncate it instead of failing. Records carry
// strictly increasing log sequence numbers (LSNs)
// assigned at commit; snapshots embed the LSN of the root they pinned, so
// boot restores the snapshot and replays only the log suffix with larger
// LSNs.
//
// Durability is amortized across concurrent committers by group commit: a
// committer appends its record under the writer lock, publishes its root,
// then either becomes the flush leader — flushing and fsyncing everything
// appended so far — or parks until a leader's fsync covers its LSN. One
// fsync thus acknowledges every commit that arrived while the previous
// fsync was in flight.
//
// A checkpoint (snapshot) rotates the log: the current file is sealed and
// renamed to <path>.1, a fresh file takes new appends, and once a snapshot
// covering the sealed file's last LSN has durably persisted the sealed file
// is deleted. A crash between those steps leaves both generations on disk;
// recovery replays <path>.1 then <path>.

// redoStmt is one logged mutation: the statement text and its bound
// parameters, exactly as the committer executed them.
type redoStmt struct {
	sql  string
	args []Value
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
}

// WAL is an append-only redo log with group commit. Open one with OpenWAL
// and install it on a database with DB.AttachWAL; every subsequent commit
// appends its statements and blocks until an fsync covers it.
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
	curRecs   uint64 // records in the current generation file
	prevMax   uint64 // last LSN in the sealed previous generation, if any
	prevSeal  bool   // <path>.1 exists
	broken    error  // sticky: the log could not be rewound after a failed append

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
// generations are replayed when a checkpoint was interrupted mid-rotation.
//
// The returned WAL is positioned for appends; install it with DB.AttachWAL
// before accepting writes. Replay bypasses the database fault hook.
func OpenWAL(path string, db *DB, afterLSN uint64, opts WALOptions) (*WAL, ReplayStats, error) {
	w := &WAL{path: path, opts: opts}
	w.cond = sync.NewCond(&w.gc)
	var stats ReplayStats
	last := afterLSN

	if _, err := os.Stat(w.prevPath()); err == nil {
		w.prevSeal = true
		if err := replayFile(w.prevPath(), db, afterLSN, &stats, &last, nil); err != nil {
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
	var recs uint64
	if err := replayInto(f, db, afterLSN, &stats, &last, &recs); err != nil {
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
func replayFile(path string, db *DB, afterLSN uint64, stats *ReplayStats, last *uint64, recs *uint64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("sqldb: wal: %w", err)
	}
	defer f.Close()
	return replayInto(f, db, afterLSN, stats, last, recs)
}

// replayInto scans one log file, applies every whole record with LSN above
// afterLSN, and truncates the file at the first torn, corrupt or
// non-monotonic record. last carries the running LSN high-water mark across
// generations; a record's LSN must exceed it.
func replayInto(f *os.File, db *DB, afterLSN uint64, stats *ReplayStats, last *uint64, recs *uint64) error {
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("sqldb: wal: %w", err)
	}
	fr := frameReader{r: bufio.NewReader(io.NewSectionReader(f, 0, fi.Size()))}
	valid := int64(0)
	for {
		payload, err := fr.next()
		if err == io.EOF || errors.Is(err, errFrameDamaged) {
			break // clean end, or a torn or scribbled record: cut here
		}
		if err != nil {
			return fmt.Errorf("sqldb: wal: read: %w", err)
		}
		lsn, stmts, err := decodeWALRecord(payload)
		if err != nil {
			// The CRC matched, so the bytes are what was written: this is a
			// format error, not a torn write. Refuse to guess.
			return fmt.Errorf("sqldb: wal: record at offset %d: %w", fr.off, err)
		}
		if lsn <= *last && !(lsn <= afterLSN) {
			break // LSN went backwards: treat the rest as garbage
		}
		stats.Records++
		if lsn > *last {
			*last = lsn
		}
		if lsn > afterLSN {
			if err := db.applyWALRecord(lsn, stmts); err != nil {
				return fmt.Errorf("sqldb: wal: replay lsn %d: %w", lsn, err)
			}
			stats.Applied++
		}
		valid = fr.end
		if recs != nil {
			*recs++
		}
	}
	if valid < fi.Size() {
		stats.TornBytes += fi.Size() - valid
		if err := f.Truncate(valid); err != nil {
			return fmt.Errorf("sqldb: wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("sqldb: wal: %w", err)
		}
	}
	return nil
}

// append encodes and buffers one commit's record. Called with the database
// writer lock held, so records land in the file in LSN order. The bytes are
// buffered; group commit flushes them. A failed append rewinds the log to
// the record's start so the file never carries a half-record while the
// process lives (a crash mid-write is what the CRC is for).
func (w *WAL) append(lsn uint64, stmts []redoStmt) error {
	rec := encodeWALRecord(lsn, stmts)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if f := w.evalHook("append"); f != nil {
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
			return f.Err
		}
	}
	w.buf = append(w.buf, rec...)
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

// walBackrefWindow bounds how many distinct statement texts one record
// remembers for back-references. A commit repeats a handful of texts (a
// createFile is one logical_file insert and N user_attribute inserts; a
// 100-op batch repeats those a hundred times), so a short linear table finds
// every repeat without allocating; texts past the window are written in full.
const walBackrefWindow = 16

// encodeWALRecord renders one commit as one sealed frame. A statement
// whose SQL text already occurred in the record is written as a zero length
// followed by the index of that earlier statement, not as the text again:
// an empty statement is never logged (it cannot parse, so it cannot commit),
// which makes length 0 free to mean "same text as statement i". The change
// is additive, like walTagTimeMicro: logs written before it contain no zero
// lengths and decode as they always did.
func encodeWALRecord(lsn uint64, stmts []redoStmt) []byte {
	rec := beginFrame(make([]byte, 0, 64*len(stmts)+24))
	rec = binary.BigEndian.AppendUint64(rec, lsn)
	rec = binary.AppendUvarint(rec, uint64(len(stmts)))
	var firsts [walBackrefWindow]int // indexes of the first statement with each text
	nfirsts := 0
	for i, s := range stmts {
		ref := -1
		for _, f := range firsts[:nfirsts] {
			if stmts[f].sql == s.sql {
				ref = f
				break
			}
		}
		if ref >= 0 {
			rec = binary.AppendUvarint(rec, 0)
			rec = binary.AppendUvarint(rec, uint64(ref))
		} else {
			if nfirsts < len(firsts) {
				firsts[nfirsts] = i
				nfirsts++
			}
			rec = appendString(rec, s.sql)
		}
		rec = binary.AppendUvarint(rec, uint64(len(s.args)))
		for _, v := range s.args {
			rec = encodeWALValue(rec, v)
		}
	}
	endFrame(rec, 0)
	return rec
}

// decodeWALRecord parses a CRC-verified payload back into its statements.
func decodeWALRecord(payload []byte) (lsn uint64, stmts []redoStmt, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("payload too short")
	}
	lsn = binary.BigEndian.Uint64(payload)
	d := decoder{b: payload[8:]}
	stmts = make([]redoStmt, 0, d.count())
	for i := range cap(stmts) {
		var sql string
		if text := d.bytes(); len(text) > 0 {
			sql = string(text)
		} else if ref := d.uvarint(); ref < uint64(i) {
			sql = stmts[ref].sql // back-reference to an earlier statement's text
		} else {
			d.fail("bad sql back-reference")
		}
		args := make([]Value, d.count())
		for j := range args {
			args[j] = decodeWALValue(&d)
		}
		if d.err != nil {
			return 0, nil, fmt.Errorf("statement %d: %w", i, d.err)
		}
		stmts = append(stmts, redoStmt{sql: sql, args: args})
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return lsn, stmts, d.err
}

// Typed-argument wire tags. These are a frozen on-disk contract — logs
// written before the in-memory Value layout changed must keep replaying —
// so they are named constants rather than casts of the (internal,
// reorderable) Type enum, even though the numeric values coincide for the
// original five. Tags 1–5 are the PR 6 format; walTagTimeMicro is additive:
// the encoder only emits it for sub-second timestamps, which the seconds
// tag cannot carry, so logs written by this version remain readable by the
// old decoder unless they actually contain such a value.
const (
	walTagNull      = 0
	walTagInt       = 1
	walTagFloat     = 2
	walTagText      = 3
	walTagBool      = 4
	walTagTimeSec   = 5 // varint unix seconds
	walTagTimeMicro = 6 // varint unix microseconds
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
