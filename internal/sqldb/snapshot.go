package sqldb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"sort"
	"sync"

	"mcs/internal/btree"
)

// Snapshots give the in-memory engine the durability of the MySQL backend
// it replaces: Dump writes every table definition, secondary index
// definition and row to a stream; LoadSnapshot rebuilds a database from one.
//
// The stream is a sequence of frames (frame.go, the write-ahead log's
// container) whose values are written by the log's value codec. Every
// payload starts with a kind byte:
//
//	header   magic, format version, LSN of the dumped root
//	table    name, columns, index definitions, nextRow, autoInc, row count
//	rows     per row: rowid delta (uvarint), then one tagged value a column
//	trailer  table count, row count
//
// A table frame is followed by that table's rows frames, each sealed once it
// reaches snapshotFrameSize; the first delta of a frame counts from 0, so a
// frame's first rowid is absolute. The trailer is last. The CRCs catch a
// damaged frame; ascending rowids and the row count in the definition catch a
// dropped, repeated or reordered rows frame; the trailer catches a dropped
// table and a stream cut at a frame boundary.
const (
	snapFrameHeader = iota + 1
	snapFrameTable
	snapFrameRows
	snapFrameTrailer
)

const (
	snapshotMagic = "MCSSNAP"
	// snapshotVersion counts stream generations: 1 and 2 were gob streams,
	// no longer read (see LoadSnapshot); 3 is the framed stream.
	snapshotVersion = 3
	// snapshotFrameSize is the payload size at which Dump seals a rows
	// frame: a frame exceeds it by less than one row.
	snapshotFrameSize = 32 << 10
)

// snapshotWriter builds one frame at a time in a buffer it reuses. The first
// write error sticks and turns every later frame into a no-op.
type snapshotWriter struct {
	w   io.Writer
	buf []byte // the frame under construction; empty between frames
	err error
}

func (sw *snapshotWriter) begin(kind byte) { sw.buf = append(beginFrame(sw.buf[:0]), kind) }

func (sw *snapshotWriter) end() {
	if endFrame(sw.buf, 0); sw.err == nil {
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
}

// appendString appends s the way decoder.bytes reads it back.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Dump writes a consistent snapshot of the database to w. It pins the
// current committed root with one atomic load and walks that immutable
// version table by table into one reusable frame buffer, so a dump of any
// size never blocks writers (commits that land mid-dump produce newer roots
// this dump does not see) and holds a frame of memory, not a copy of the
// database.
func (db *DB) Dump(w io.Writer) error {
	root := db.root.Load()
	sw := snapshotWriter{w: w, buf: make([]byte, 0, snapshotFrameSize+4096)}
	sw.begin(snapFrameHeader)
	sw.buf = append(sw.buf, snapshotMagic...)
	sw.buf = binary.AppendUvarint(sw.buf, snapshotVersion)
	sw.buf = binary.AppendUvarint(sw.buf, root.lsn)
	sw.end()
	names := make([]string, 0, len(root.tables))
	for n := range root.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := 0
	for _, name := range names {
		t := root.tables[name]
		rows += t.rows.Len()
		sw.begin(snapFrameTable)
		sw.buf = appendTableDef(sw.buf, t)
		sw.end()
		var prev int64
		t.rows.Ascend(func(rowid int64, row Row) bool {
			if len(sw.buf) == 0 {
				sw.begin(snapFrameRows)
				prev = 0
			}
			sw.buf = binary.AppendUvarint(sw.buf, uint64(rowid-prev))
			prev = rowid
			for _, v := range row {
				sw.buf = encodeWALValue(sw.buf, v)
			}
			if len(sw.buf) >= snapshotFrameSize {
				sw.end()
			}
			return sw.err == nil
		})
		if len(sw.buf) > 0 {
			sw.end()
		}
	}
	sw.begin(snapFrameTrailer)
	sw.buf = binary.AppendUvarint(sw.buf, uint64(len(root.tables)))
	sw.buf = binary.AppendUvarint(sw.buf, uint64(rows))
	if sw.end(); sw.err != nil {
		return fmt.Errorf("sqldb: write snapshot: %w", sw.err)
	}
	return nil
}

// appendTableDef appends a table frame's body; readTableDef is its inverse.
func appendTableDef(b []byte, t *table) []byte {
	b = binary.AppendUvarint(appendString(b, t.name), uint64(len(t.cols)))
	for _, c := range t.cols {
		// A column's type is written as the zero value of that type: the
		// value codec's frozen tags are the only type tags on disk.
		b = encodeWALValue(appendString(b, c.Name), Value{T: c.Type})
		for _, flag := range [...]bool{c.NotNull, c.PrimaryKey, c.AutoIncrement, c.Unique} {
			b = encodeWALValue(b, Bool(flag))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(t.indexes)))
	for _, ix := range t.indexes {
		b = encodeWALValue(appendString(b, ix.name), Bool(ix.unique))
		b = binary.AppendUvarint(b, uint64(len(ix.cols)))
		for _, c := range ix.cols {
			b = binary.AppendUvarint(b, uint64(c))
		}
	}
	b = binary.AppendVarint(binary.AppendVarint(b, t.nextRow), t.autoInc)
	return binary.AppendUvarint(b, uint64(t.rows.Len()))
}

// LoadSnapshot rebuilds a database from a Dump stream, read frame by frame
// from r. It must be called on a database whose tables do not collide with
// the snapshot's (typically a fresh one). Nothing in the stream is trusted:
// a frame that is damaged, missing or out of place, a table whose rows
// disagree in number with its definition, whose rowids do not strictly
// ascend or pass nextRow, whose rows are cut short, hold a value of no known
// type or break a UNIQUE index is an error naming the frame's offset, and any
// error leaves the previous root untouched. A stream that does not open with
// the framed header — a gob snapshot of generation 1 or 2, or not a snapshot
// at all — is refused at offset 0.
//
// Indexes are not in the stream; they are rebuilt from the rows, in bulk:
// the row store comes straight from the rowid-ordered rows, and each index
// sorts one entry per row and builds its tree bottom-up (index.build), a
// table's indexes side by side on as many goroutines as GOMAXPROCS allows.
// A table's decoded rows are let go as soon as the table is built, so the
// load never holds two full copies of the database.
func (db *DB) LoadSnapshot(r io.Reader) error {
	br := bufio.NewReaderSize(r, 64<<10)
	// A framed stream opens: frame header, kind byte, magic. Peek's error
	// is the reader's to report: a short or failing stream is not framed.
	if head, _ := br.Peek(frameHeaderSize + 1 + len(snapshotMagic)); !bytes.HasSuffix(head, []byte(snapshotMagic)) {
		return errUnframedSnapshot
	}
	lsn, tables, err := readSnapshot(br)
	if err != nil {
		return err
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	base := db.root.Load()
	work := &dbRoot{
		epoch:   base.epoch + 1,
		lsn:     max(base.lsn, lsn),
		tables:  maps.Clone(base.tables),
		indexes: maps.Clone(base.indexes),
	}
	for _, t := range tables {
		if _, exists := work.tables[t.name]; exists {
			return fmt.Errorf("sqldb: snapshot table %q already exists", t.name)
		}
		for _, ix := range t.indexes {
			if _, exists := work.indexes[ix.name]; exists {
				return fmt.Errorf("sqldb: snapshot index %q already exists", ix.name)
			}
			work.indexes[ix.name] = ix
		}
		work.tables[t.name] = t
	}
	// Publish the rebuilt state atomically; an error above leaves the
	// previous root untouched (the partially built work root is discarded).
	db.root.Store(work)
	return nil
}

// errUnframedSnapshot refuses a stream without the framed header. The gob
// snapshots (generations 1 and 2) were last read by the builds from commit
// 21c9600, which introduced the framed stream, up to 935ee9b: one boot under
// such a build rewrites the file framed at its first checkpoint.
var errUnframedSnapshot = fmt.Errorf("sqldb: snapshot: frame at offset 0: no %s header; "+
	"a gob snapshot (format version 1 or 2) is no longer read: boot it once with a build "+
	"from commits 21c9600..935ee9b, whose first checkpoint rewrites it framed", snapshotMagic)

// readSnapshot reads a framed stream to its end and returns the LSN it
// embeds and the tables it holds, built.
func readSnapshot(r io.Reader) (lsn uint64, tables []*table, err error) {
	fr := frameReader{r: r}
	var (
		cur  *tableLoader // the table whose rows frames are arriving
		rows uint64
		done bool // the trailer has been read
	)
	for {
		payload, err := fr.next()
		if err == io.EOF && done {
			return lsn, tables, nil
		}
		if err == io.EOF {
			err = fmt.Errorf("stream ends without a trailer")
		}
		d := decoder{b: payload, err: err}
		switch kind := d.byte(); {
		case d.err != nil:
		case done:
			d.fail("frame after the trailer")
		case (kind == snapFrameHeader) != (fr.off == 0):
			d.fail("frame kind %d at offset %d", kind, fr.off)
		case kind == snapFrameHeader:
			d.b = d.b[min(len(d.b), len(snapshotMagic)):] // LoadSnapshot matched the magic
			if v := d.uvarint(); v != snapshotVersion {
				d.fail("format version %d, want %d", v, snapshotVersion)
			}
			lsn = d.uvarint()
		case kind == snapFrameRows && cur != nil:
			cur.addRows(&d)
		case kind == snapFrameTable || kind == snapFrameTrailer:
			if cur != nil {
				t, err := cur.build()
				if err != nil {
					d.fail("%w", err)
					break
				}
				tables = append(tables, t)
				rows += cur.want
			}
			if cur = nil; kind == snapFrameTable {
				cur = readTableDef(&d)
			} else if nt, nr := d.uvarint(), d.uvarint(); d.err == nil && (nt != uint64(len(tables)) || nr != rows) {
				d.fail("trailer counts %d tables and %d rows, stream held %d and %d", nt, nr, len(tables), rows)
			} else {
				done = true
			}
		default:
			d.fail("unexpected frame kind %d", kind)
		}
		if d.err == nil && len(d.b) != 0 {
			d.fail("%d trailing bytes", len(d.b))
		}
		if d.err != nil {
			return 0, nil, fmt.Errorf("sqldb: snapshot: frame at offset %d: %w", fr.off, d.err)
		}
	}
}

// readTableDef decodes a table frame into a loader for the rows to come.
func readTableDef(d *decoder) *tableLoader {
	name := string(d.bytes())
	cols := make([]ColumnDef, d.count())
	for i := range cols {
		c := &cols[i]
		c.Name, c.Type = string(d.bytes()), decodeWALValue(d).T
		for _, flag := range [...]*bool{&c.NotNull, &c.PrimaryKey, &c.AutoIncrement, &c.Unique} {
			*flag = decodeWALValue(d).N != 0
		}
	}
	l := newTableLoader(name, cols)
	for range d.count() {
		name, unique := string(d.bytes()), decodeWALValue(d).N != 0
		pos := make([]int, d.count())
		for i := range pos {
			pos[i] = int(min(d.uvarint(), math.MaxInt32))
		}
		if err := l.addIndex(name, pos, unique); err != nil {
			d.fail("%w", err)
		}
	}
	l.t.nextRow, l.t.autoInc, l.want = d.varint(), d.varint(), d.uvarint()
	// The promised count sizes the slices only so far: rows are believed
	// as they arrive.
	l.rowids, l.rows = make([]int64, 0, min(l.want, 1<<16)), make([]Row, 0, min(l.want, 1<<16))
	return l
}

// tableLoader collects one table's rows in rowid order, validating them as
// they arrive, and builds the table from them.
type tableLoader struct {
	t      *table
	want   uint64 // rows the definition promised
	last   int64  // rowid of the last row added; rowids start at 1
	rowids []int64
	rows   []Row
}

func newTableLoader(name string, cols []ColumnDef) *tableLoader {
	t := &table{name: name, cols: cols, colPos: make(map[string]int, len(cols))}
	for i, c := range cols {
		t.colPos[c.Name] = i
	}
	return &tableLoader{t: t}
}

func (l *tableLoader) addIndex(name string, cols []int, unique bool) error {
	if len(cols) == 0 {
		return fmt.Errorf("index %q of %q has no columns", name, l.t.name)
	}
	for _, c := range cols {
		if c < 0 || c >= len(l.t.cols) {
			return fmt.Errorf("index %q references column %d of %q", name, c, l.t.name)
		}
	}
	l.t.indexes = append(l.t.indexes, newIndex(name, l.t, cols, unique))
	return nil
}

// addRows decodes one rows frame. Each row is its own allocation: a slab
// shared by a frame's rows would stay pinned for as long as any one of them
// is live, however many the catalog has since rewritten.
func (l *tableLoader) addRows(d *decoder) {
	prev := int64(0) // a frame's first delta counts from 0
	for len(d.b) > 0 {
		delta := d.uvarint()
		row := make(Row, len(l.t.cols))
		for c := range row {
			row[c] = decodeWALValue(d)
		}
		if d.err != nil {
			d.err = fmt.Errorf("table %q, row after rowid %d: %w", l.t.name, l.last, d.err)
			return
		}
		prev += int64(min(delta, uint64(math.MaxInt64-prev)))
		if err := l.add(prev, row); err != nil {
			d.fail("%w", err)
		}
	}
}

// add appends one row.
func (l *tableLoader) add(rowid int64, row Row) error {
	if rowid <= l.last {
		return fmt.Errorf("table %q: rowid %d follows %d, want strictly ascending", l.t.name, rowid, l.last)
	}
	l.last, l.rowids, l.rows = rowid, append(l.rowids, rowid), append(l.rows, row)
	return nil
}

// build checks the collected rows against the definition and builds the row
// store and the indexes.
func (l *tableLoader) build() (*table, error) {
	t, rowids, rows := l.t, l.rowids, l.rows
	if uint64(len(rows)) != l.want {
		return nil, fmt.Errorf("table %q has %d rows, its definition promised %d", t.name, len(rows), l.want)
	}
	if n := len(rowids); n > 0 && t.nextRow < rowids[n-1] {
		return nil, fmt.Errorf("table %q: next rowid %d is below stored rowid %d", t.name, t.nextRow, rowids[n-1])
	}
	t.rows = btree.FromSorted(btree.DefaultDegree, rowidLess, rowids, rows)

	// One goroutine per index, at most GOMAXPROCS at a time: each build is
	// CPU-bound (a sort) and touches only its own index and the shared,
	// read-only rows.
	errs := make([]error, len(t.indexes))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, ix := range t.indexes {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			entries := make([]indexEntry, len(rows))
			for j, row := range rows {
				entries[j] = entryOf(rowids[j], row)
			}
			errs[i] = ix.build(entries)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("table %q: %w", t.name, err)
		}
	}
	return t, nil
}
