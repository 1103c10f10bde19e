package sqldb

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"runtime"
	"sort"
	"sync"
	"time"

	"mcs/internal/btree"
)

// Snapshots give the in-memory engine the durability of the MySQL backend
// it replaces: Dump serializes every table definition, secondary index
// definition and row to a stream; Load rebuilds a database from one.
// The format is versioned gob, written from a pinned immutable MVCC root,
// so dumping never blocks (or is blocked by) concurrent traffic.

// snapshotVersion guards format evolution. Version 1 serialized the old
// wide Value (separate I/F/S/B/Unix fields per cell); version 2 writes the
// compact tagged-union form (N carries int/float-bits/bool/unix-micros).
// Loading accepts both: gob matches fields by name and zero-fills absences,
// so the one gobValue struct below decodes either generation and fromGob
// picks the populated representation per the stream version.
const snapshotVersion = 2

// legacySnapshotVersion is the oldest stream generation LoadSnapshot accepts.
const legacySnapshotVersion = 1

// gobValue is the wire form of a Value. Version 2 streams populate T, N and
// S only; the I/F/B/Unix fields exist so the same struct decodes version 1
// streams (gob omits zero-valued fields on encode, so they cost nothing on
// the write side).
type gobValue struct {
	T Type
	N int64
	S string

	// Version 1 layout, decode-only.
	I    int64
	F    float64
	B    bool
	Unix int64 // seconds; valid when T == TypeTime
}

func toGob(v Value) gobValue {
	return gobValue{T: v.T, N: v.N, S: v.S}
}

// fromGob rebuilds a Value from either stream generation. Text is interned:
// a snapshot of a million rows repeats the same attribute names and type
// tags a million times, and this is the one place every stored string
// passes through at boot.
func fromGob(g gobValue, version int) Value {
	if version >= 2 {
		v := Value{T: g.T, N: g.N, S: g.S}
		if v.T == TypeText {
			v.S = Intern(v.S)
		}
		return v
	}
	switch g.T {
	case TypeInt:
		return Int(g.I)
	case TypeFloat:
		return Float(g.F)
	case TypeText:
		return Text(Intern(g.S))
	case TypeBool:
		return Bool(g.B)
	case TypeTime:
		return Time(time.Unix(g.Unix, 0).UTC())
	}
	return Null()
}

// gobIndex describes one secondary index.
type gobIndex struct {
	Name   string
	Cols   []int
	Unique bool
}

// gobTable carries one table's definition and contents.
type gobTable struct {
	Name    string
	Cols    []ColumnDef
	Indexes []gobIndex
	NextRow int64
	AutoInc int64
	RowIDs  []int64
	Rows    [][]gobValue
}

// gobSnapshot is the full stream payload. LSN is the write-ahead-log
// sequence number of the pinned root: recovery replays only log records
// above it. The field is additive — gob decodes pre-WAL snapshots to LSN 0
// (replay everything) and old readers ignore it — so the version stays 1.
type gobSnapshot struct {
	Version int
	LSN     uint64
	Tables  []gobTable
}

// Dump writes a consistent snapshot of the database to w. It pins the
// current committed root with one atomic load and serializes from that
// immutable version, so a dump of any size never blocks writers (or is
// affected by them): commits that land mid-dump simply produce newer roots
// this dump does not see.
func (db *DB) Dump(w io.Writer) error {
	root := db.root.Load()
	snap := gobSnapshot{Version: snapshotVersion, LSN: root.lsn}
	names := make([]string, 0, len(root.tables))
	for n := range root.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t := root.tables[name]
		gt := gobTable{
			Name:    t.name,
			Cols:    t.cols,
			NextRow: t.nextRow,
			AutoInc: t.autoInc,
		}
		for _, ix := range t.indexes {
			gt.Indexes = append(gt.Indexes, gobIndex{Name: ix.name, Cols: ix.cols, Unique: ix.unique})
		}
		gt.RowIDs = make([]int64, 0, t.rows.Len())
		gt.Rows = make([][]gobValue, 0, t.rows.Len())
		t.rows.Ascend(func(rowid int64, row Row) bool {
			gt.RowIDs = append(gt.RowIDs, rowid)
			gr := make([]gobValue, len(row))
			for c, v := range row {
				gr[c] = toGob(v)
			}
			gt.Rows = append(gt.Rows, gr)
			return true
		})
		snap.Tables = append(snap.Tables, gt)
	}
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(&snap); err != nil {
		return fmt.Errorf("sqldb: encode snapshot: %w", err)
	}
	return bw.Flush()
}

// LoadSnapshot rebuilds a database from a Dump stream. It must be called on
// a database whose tables do not collide with the snapshot's (typically a
// fresh one). Nothing in the stream is trusted: a table whose rows and
// rowids disagree in number, whose rowids do not strictly ascend or pass
// NextRow, whose rows are not full width or break a UNIQUE index is a
// descriptive error, and any error leaves the previous root untouched.
//
// Indexes are not in the stream; they are rebuilt from the rows, in bulk:
// the row store comes straight from the rowid-ordered rows, and each index
// sorts one entry per row and builds its tree bottom-up (index.build), a
// table's indexes side by side on as many goroutines as GOMAXPROCS allows.
// Each table's decoded rows are let go as soon as the table is built, so the
// load never holds two full copies of the database.
func (db *DB) LoadSnapshot(r io.Reader) error {
	var snap gobSnapshot
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&snap); err != nil {
		return fmt.Errorf("sqldb: decode snapshot: %w", err)
	}
	if snap.Version < legacySnapshotVersion || snap.Version > snapshotVersion {
		return fmt.Errorf("sqldb: snapshot version %d, want %d..%d",
			snap.Version, legacySnapshotVersion, snapshotVersion)
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	base := db.root.Load()
	work := &dbRoot{
		epoch:   base.epoch + 1,
		lsn:     max(base.lsn, snap.LSN),
		tables:  maps.Clone(base.tables),
		indexes: maps.Clone(base.indexes),
	}
	for _, gt := range snap.Tables {
		if _, exists := work.tables[gt.Name]; exists {
			return fmt.Errorf("sqldb: snapshot table %q already exists", gt.Name)
		}
	}
	for i := range snap.Tables {
		gt := &snap.Tables[i]
		t, err := loadTable(gt, snap.Version)
		if err != nil {
			return err
		}
		gt.RowIDs, gt.Rows = nil, nil
		for _, ix := range t.indexes {
			work.indexes[ix.name] = ix
		}
		work.tables[t.name] = t
	}
	// Publish the rebuilt state atomically; an error above leaves the
	// previous root untouched (the partially built work root is discarded).
	db.root.Store(work)
	return nil
}

// loadTable validates one snapshot table and builds its row store and
// indexes. It empties gt.Rows as it converts them.
func loadTable(gt *gobTable, version int) (*table, error) {
	if len(gt.Rows) != len(gt.RowIDs) {
		return nil, fmt.Errorf("sqldb: snapshot table %q has %d rowids for %d rows",
			gt.Name, len(gt.RowIDs), len(gt.Rows))
	}
	t := &table{
		name:    gt.Name,
		cols:    gt.Cols,
		colPos:  make(map[string]int, len(gt.Cols)),
		nextRow: gt.NextRow,
		autoInc: gt.AutoInc,
	}
	for i, c := range gt.Cols {
		t.colPos[c.Name] = i
	}
	for _, gi := range gt.Indexes {
		for _, c := range gi.Cols {
			if c < 0 || c >= len(gt.Cols) {
				return nil, fmt.Errorf("sqldb: snapshot index %q references column %d of %q",
					gi.Name, c, gt.Name)
			}
		}
		t.indexes = append(t.indexes, newIndex(gi.Name, t, gi.Cols, gi.Unique))
	}
	rows := make([]Row, len(gt.Rows))
	for i, gr := range gt.Rows {
		if i > 0 && gt.RowIDs[i] <= gt.RowIDs[i-1] {
			return nil, fmt.Errorf("sqldb: snapshot table %q: rowid %d follows %d, want strictly ascending",
				gt.Name, gt.RowIDs[i], gt.RowIDs[i-1])
		}
		if len(gr) != len(gt.Cols) {
			return nil, fmt.Errorf("sqldb: snapshot row width %d in table %q with %d columns",
				len(gr), gt.Name, len(gt.Cols))
		}
		row := make(Row, len(gr))
		for c, gv := range gr {
			row[c] = fromGob(gv, version)
		}
		rows[i] = row
		gt.Rows[i] = nil
	}
	if n := len(gt.RowIDs); n > 0 && gt.NextRow < gt.RowIDs[n-1] {
		return nil, fmt.Errorf("sqldb: snapshot table %q: next rowid %d is below stored rowid %d",
			gt.Name, gt.NextRow, gt.RowIDs[n-1])
	}
	t.rows = btree.FromSorted(btree.DefaultDegree, rowidLess, gt.RowIDs, rows)

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
				entries[j] = entryOf(gt.RowIDs[j], row)
			}
			errs[i] = ix.build(entries)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sqldb: snapshot table %q: %w", gt.Name, err)
		}
	}
	return t, nil
}
