package sqldb

import (
	"encoding/gob"
	"fmt"
	"io"
)

// The one legacy reader: generation 2 of the snapshot stream, a single gob
// value holding every table, as every build before the framed stream wrote
// it. LoadSnapshot falls back to it for a stream without the framed header,
// so an existing snapshot file boots and the next checkpoint rewrites it in
// the framed format. Nothing writes gob any more; once no deployment has a
// file older than its first checkpoint under this build, this file — and
// with it the engine's only use of encoding/gob — can be deleted whole.

// gobValue is a cell as generation 2 wrote it: the Value fields verbatim.
type gobValue struct {
	T Type
	N int64
	S string
}

type gobTable struct {
	Name    string
	Cols    []ColumnDef
	Indexes []struct {
		Name   string
		Cols   []int
		Unique bool
	}
	NextRow int64
	AutoInc int64
	RowIDs  []int64
	Rows    [][]gobValue
}

type gobSnapshot struct {
	Version int
	LSN     uint64
	Tables  []gobTable
}

// readLegacySnapshot decodes a generation-2 gob stream and builds its tables
// through the same tableLoader, and so the same checks, as the framed reader.
func readLegacySnapshot(r io.Reader) (lsn uint64, tables []*table, err error) {
	var snap gobSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return 0, nil, fmt.Errorf("sqldb: snapshot: frame at offset 0: no snapshot header, nor is the stream a version-2 gob snapshot: %w", err)
	}
	if snap.Version != 2 {
		return 0, nil, fmt.Errorf("sqldb: snapshot: gob stream of format version %d; only version 2 is still read (version 1 files must be booted and checkpointed by a build that reads them)", snap.Version)
	}
	for i := range snap.Tables {
		t, err := loadLegacyTable(&snap.Tables[i])
		if err != nil {
			return 0, nil, fmt.Errorf("sqldb: snapshot: %w", err)
		}
		tables = append(tables, t)
	}
	return snap.LSN, tables, nil
}

func loadLegacyTable(gt *gobTable) (*table, error) {
	if len(gt.Rows) != len(gt.RowIDs) {
		return nil, fmt.Errorf("table %q has %d rowids for %d rows", gt.Name, len(gt.RowIDs), len(gt.Rows))
	}
	l := newTableLoader(gt.Name, gt.Cols)
	l.t.nextRow, l.t.autoInc, l.want = gt.NextRow, gt.AutoInc, uint64(len(gt.Rows))
	for _, gi := range gt.Indexes {
		if err := l.addIndex(gi.Name, gi.Cols, gi.Unique); err != nil {
			return nil, err
		}
	}
	for j, gr := range gt.Rows {
		row := make(Row, len(gr))
		for c, gv := range gr {
			row[c] = Value{T: gv.T, N: gv.N, S: Intern(gv.S)}
		}
		if err := l.add(gt.RowIDs[j], row); err != nil {
			return nil, err
		}
		gt.Rows[j] = nil // the decoded copy is let go row by row
	}
	return l.build()
}
