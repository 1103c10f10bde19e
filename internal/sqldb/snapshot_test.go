package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX files_size ON files (size)")
	base := time.Date(2003, 11, 15, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 500; i++ {
		mustExec(t, db, "INSERT INTO files (name, size, score, valid, created) VALUES (?, ?, ?, ?, ?)",
			Text(strings.Repeat("f", 1+i%7)+Int(int64(i)).String()),
			Int(int64(i)), Float(float64(i)/3), Bool(i%2 == 0), Time(base.Add(time.Duration(i)*time.Hour)))
	}
	mustExec(t, db, "DELETE FROM files WHERE size = 250") // leave a rowid hole

	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Same row count.
	n1, _ := db.RowCount("files")
	n2, _ := db2.RowCount("files")
	if n1 != n2 || n2 != 499 {
		t.Fatalf("counts: %d vs %d", n1, n2)
	}
	// Indexed lookups work (indexes rebuilt).
	rows := mustQuery(t, db2, "SELECT name, score, created FROM files WHERE size = ?", Int(123))
	if len(rows.Data) != 1 {
		t.Fatalf("indexed lookup = %v", rows.Data)
	}
	if rows.Data[0][1].Float() != 41 || rows.Data[0][2].Time().Hour() != (9+123)%24 {
		t.Fatalf("values = %v", rows.Data[0])
	}
	// Unique constraints still enforced.
	name := rows.Data[0][0].S
	if _, err := db2.Exec("INSERT INTO files (name) VALUES (?)", Text(name)); err == nil {
		t.Fatal("unique constraint lost across snapshot")
	}
	// Autoincrement continues past the old values.
	res, err := db2.Exec("INSERT INTO files (name) VALUES (?)", Text("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	// 500 rows were inserted pre-snapshot, so the next id is 501. The failed
	// unique insert above burns nothing: under MVCC a failed statement's
	// shadow state — autoincrement bump included — is discarded wholesale.
	if res.LastInsertID != 501 {
		t.Fatalf("autoinc after restore = %d, want 501", res.LastInsertID)
	}
	// Deleted row stays deleted.
	rows = mustQuery(t, db2, "SELECT id FROM files WHERE size = 250")
	if len(rows.Data) != 0 {
		t.Fatal("deleted row resurrected")
	}
}

func TestSnapshotEmptyDatabase(t *testing.T) {
	db := New()
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if tables := db2.root.Load().tables; len(tables) != 0 {
		t.Fatalf("tables = %v", tables)
	}
}

func TestSnapshotCollisionRejected(t *testing.T) {
	db := newTestDB(t)
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	// Loading into a database that already has the table fails cleanly.
	if err := db.LoadSnapshot(&buf); err == nil {
		t.Fatal("colliding load succeeded")
	}
}

func TestSnapshotGarbageRejected(t *testing.T) {
	db := New()
	if err := db.LoadSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

func TestSnapshotNullsPreserved(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (1, ?), (?, ?)", Null(), Null(), Text("x"))
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db2, "SELECT a, b FROM t")
	if len(rows.Data) != 2 || rows.Data[0][0] != Int(1) || !rows.Data[0][1].IsNull() ||
		!rows.Data[1][0].IsNull() || rows.Data[1][1] != Text("x") {
		t.Fatalf("rows = %v, want [1 NULL] [NULL x]", rows.Data)
	}
}

// snapStream hand-frames a snapshot stream, field by field, the way Dump lays
// it out. It is deliberately independent of the writer under test: the
// malformed-stream cases need frames no Dump would produce, each with a valid
// CRC, and TestSnapshotFormatPinned holds the two encoders to the same bytes.
type snapStream struct {
	buf bytes.Buffer
}

type snapIndex struct {
	name   string
	cols   []int
	unique bool
}

func (s *snapStream) frame(kind byte, body []byte) {
	payload := append([]byte{kind}, body...)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	s.buf.Write(hdr[:])
	s.buf.Write(payload)
}

func (s *snapStream) header(lsn uint64) {
	body := binary.AppendUvarint([]byte("MCSSNAP"), 3)
	s.frame(1, binary.AppendUvarint(body, lsn))
}

func (s *snapStream) table(name string, cols []ColumnDef, indexes []snapIndex, nextRow, autoInc int64, rows uint64) {
	str := func(b []byte, v string) []byte { return append(binary.AppendUvarint(b, uint64(len(v))), v...) }
	body := binary.AppendUvarint(str(nil, name), uint64(len(cols)))
	for _, c := range cols {
		body = str(body, c.Name)
		// The type: the value codec's tag for it, then its zero payload.
		switch c.Type {
		case TypeInt:
			body = append(body, walTagInt, 0)
		case TypeFloat:
			body = append(body, walTagFloat, 0, 0, 0, 0, 0, 0, 0, 0)
		case TypeText:
			body = append(body, walTagText, 0)
		case TypeBool:
			body = append(body, walTagBool, 0)
		case TypeTime:
			body = append(body, walTagTimeSec, 0)
		case TypeNull:
			body = append(body, walTagNull)
		}
		for _, flag := range []bool{c.NotNull, c.PrimaryKey, c.AutoIncrement, c.Unique} {
			body = append(body, walTagBool, 0)
			if flag {
				body[len(body)-1] = 1
			}
		}
	}
	body = binary.AppendUvarint(body, uint64(len(indexes)))
	for _, ix := range indexes {
		body = str(body, ix.name)
		body = append(body, walTagBool, 0)
		if ix.unique {
			body[len(body)-1] = 1
		}
		body = binary.AppendUvarint(body, uint64(len(ix.cols)))
		for _, c := range ix.cols {
			body = binary.AppendUvarint(body, uint64(c))
		}
	}
	body = binary.AppendVarint(body, nextRow)
	body = binary.AppendVarint(body, autoInc)
	s.frame(2, binary.AppendUvarint(body, rows))
}

// rows writes one rows frame: deltas[i] then the values of rows[i]. The first
// delta counts from 0.
func (s *snapStream) rows(deltas []uint64, rows ...[]Value) {
	var body []byte
	for i, row := range rows {
		body = binary.AppendUvarint(body, deltas[i])
		for _, v := range row {
			body = encodeWALValue(body, v)
		}
	}
	s.frame(3, body)
}

func (s *snapStream) trailer(tables, rows uint64) {
	s.frame(4, binary.AppendUvarint(binary.AppendUvarint(nil, tables), rows))
}

// TestSnapshotFormatPinned holds Dump to the documented layout: the
// hand-framed stream and the dumped one are the same bytes.
func TestSnapshotFormatPinned(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL UNIQUE, at DATETIME, ok BOOLEAN, x FLOAT)")
	mustExec(t, db, "CREATE INDEX a_at ON a (at, ok)")
	mustExec(t, db, "CREATE TABLE b (v INTEGER)")
	at := time.Date(2003, 11, 15, 9, 30, 0, 250_000_000, time.UTC)
	mustExec(t, db, "INSERT INTO a (name, at, ok, x) VALUES (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?)",
		Text("one"), Time(at), Bool(true), Float(0.5), Text("two"), Null(), Null(), Null(),
		Text("three"), Time(at.Truncate(time.Second)), Bool(false), Float(-2))
	mustExec(t, db, "DELETE FROM a WHERE name = ?", Text("two"))

	var want snapStream
	want.header(0)
	want.table("a", []ColumnDef{
		{Name: "id", Type: TypeInt, PrimaryKey: true, AutoIncrement: true, NotNull: true},
		{Name: "name", Type: TypeText, NotNull: true, Unique: true},
		{Name: "at", Type: TypeTime}, {Name: "ok", Type: TypeBool}, {Name: "x", Type: TypeFloat},
	}, indexesOf(t, db, "a"), 3, 3, 2)
	want.rows([]uint64{1, 2},
		[]Value{Int(1), Text("one"), Time(at), Bool(true), Float(0.5)},
		[]Value{Int(3), Text("three"), Time(at.Truncate(time.Second)), Bool(false), Float(-2)})
	want.table("b", []ColumnDef{{Name: "v", Type: TypeInt}}, nil, 0, 0, 0)
	want.trailer(2, 2)
	if got := dumpBytes(t, db); !bytes.Equal(got, want.buf.Bytes()) {
		t.Fatalf("Dump wrote\n%q\nthe documented layout is\n%q", got, want.buf.Bytes())
	}
}

// indexesOf lists a table's index definitions in stored order.
func indexesOf(t *testing.T, db *DB, name string) []snapIndex {
	t.Helper()
	var out []snapIndex
	for _, ix := range db.root.Load().tables[name].indexes {
		out = append(out, snapIndex{ix.name, ix.cols, ix.unique})
	}
	return out
}

// loadRefused loads a bad stream into a database that already holds a table
// and requires a descriptive error, no panic and no new root.
func loadRefused(t *testing.T, stream []byte, want string) {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE keep (a INTEGER)")
	before, epoch := db.root.Load(), db.Epoch()
	err := db.LoadSnapshot(bytes.NewReader(stream))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadSnapshot error = %v, want one mentioning %q", err, want)
	}
	if db.root.Load() != before || db.Epoch() != epoch {
		t.Fatal("a rejected snapshot replaced the root")
	}
}

// TestLoadSnapshotRejectsMalformedStreams: LoadSnapshot trusts nothing in
// its input. Each case is a hand-framed stream, every CRC valid, broken in
// one structural way; every one must come back as an error naming the frame
// — not a panic, not a silent last-writer-wins — and leave the database
// exactly as it was.
func TestLoadSnapshotRejectsMalformedStreams(t *testing.T) {
	cols := []ColumnDef{{Name: "id", Type: TypeInt, NotNull: true}, {Name: "name", Type: TypeText}}
	row := func(id int64, name string) []Value { return []Value{Int(id), Text(name)} }
	// spec is one table of three rows; the cases bend one field each.
	type spec struct {
		cols    []ColumnDef
		ixCols  []int
		nextRow int64
		count   uint64
		deltas  []uint64
		rows    [][]Value
	}
	valid := func() spec {
		return spec{cols: slices.Clone(cols), ixCols: []int{1}, nextRow: 3, count: 3, deltas: []uint64{1, 1, 1},
			rows: [][]Value{row(1, "a"), row(2, "b"), row(3, "c")}}
	}
	build := func(sp spec) []byte {
		var s snapStream
		s.header(9)
		// A good table ahead of the bad one: the error must discard it too.
		s.table("g", cols, []snapIndex{{"g_name", []int{1}, true}}, 3, 0, 3)
		s.rows([]uint64{1, 1, 1}, row(1, "a"), row(2, "b"), row(3, "c"))
		s.table("t", sp.cols, []snapIndex{{"t_name", sp.ixCols, true}}, sp.nextRow, 0, sp.count)
		s.rows(sp.deltas, sp.rows...)
		s.trailer(2, 3+uint64(len(sp.rows)))
		return s.buf.Bytes()
	}
	cases := []struct {
		name    string
		breakIt func(sp *spec)
		want    string // substring of the error
	}{
		{"fewer rows than promised", func(sp *spec) { sp.rows = sp.rows[:2] }, `"t" has 2 rows, its definition promised 3`},
		{"more rows than promised", func(sp *spec) { sp.count = 1 }, `"t" has 3 rows, its definition promised 1`},
		{"repeated rowid", func(sp *spec) { sp.deltas[2] = 0 }, "rowid 2 follows 2, want strictly ascending"},
		{"rowid past int64", func(sp *spec) { sp.deltas[1] = 1 << 63; sp.deltas[2] = 1 << 63 }, "want strictly ascending"},
		{"nextRow below the largest rowid", func(sp *spec) { sp.nextRow = 2 }, "next rowid 2 is below stored rowid 3"},
		{"short row", func(sp *spec) { sp.rows[2] = sp.rows[2][:1] }, `table "t", row after rowid 2`},
		{"UNIQUE violated", func(sp *spec) { sp.rows[2] = row(3, "a") }, `UNIQUE constraint "t_name"`},
		{"index column out of range", func(sp *spec) { sp.ixCols = []int{2} }, "references column 2"},
		{"index without columns", func(sp *spec) { sp.ixCols = nil }, "has no columns"},
		// Every cell is NULL or of its column's type, which the index build's
		// key words rely on.
		{"TEXT in an INTEGER column", func(sp *spec) { sp.rows[2][0] = Text("3") }, `rowid 3: TEXT value in INTEGER column "id"`},
		{"INTEGER in a TEXT column", func(sp *spec) { sp.rows[1][1] = Int(7) }, `rowid 2: INTEGER value in TEXT column "name"`},
		{"NULL in a NOT NULL column", func(sp *spec) { sp.rows[0][0] = Null() }, `rowid 1: NULL in NOT NULL column "id"`},
		{"column declared NULL", func(sp *spec) { sp.cols[1].Type = TypeNull }, `column "name" is declared NULL`},
		{"NaN", func(sp *spec) {
			sp.cols[1].Type = TypeFloat
			sp.rows[0][1], sp.rows[1][1], sp.rows[2][1] = Float(1), Float(math.Inf(-1)), Float(math.NaN())
		}, `rowid 3: NaN in column "name"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := valid()
			tc.breakIt(&sp)
			loadRefused(t, build(sp), tc.want)
			loadRefused(t, build(sp), "frame at offset")
		})
	}
	t.Run("trailer totals", func(t *testing.T) {
		stream := build(valid())
		var s snapStream
		s.trailer(2, 7)
		loadRefused(t, append(stream[:len(stream)-s.buf.Len()], s.buf.Bytes()...), "trailer counts 2 tables and 7 rows, stream held 2 and 6")
	})
	t.Run("rows before any table", func(t *testing.T) {
		var s snapStream
		s.header(0)
		s.rows([]uint64{1}, row(1, "a"))
		s.trailer(0, 0)
		loadRefused(t, s.buf.Bytes(), "unexpected frame kind 3")
	})
	t.Run("unknown format version", func(t *testing.T) {
		var s snapStream
		s.frame(1, binary.AppendUvarint(binary.AppendUvarint([]byte("MCSSNAP"), 4), 0))
		s.trailer(0, 0)
		loadRefused(t, s.buf.Bytes(), "format version 4, want 3")
	})
	t.Run("same table twice", func(t *testing.T) {
		var s snapStream
		s.header(0)
		s.table("t", cols, nil, 0, 0, 0)
		s.table("t", cols, nil, 0, 0, 0)
		s.trailer(2, 0)
		loadRefused(t, s.buf.Bytes(), `table "t" already exists`)
	})

	// The unbroken stream loads, and NULL keys do not trip UNIQUE.
	sp := valid()
	sp.rows[1][1], sp.rows[2][1] = Null(), Null()
	db := New()
	if err := db.LoadSnapshot(bytes.NewReader(build(sp))); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	if n := mustQuery(t, db, "SELECT COUNT(*) FROM t").Data[0][0].Int(); n != 3 {
		t.Fatalf("loaded %d rows, want 3", n)
	}
	if db.LastLSN() != 9 {
		t.Fatalf("LSN after load = %d, want the stream's 9", db.LastLSN())
	}
}

// smallSnapshot is the damage corpus's subject: two tables, one of them
// spread over several rows frames, with its frames' offsets.
func smallSnapshot(t *testing.T) (stream []byte, offsets []int) {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE files (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL UNIQUE, size INTEGER, note TEXT)")
	mustExec(t, db, "CREATE INDEX files_size ON files (size)")
	mustExec(t, db, "CREATE TABLE tags (file INTEGER, tag TEXT)")
	for i := 0; i < 1200; i++ {
		mustExec(t, db, "INSERT INTO files (name, size, note) VALUES (?, ?, ?)",
			Text(fmt.Sprintf("lfn-%04d", i)), Int(int64(i%97)), Text(strings.Repeat("n", 40+i%30)))
		if i%100 == 0 {
			mustExec(t, db, "INSERT INTO tags (file, tag) VALUES (?, ?)", Int(int64(i)), Text("hot"))
		}
	}
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	stream = buf.Bytes()
	fr := frameReader{r: bytes.NewReader(stream)}
	for {
		if _, err := fr.next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("Dump wrote a stream its own frame reader refuses: %v", err)
		}
		offsets = append(offsets, int(fr.off))
	}
	// header, files + 3 rows frames, tags + 1 rows frame, trailer.
	if len(offsets) < 8 {
		t.Fatalf("corpus stream has %d frames, want several rows frames", len(offsets))
	}
	return stream, offsets
}

// TestLoadSnapshotRefusesDamage is the byte-level corpus: a stream cut,
// flipped, shortened, repeated or reordered anywhere is refused with the
// offset of the frame where the damage shows, never a panic, never a root.
func TestLoadSnapshotRefusesDamage(t *testing.T) {
	stream, offsets := smallSnapshot(t)
	frameAt := func(pos int) int { // offset of the frame holding byte pos
		at := 0
		for _, off := range offsets {
			if off <= pos {
				at = off
			}
		}
		return at
	}
	offset := func(off int) string { return fmt.Sprintf("frame at offset %d:", off) }
	frame := func(i int) []byte {
		end := len(stream)
		if i+1 < len(offsets) {
			end = offsets[i+1]
		}
		return stream[offsets[i]:end]
	}
	splice := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	last := len(offsets) - 1

	t.Run("cut at every frame boundary", func(t *testing.T) {
		for _, off := range offsets {
			loadRefused(t, stream[:off], offset(off))
		}
	})
	t.Run("cut at every byte of the last two frames", func(t *testing.T) {
		for cut := offsets[last-1] + 1; cut < len(stream); cut++ {
			if cut == offsets[last] {
				continue // a frame boundary, covered above
			}
			loadRefused(t, stream[:cut], offset(frameAt(cut)))
		}
	})
	t.Run("flip one byte inside every frame", func(t *testing.T) {
		for i, off := range offsets {
			size := len(frame(i))
			// The length, the checksum, the kind, and four spots across
			// the body.
			for _, pos := range []int{3, 6, 8, 9, 10 + (size-10)/3, 10 + 2*(size-10)/3, size - 1} {
				bad := bytes.Clone(stream)
				bad[off+pos] ^= 0x21
				loadRefused(t, bad, offset(off))
			}
		}
	})
	t.Run("drop the trailer", func(t *testing.T) {
		loadRefused(t, stream[:offsets[last]], "stream ends without a trailer")
	})
	// Without a rows frame the table comes up short; that shows when its
	// last rows frame has passed, at the next table frame.
	t.Run("drop a rows frame", func(t *testing.T) {
		loadRefused(t, splice(stream[:offsets[2]], stream[offsets[3]:]), offset(offsets[5]-len(frame(2))))
		loadRefused(t, splice(stream[:offsets[2]], stream[offsets[3]:]), `"files" has`)
	})
	t.Run("repeat a rows frame", func(t *testing.T) {
		loadRefused(t, splice(stream[:offsets[3]], frame(2), stream[offsets[3]:]), offset(offsets[3]))
	})
	t.Run("swap two rows frames", func(t *testing.T) {
		loadRefused(t, splice(stream[:offsets[2]], frame(3), frame(2), stream[offsets[4]:]), offset(offsets[2]+len(frame(3))))
	})
	t.Run("swap a table frame and a rows frame", func(t *testing.T) {
		loadRefused(t, splice(stream[:offsets[1]], frame(2), frame(1), stream[offsets[3]:]), offset(offsets[1]))
	})
	t.Run("bytes after the trailer", func(t *testing.T) {
		loadRefused(t, splice(stream, frame(last)), offset(len(stream)))
		loadRefused(t, splice(stream, []byte{0}), offset(len(stream)))
	})
	// Rows frames are decoded side by side and merged in order (see
	// rowsPipeline); the verdict must still name the earliest bad frame.
	// Both streams are hand-framed: one table of many rows frames.
	cols := []ColumnDef{{Name: "id", Type: TypeInt, NotNull: true}, {Name: "name", Type: TypeText}}
	framed := func(bad func(frame, row int) (delta uint64, name Value)) (stream []byte, offsets []int) {
		const frames, per = 40, 200
		var s snapStream
		s.header(1)
		s.table("t", cols, []snapIndex{{"t_name", []int{1}, false}}, frames*per, 0, frames*per)
		for f := 0; f < frames; f++ {
			offsets = append(offsets, s.buf.Len())
			deltas, rows := make([]uint64, per), make([][]Value, per)
			for r := range rows {
				deltas[r], rows[r] = 1, []Value{Int(int64(f*per + r + 1)), Text(fmt.Sprintf("n%d", f*per+r))}
				if d, name := bad(f, r); name.T != TypeNull || d != 1 {
					deltas[r], rows[r][1] = d, name
				}
			}
			deltas[0] = uint64(f*per + 1) // a frame's first rowid is absolute
			if d, _ := bad(f, 0); d != 1 {
				deltas[0] = d
			}
			s.rows(deltas, rows...)
		}
		s.trailer(1, frames*per)
		return s.buf.Bytes(), offsets
	}
	t.Run("rowids fall back across a frame boundary", func(t *testing.T) {
		stream, offsets := framed(func(f, r int) (uint64, Value) {
			if f == 17 && r == 0 {
				return uint64(17*200 - 5), Null() // below frame 16's last rowid
			}
			return 1, Null()
		})
		loadRefused(t, stream, offset(offsets[17]))
		loadRefused(t, stream, "rowid 3395 follows 3400")
	})
	t.Run("two bad frames, the later one decoded first", func(t *testing.T) {
		// Frame 5's bad cell is its last row, frame 30's its first: a
		// worker finds frame 30's long before frame 5's is done.
		stream, offsets := framed(func(f, r int) (uint64, Value) {
			if (f == 5 && r == 199) || (f == 30 && r == 0) {
				return 1, Int(7) // an INTEGER in a TEXT column
			}
			return 1, Null()
		})
		for range 20 {
			loadRefused(t, stream, offset(offsets[5]))
		}
		loadRefused(t, stream, "rowid 1200: INTEGER value in TEXT column")
		// Damage the CRC of a frame after the bad rows: still frame 5.
		bad := bytes.Clone(stream)
		bad[offsets[31]+5] ^= 1
		loadRefused(t, bad, offset(offsets[5]))
	})

	// And the undamaged stream still loads.
	if err := New().LoadSnapshot(bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRedumpIsByteIdentical: Dump → LoadSnapshot → Dump reproduces
// the stream exactly, on the planner-parity suite's random schemas (random
// tables, indexes, NULLs) — what is on disk determines the database, and the
// database what is on disk.
func TestSnapshotRedumpIsByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		db, _, _ := buildParityDB(t, rand.New(rand.NewSource(seed)))
		first := dumpBytes(t, db)
		db2 := New()
		if err := db2.LoadSnapshot(bytes.NewReader(first)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if second := dumpBytes(t, db2); !bytes.Equal(first, second) {
			t.Fatalf("seed %d: the reloaded database dumps %d bytes that differ from the %d loaded", seed, len(second), len(first))
		}
	}
}

// FuzzLoadSnapshot feeds LoadSnapshot arbitrary bytes, seeded with a whole
// stream, a Dump of every value type, a catalog snapshot written before the
// INTEGER PRIMARY KEY was the rowid (testdata/parent_catalog.snap: _id_key
// indexes, explicit ids out of rowid order), the opening of a gob-era
// snapshot and one stream from each family of damage.
// Whatever comes in, it must not panic; a refusal must leave the root alone;
// and a stream it accepts must survive its own Dump → LoadSnapshot → Dump.
func FuzzLoadSnapshot(f *testing.F) {
	var s snapStream
	s.header(3)
	s.table("t", []ColumnDef{{Name: "id", Type: TypeInt}, {Name: "name", Type: TypeText}},
		[]snapIndex{{"t_name", []int{1}, true}}, 2, 0, 2)
	s.rows([]uint64{1, 1}, []Value{Int(1), Text("a")}, []Value{Int(2), Null()})
	s.trailer(1, 2)
	whole := s.buf.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)-11])                                // no trailer
	f.Add(append(bytes.Clone(whole), whole[len(whole)-11:]...)) // two trailers
	flipped := bytes.Clone(whole)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append(bytes.Clone(whole[:len(whole)-11]), whole[:len(whole)-11]...)) // the stream twice, untrailed
	f.Add([]byte("8\x7f\x03\x01\x01\vgobSnapshot\x01\xff\x80\x00\x01\x03\x01"))
	db := New()
	if _, err := db.Exec("CREATE TABLE v (i INTEGER UNIQUE, f FLOAT, s TEXT, b BOOLEAN, at DATETIME)"); err != nil {
		f.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO v (i, f, s, b, at) VALUES (?, ?, ?, TRUE, ?), (?, ?, ?, ?, ?)",
		Int(-1), Float(-0.5), Text("é"), TimeMicros(1), Null(), Null(), Null(), Null(), Null()); err != nil {
		f.Fatal(err)
	}
	var dump bytes.Buffer
	if err := db.Dump(&dump); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes())
	parent, err := os.ReadFile("testdata/parent_catalog.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		db := New()
		before := db.root.Load()
		if err := db.LoadSnapshot(bytes.NewReader(stream)); err != nil {
			if db.root.Load() != before {
				t.Fatalf("a rejected snapshot replaced the root (%v)", err)
			}
			return
		}
		first := dumpBytes(t, db)
		db2 := New()
		if err := db2.LoadSnapshot(bytes.NewReader(first)); err != nil {
			t.Fatalf("the dump of an accepted stream is refused: %v", err)
		}
		if second := dumpBytes(t, db2); !bytes.Equal(first, second) {
			t.Fatal("an accepted stream does not re-dump to the same bytes")
		}
	})
}

// TestLoadSnapshotRefusesTextBackReference: tag 7, the log record's text
// back-reference, is not part of the snapshot's value layout. A row cell
// carrying it is an unknown tag, refused like any other.
func TestLoadSnapshotRefusesTextBackReference(t *testing.T) {
	var s snapStream
	s.header(1)
	s.table("t", []ColumnDef{{Name: "a", Type: TypeText}, {Name: "b", Type: TypeText}}, nil, 1, 0, 1)
	s.frame(3, []byte{1, walTagText, 1, 'x', walTagTextRef, 0})
	s.trailer(1, 1)
	loadRefused(t, s.buf.Bytes(), "unknown value tag 7")
}
