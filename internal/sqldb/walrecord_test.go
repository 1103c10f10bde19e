package sqldb

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

// Catalog-shaped redo streams. The texts and argument lists are those the
// catalog logs (internal/core); the streams repeat them in the proportions
// of the benchmark's ingest and mixed workloads.

const (
	shapeInsFile = "INSERT INTO logical_file\n\t\t(name, version, data_type, valid, collection_id, container_id,\n\t\t container_service, master_copy, creator, last_modifier, created, modified, audited)\n\t\tVALUES (?, ?, ?, TRUE, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
	shapeInsAttr = "INSERT INTO user_attribute (object_type, object_id, attr_id, %s) VALUES (?, ?, ?, ?)"
	shapeDelAttr = "DELETE FROM user_attribute WHERE object_type = ? AND object_id = ? AND attr_id = ?"
	shapeDN      = "/O=Grid/OU=Bench/CN=loader"
)

// shapeDeleteFile is a deleteFile's statements after the file row itself.
var shapeDeleteFile = []string{
	"DELETE FROM user_attribute WHERE object_type = ? AND object_id = ?",
	"DELETE FROM annotation WHERE object_type = ? AND object_id = ?",
	"DELETE FROM acl WHERE object_type = ? AND object_id = ?",
	"DELETE FROM view_member WHERE object_type = ? AND object_id = ?",
}

// shapeAttr is the insert of attribute a (1-based) of file id, cycling the
// benchmark's string, string, float, int, datetime attribute types.
func shapeAttr(id int64, a int) redoStmt {
	var col string
	var v Value
	switch (a - 1) % 5 {
	case 0, 1:
		col, v = "sval", Text(fmt.Sprintf("s%02d-%04d", a-1, id%10000))
	case 2:
		col, v = "fval", Float(float64(id)+0.5)
	case 3:
		col, v = "ival", Int(id*100000+int64(a))
	default:
		col, v = "tval", Time(time.Unix(1068854400+60*id, 0))
	}
	return redoStmt{sql: fmt.Sprintf(shapeInsAttr, col), args: []Value{Text("file"), Int(id), Int(int64(a)), v}}
}

// shapeCreate is a createFile with ten attributes.
func shapeCreate(id int64) []redoStmt {
	at := Time(time.Unix(1792217938, 0))
	stmts := []redoStmt{{sql: shapeInsFile, args: []Value{
		Text(fmt.Sprintf("replay-%d", id)), Int(1), Text("binary"), Null(), Text(""), Text(""), Text(""),
		Text(shapeDN), Text(shapeDN), at, at, Bool(false)}}}
	for a := 1; a <= 10; a++ {
		stmts = append(stmts, shapeAttr(id, a))
	}
	return stmts
}

// shapeSetAttribute replaces one attribute of file id.
func shapeSetAttribute(id int64) []redoStmt {
	return []redoStmt{
		{sql: shapeDelAttr, args: []Value{Text("file"), Int(id), Int(1)}},
		shapeAttr(id+1, 1),
	}
}

// shapeDelete is a deleteFile of file id.
func shapeDelete(id int64) []redoStmt {
	stmts := []redoStmt{{sql: "DELETE FROM logical_file WHERE id = ?", args: []Value{Int(id)}}}
	for _, sql := range shapeDeleteFile {
		stmts = append(stmts, redoStmt{sql: sql, args: []Value{Text("file"), Int(id)}})
	}
	return append(stmts, redoStmt{sql: "DELETE FROM provenance WHERE file_id = ?", args: []Value{Int(id)}})
}

// shapeBatch is a batchWrite of n createFiles.
func shapeBatch(id int64, n int) []redoStmt {
	var stmts []redoStmt
	for i := range int64(n) {
		stmts = append(stmts, shapeCreate(id+i)...)
	}
	return stmts
}

// shapeIngest is the ingest workload's log: per cycle one 100-file batch,
// twenty single creates, one setAttribute and one delete.
func shapeIngest(cycles int) [][]redoStmt {
	var recs [][]redoStmt
	id := int64(20000)
	for c := range int64(cycles) {
		recs = append(recs, shapeBatch(id, 100))
		id += 100
		for range 20 {
			recs = append(recs, shapeCreate(id))
			id++
		}
		recs = append(recs, shapeSetAttribute(id-1), shapeDelete(c+1))
	}
	return recs
}

// shapeMixed is the mixed workload's log: half creates, three tenths
// setAttributes, the rest deletes, one commit each.
func shapeMixed(records int) [][]redoStmt {
	var recs [][]redoStmt
	id := int64(20000)
	for i := range records {
		switch i % 10 {
		case 0, 2, 4, 6, 8:
			recs = append(recs, shapeCreate(id))
			id++
		case 1, 5, 9:
			recs = append(recs, shapeSetAttribute(id-1))
		default:
			recs = append(recs, shapeDelete(int64(i)))
		}
	}
	return recs
}

// BenchmarkWALEncode encodes the ingest- and mixed-shaped streams through
// one log file's dictionary, as the live log does between two rotations,
// and reports the encode time and the log bytes per record.
func BenchmarkWALEncode(b *testing.B) {
	for _, tc := range []struct {
		name string
		recs [][]redoStmt
	}{{"ingest", shapeIngest(4)}, {"mixed", shapeMixed(400)}} {
		b.Run(tc.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for range b.N {
				var enc walEncoder
				buf = buf[:0]
				for i, stmts := range tc.recs {
					buf = enc.encode(buf, uint64(i+1), stmts)
				}
			}
			n := float64(b.N * len(tc.recs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
			b.ReportMetric(float64(len(buf))/float64(len(tc.recs)), "B/record")
		})
	}
}

// fuzzDict builds a starting dictionary from texts separated by NUL bytes;
// empty and repeated texts define nothing, as no log can define them.
func fuzzDict(texts string) walDict {
	var d walDict
	for _, s := range strings.Split(texts, "\x00") {
		if _, ok := d.ids[s]; s != "" && !ok {
			d.define(s)
		}
	}
	return d
}

// FuzzWALRecord decodes arbitrary payloads against arbitrary starting
// dictionaries. No input may panic; a refused record leaves the dictionary
// as it was; an accepted one, re-encoded from the same starting dictionary,
// decodes to the same statements and makes the same definitions.
func FuzzWALRecord(f *testing.F) {
	known := strings.Join([]string{shapeInsFile, fmt.Sprintf(shapeInsAttr, "sval"), shapeDelAttr}, "\x00")
	seed := func(texts string, stmts []redoStmt) {
		enc := walEncoder{dict: fuzzDict(texts)}
		f.Add(texts, enc.encode(nil, 9, stmts)[frameHeaderSize:])
	}
	for _, texts := range []string{"", known} {
		seed(texts, shapeBatch(1, 3))
		seed(texts, shapeCreate(7))
		seed(texts, shapeSetAttribute(7))
		seed(texts, shapeDelete(7))
		seed(texts, []redoStmt{{sql: "CREATE TABLE wal_probe (k TEXT NOT NULL UNIQUE, v INTEGER)"}})
	}
	// A record as logs before the dictionary wrote it: texts in full, and a
	// repeat as a back-reference to an earlier statement of the record.
	legacy := binary.BigEndian.AppendUint64(nil, 3)
	legacy = append(legacy, 3)
	legacy = appendString(legacy, shapeDelAttr)
	legacy = append(legacy, 3, walTagText, 4, 'f', 'i', 'l', 'e', walTagInt, 2, walTagInt, 4)
	legacy = append(legacy, 0, 0, 3, walTagText, 4, 'f', 'i', 'l', 'e', walTagInt, 4, walTagInt, 4)
	legacy = append(legacy, 0, 1, 3, walTagText, 4, 'f', 'i', 'l', 'e', walTagInt, 6, walTagInt, 4)
	f.Add("", legacy)
	// Out of range: dictionary id 3 of 3, and text argument 1 of 1.
	f.Add(known, append(binary.BigEndian.AppendUint64(nil, 4), 1, 0, 3, 0))
	f.Add("", append(binary.BigEndian.AppendUint64(nil, 5), 1, 1, 'x', 2, walTagText, 1, 'y', walTagTextRef, 1))

	f.Fuzz(func(t *testing.T, texts string, payload []byte) {
		start := fuzzDict(texts)
		dict := fuzzDict(texts)
		lsn, stmts, err := decodeWALRecord(&dict, payload)
		if err != nil {
			if !slices.Equal(dict.texts, start.texts) || !maps.Equal(dict.ids, start.ids) {
				t.Fatalf("a refused record (%v) changed the dictionary", err)
			}
			return
		}
		enc := walEncoder{dict: fuzzDict(texts)}
		again := fuzzDict(texts)
		lsn2, stmts2, err := decodeWALRecord(&again, enc.encode(nil, lsn, stmts)[frameHeaderSize:])
		if err != nil {
			t.Fatalf("the re-encoded record is refused: %v", err)
		}
		if lsn2 != lsn || len(stmts2) != len(stmts) {
			t.Fatalf("re-encoded: lsn %d, %d statements; want lsn %d, %d", lsn2, len(stmts2), lsn, len(stmts))
		}
		for i := range stmts {
			if stmts2[i].sql != stmts[i].sql || !slices.Equal(stmts2[i].args, stmts[i].args) {
				t.Fatalf("statement %d re-decoded to %q %v, want %q %v", i, stmts2[i].sql, stmts2[i].args, stmts[i].sql, stmts[i].args)
			}
		}
		if !slices.Equal(dict.texts, again.texts) || !slices.Equal(enc.dict.texts, again.texts) {
			t.Fatalf("the dictionaries disagree: decoded %d texts, re-encoded %d, re-decoded %d",
				len(dict.texts), len(enc.dict.texts), len(again.texts))
		}
	})
}
