package sqldb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The torn-write corpus: commit a handful of transactions through the
// engine, then simulate a crash mid-write by hard-cutting the log at every
// byte offset of the final record and recovering from the prefix. The
// recovery invariants under test:
//
//  1. No cut is fatal — recovery truncates the torn tail and proceeds.
//  2. No cut loses a commit older than the torn record.
//  3. No cut resurrects any part of the torn record: state is exactly the
//     state as of the last whole record.
//  4. The recovered log accepts new commits on a clean record boundary.

// walBootstrap applies the deterministic pre-WAL schema a fresh engine
// starts from (mirroring how the catalog's bootstrap DDL runs pre-attach).
func walBootstrap(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE kv (k TEXT NOT NULL, v INTEGER NOT NULL)")
	mustExec(t, db, "CREATE TABLE seq (id INTEGER AUTOINCREMENT, label TEXT NOT NULL)")
}

func TestWALTornWriteCorpus(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	walBootstrap(t, db)
	w, _ := openTestWAL(t, path, db, WALOptions{})

	// Commits of varying shapes so the final record's offsets sweep
	// through length, CRC, LSN, the runs of row changes, the log's kinds of
	// reference and its value types. The final record changes rows of both
	// tables by insert, update and delete; it names seq for the first time,
	// which defines a dictionary entry, refers to kv, which the earlier
	// records defined, and repeats a text value ("gamma", a tag-7
	// back-reference), so the cuts land inside each. The two padded texts
	// keep it at offsets 165–345, where it sat when the log recorded
	// statements, so the cut subtests keep their names.
	pad := func(s string, n int) string { return s + strings.Repeat(".", n-len(s)) }
	commits := [][]func(tx *Tx) error{
		{func(tx *Tx) error {
			_, err := tx.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", Text("alpha"), Int(1))
			return err
		}},
		{func(tx *Tx) error {
			_, err := tx.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", Text(pad("first — padded to the length that keeps the final record in place", 94)), Int(7))
			return err
		}, func(tx *Tx) error {
			_, err := tx.Exec("UPDATE kv SET v = ? WHERE k = ?", Int(2), Text("alpha"))
			return err
		}},
		{func(tx *Tx) error {
			_, err := tx.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", Text("beta"), Int(3))
			return err
		}, func(tx *Tx) error {
			_, err := tx.Exec("DELETE FROM kv WHERE k = ?", Text("alpha"))
			return err
		}, func(tx *Tx) error {
			_, err := tx.Exec("INSERT INTO seq (label) VALUES (?)", Text(pad("second — the final record, cut at every offset", 97)))
			return err
		}, func(tx *Tx) error {
			_, err := tx.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", Text("gamma"), Int(4))
			return err
		}, func(tx *Tx) error {
			_, err := tx.Exec("UPDATE kv SET v = ? WHERE k = ?", Int(5), Text("gamma"))
			return err
		}, func(tx *Tx) error {
			_, err := tx.Exec("INSERT INTO seq (label) VALUES (?)", Text("third"))
			return err
		}, func(tx *Tx) error {
			_, err := tx.Exec("DELETE FROM seq WHERE label = ?", Text("third"))
			return err
		}},
	}

	// states[i] is the dump after commit i; sizes[i] the durable log size.
	states := make([][]byte, 0, len(commits)+1)
	sizes := make([]int64, 0, len(commits)+1)
	snap := func() {
		var buf bytes.Buffer
		if err := db.Dump(&buf); err != nil {
			t.Fatalf("Dump: %v", err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("Stat: %v", err)
		}
		states = append(states, buf.Bytes())
		sizes = append(sizes, fi.Size())
	}
	snap() // state 0: bootstrap only, empty log
	for i, stmts := range commits {
		if err := db.Update(func(tx *Tx) error {
			for _, fn := range stmts {
				if err := fn(tx); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
		snap()
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if int64(len(whole)) != sizes[len(sizes)-1] {
		t.Fatalf("log size %d, recorded %d", len(whole), sizes[len(sizes)-1])
	}

	final := whole[sizes[len(sizes)-2]:]
	if !bytes.Contains(final, []byte("\x00\x03seq")) || bytes.Contains(final, []byte("kv")) ||
		bytes.Count(final, []byte("gamma")) != 1 || bytes.Count(final, []byte("third")) != 1 ||
		sizes[len(sizes)-2] != 165 || len(whole) != 345 {
		t.Fatalf("the final record (offsets %d–%d) does not carry a definition, a dictionary reference and a text back-reference at 165–345",
			sizes[len(sizes)-2], len(whole))
	}

	// Cut at every byte offset of the final record — from the last whole
	// record's end (final record fully torn) through one byte short of the
	// full file — plus the full file as a control. Every prefix must
	// recover to the state of its last whole record.
	lastWhole := sizes[len(sizes)-2]
	for cut := lastWhole; cut <= int64(len(whole)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			cdir := t.TempDir()
			cpath := filepath.Join(cdir, "state.wal")
			if err := os.WriteFile(cpath, whole[:cut], 0o644); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			db2 := New()
			walBootstrap(t, db2)
			w2, stats, err := OpenWAL(cpath, db2, 0, WALOptions{})
			if err != nil {
				t.Fatalf("recovery errored at cut %d: %v", cut, err)
			}
			db2.AttachWAL(w2)
			defer w2.Close()

			wantIdx := len(states) - 1 // full file: all commits
			wantTorn := int64(0)
			if cut < int64(len(whole)) {
				wantIdx = len(states) - 2 // torn final record: one commit less
				wantTorn = cut - lastWhole
			}
			if stats.TornBytes != wantTorn {
				t.Fatalf("TornBytes = %d, want %d", stats.TornBytes, wantTorn)
			}
			var buf bytes.Buffer
			if err := db2.Dump(&buf); err != nil {
				t.Fatalf("Dump: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), states[wantIdx]) {
				t.Fatalf("recovered state at cut %d differs from state after commit %d",
					cut, wantIdx)
			}
			// The truncated log must be writable and replayable again: the
			// next commit lands on a whole-record boundary.
			mustExec(t, db2, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("post"), Int(99))
			post := db2.LastLSN()
			if err := w2.Close(); err != nil {
				t.Fatalf("Close after recovery: %v", err)
			}
			db3 := New()
			walBootstrap(t, db3)
			w3, stats3, err := OpenWAL(cpath, db3, 0, WALOptions{})
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			db3.AttachWAL(w3)
			defer w3.Close()
			if stats3.TornBytes != 0 {
				t.Fatalf("second recovery found %d torn bytes", stats3.TornBytes)
			}
			if db3.LastLSN() != post {
				t.Fatalf("second recovery LSN = %d, want %d", db3.LastLSN(), post)
			}
		})
	}
}

// A scribbled (bit-flipped) tail must be truncated exactly like a torn one:
// the CRC rejects the record, earlier commits survive.
func TestWALCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.wal")

	db := New()
	walBootstrap(t, db)
	w, _ := openTestWAL(t, path, db, WALOptions{})
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("keep"), Int(1))
	var keep bytes.Buffer
	if err := db.Dump(&keep); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	keepSize := fi.Size()
	mustExec(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", Text("lose"), Int(2))
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip one payload byte of the final record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[keepSize+frameHeaderSize+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	db2 := New()
	walBootstrap(t, db2)
	w2, stats, err := OpenWAL(path, db2, 0, WALOptions{})
	if err != nil {
		t.Fatalf("recovery errored on corrupt tail: %v", err)
	}
	db2.AttachWAL(w2)
	defer w2.Close()
	if stats.Applied != 1 || stats.TornBytes != int64(len(data))-keepSize {
		t.Fatalf("stats = %+v, want 1 applied, %d torn", stats, int64(len(data))-keepSize)
	}
	var got bytes.Buffer
	if err := db2.Dump(&got); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	if !bytes.Equal(got.Bytes(), keep.Bytes()) {
		t.Fatal("recovered state differs from last whole record")
	}
}
