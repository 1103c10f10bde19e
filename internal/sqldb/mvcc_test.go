package sqldb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// A Query must complete while another goroutine holds an open transaction:
// reads are wait-free against the last committed root.
func TestQueryCompletesDuringOpenTx(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, 1)", Text("a"))

	tx := db.Begin()
	defer tx.Rollback() //nolint:errcheck
	if _, err := tx.Exec("INSERT INTO files (name, size) VALUES (?, 2)", Text("b")); err != nil {
		t.Fatal(err)
	}

	// The transaction is still open. A reader on another goroutine must
	// finish without waiting for it.
	done := make(chan *Rows, 1)
	errc := make(chan error, 1)
	go func() {
		rows, err := db.Query("SELECT name FROM files ORDER BY name")
		if err != nil {
			errc <- err
			return
		}
		done <- rows
	}()
	select {
	case rows := <-done:
		if len(rows.Data) != 1 || rows.Data[0][0].S != "a" {
			t.Fatalf("reader saw %v, want only the committed row 'a'", rows.Data)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("Query blocked behind an open Tx")
	}
}

// Concurrent readers observe a consistent pre-commit snapshot for the whole
// duration of a transaction, then see all of its writes after Commit.
func TestReadersSeeConsistentSnapshotMidTransaction(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 10; i++ {
		mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, ?)",
			Text(fmt.Sprintf("pre%02d", i)), Int(0))
	}

	tx := db.Begin()
	// Interleave transaction writes with reads from other goroutines: none
	// of the uncommitted rows may ever be visible, and the committed count
	// must hold steady at 10.
	for i := 0; i < 50; i++ {
		if _, err := tx.Exec("INSERT INTO files (name, size) VALUES (?, ?)",
			Text(fmt.Sprintf("txrow%02d", i)), Int(1)); err != nil {
			t.Fatal(err)
		}
		rows := mustQuery(t, db, "SELECT COUNT(*) FROM files")
		if n := rows.Data[0][0].Int(); n != 10 {
			t.Fatalf("mid-tx reader saw %d rows, want 10", n)
		}
		// The transaction itself sees its own writes.
		trows, err := tx.Query("SELECT COUNT(*) FROM files WHERE size = 1")
		if err != nil {
			t.Fatal(err)
		}
		if n := trows.Data[0][0].Int(); n != int64(i+1) {
			t.Fatalf("tx saw %d of its own rows, want %d", n, i+1)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM files")
	if n := rows.Data[0][0].Int(); n != 60 {
		t.Fatalf("post-commit count = %d, want 60", n)
	}
}

// Rollback publishes nothing: no rows, no index entries, no autoincrement
// movement, no epoch bump.
func TestRollbackPublishesNothing(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, 7)", Text("keep"))
	epoch := db.Epoch()

	tx := db.Begin()
	for i := 0; i < 20; i++ {
		if _, err := tx.Exec("INSERT INTO files (name, size) VALUES (?, ?)",
			Text(fmt.Sprintf("gone%02d", i)), Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Exec("UPDATE files SET size = 99 WHERE name = ?", Text("keep")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DELETE FROM files WHERE name = ?", Text("keep")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	if got := db.Epoch(); got != epoch {
		t.Fatalf("rollback bumped epoch %d -> %d", epoch, got)
	}
	rows := mustQuery(t, db, "SELECT size FROM files WHERE name = ?", Text("keep"))
	if len(rows.Data) != 1 || rows.Data[0][0].Int() != 7 {
		t.Fatalf("rolled-back writes leaked: %v", rows.Data)
	}
	if n, _ := db.RowCount("files"); n != 1 {
		t.Fatalf("RowCount = %d, want 1", n)
	}
	// The unique index must not retain ghost entries: names used by the
	// rolled-back transaction are insertable again.
	mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, 1)", Text("gone00"))
	// Autoincrement did not advance past the rolled-back rows' ids.
	res := mustExec(t, db, "INSERT INTO files (name) VALUES (?)", Text("next"))
	if res.LastInsertID != 3 {
		t.Fatalf("autoinc after rollback = %d, want 3", res.LastInsertID)
	}
}

// A write must commit while a large snapshot dump is in flight, and the
// dump must serialize the version it pinned, untouched by that write.
func TestSnapshotDoesNotBlockWriters(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 3000; i++ {
		mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, ?)",
			Text(fmt.Sprintf("f%05d", i)), Int(int64(i)))
	}

	// slowWriter stalls mid-dump after the first chunk until a concurrent
	// write has committed, proving Dump holds no lock writers need.
	committed := make(chan struct{})
	w := &slowWriter{started: make(chan struct{}), release: committed}
	writerDone := make(chan error, 1)
	go func() {
		<-w.started
		_, err := db.Exec("INSERT INTO files (name, size) VALUES (?, 1)", Text("during-dump"))
		close(committed)
		writerDone <- err
	}()

	if err := db.Dump(w); err != nil {
		t.Fatal(err)
	}
	if err := <-writerDone; err != nil {
		t.Fatalf("write during dump: %v", err)
	}

	// The dump is the pinned pre-write version: restoring it yields 3000
	// rows, without the row committed mid-dump.
	db2 := New()
	if err := db2.LoadSnapshot(bytes.NewReader(w.buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if n, _ := db2.RowCount("files"); n != 3000 {
		t.Fatalf("restored %d rows, want 3000", n)
	}
	rows := mustQuery(t, db2, "SELECT id FROM files WHERE name = ?", Text("during-dump"))
	if len(rows.Data) != 0 {
		t.Fatal("snapshot includes a row committed after it was pinned")
	}
	// The live database has all 3001 rows.
	if n, _ := db.RowCount("files"); n != 3001 {
		t.Fatalf("live db has %d rows, want 3001", n)
	}
}

// slowWriter signals after the first Write and then blocks until released,
// holding the dump mid-serialization.
type slowWriter struct {
	buf      bytes.Buffer
	started  chan struct{}
	release  chan struct{}
	signaled bool
	waited   bool
}

func (w *slowWriter) Write(p []byte) (int, error) {
	if !w.signaled {
		w.signaled = true
		close(w.started)
	} else if !w.waited {
		w.waited = true
		select {
		case <-w.release:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("writer never committed while dump was stalled")
		}
	}
	return w.buf.Write(p)
}

// Epoch bumps once per committed write (batch transactions included) and
// stays put on reads and rollbacks.
func TestEpochAdvancesPerCommit(t *testing.T) {
	db := newTestDB(t)
	e0 := db.Epoch()
	mustExec(t, db, "INSERT INTO files (name) VALUES (?)", Text("a"))
	if db.Epoch() != e0+1 {
		t.Fatalf("epoch after write = %d, want %d", db.Epoch(), e0+1)
	}
	mustQuery(t, db, "SELECT id FROM files")
	if db.Epoch() != e0+1 {
		t.Fatal("read bumped epoch")
	}
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 5; i++ {
			if _, err := tx.Exec("INSERT INTO files (name) VALUES (?)",
				Text(fmt.Sprintf("b%d", i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != e0+2 {
		t.Fatalf("epoch after batch = %d, want %d", db.Epoch(), e0+2)
	}
}

// Hammer the engine from concurrent readers, a dumper and a writer; run
// with -race. Readers must always observe a consistent committed count
// (pairs of rows are inserted atomically, so counts stay even).
func TestConcurrentReadersWriterAndDumper(t *testing.T) {
	db := newTestDB(t)
	const writers = 1
	const readers = 4
	const rounds = 200

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := db.Query("SELECT COUNT(*) FROM files")
				if err != nil {
					t.Error(err)
					return
				}
				if n := rows.Data[0][0].Int(); n%2 != 0 {
					t.Errorf("reader saw odd row count %d (torn transaction)", n)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := db.Dump(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < writers*rounds; i++ {
		err := db.Update(func(tx *Tx) error {
			if _, err := tx.Exec("INSERT INTO files (name) VALUES (?)",
				Text(fmt.Sprintf("p%04da", i))); err != nil {
				return err
			}
			_, err := tx.Exec("INSERT INTO files (name) VALUES (?)",
				Text(fmt.Sprintf("p%04db", i)))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n, _ := db.RowCount("files"); n != 2*writers*rounds {
		t.Fatalf("final count = %d, want %d", n, 2*writers*rounds)
	}
}

// stmtCache eviction: at the cap, inserting a new statement evicts exactly
// one arbitrary entry instead of dropping the whole cache.
func TestStmtCacheEvictsSingleEntry(t *testing.T) {
	db := newTestDB(t)
	fill := func(n int) {
		for i := 0; i < n; i++ {
			sql := fmt.Sprintf("SELECT id FROM files WHERE size = %d", i)
			if _, err := db.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(maxCachedStatements)
	db.stmtMu.RLock()
	n := len(db.stmtCache)
	db.stmtMu.RUnlock()
	if n != maxCachedStatements {
		t.Fatalf("cache holds %d statements, want %d", n, maxCachedStatements)
	}
	// One more unique statement: size must stay at the cap (one in, one out).
	if _, err := db.Query("SELECT id FROM files WHERE size = 99999999"); err != nil {
		t.Fatal(err)
	}
	db.stmtMu.RLock()
	n = len(db.stmtCache)
	_, kept := db.stmtCache["SELECT id FROM files WHERE size = 99999999"]
	db.stmtMu.RUnlock()
	if n != maxCachedStatements {
		t.Fatalf("cache holds %d statements after overflow, want %d (single eviction)", n, maxCachedStatements)
	}
	if !kept {
		t.Fatal("new statement not cached after eviction")
	}
}

// The planner turns `col IN (...)` over an indexed column into multi-point
// index probes instead of a full scan.
func TestPlannerUsesIndexForInList(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 100; i++ {
		mustExec(t, db, "INSERT INTO files (name, size) VALUES (?, ?)",
			Text(fmt.Sprintf("f%03d", i)), Int(int64(i)))
	}
	plan, err := db.Explain("SELECT id FROM files WHERE name IN (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if plan != "index-in(files_name_key)" {
		t.Fatalf("plan = %q, want index-in(files_name_key)", plan)
	}
	rows := mustQuery(t, db, "SELECT name FROM files WHERE name IN (?, ?, ?, ?) ORDER BY name",
		Text("f001"), Text("f050"), Text("f099"), Text("zzz"))
	if len(rows.Data) != 3 {
		t.Fatalf("IN query returned %d rows, want 3: %v", len(rows.Data), rows.Data)
	}
	// Duplicated list values must not duplicate result rows.
	rows = mustQuery(t, db, "SELECT name FROM files WHERE name IN (?, ?)", Text("f007"), Text("f007"))
	if len(rows.Data) != 1 {
		t.Fatalf("duplicate IN values returned %d rows, want 1", len(rows.Data))
	}
}
