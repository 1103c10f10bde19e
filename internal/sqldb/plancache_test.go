package sqldb

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// planCacheQueries are one plan of each executor shape over the kv/obj
// schema of setupPlanCacheDB: an index range, a nested join, and
// intersections with a key probe into the row store and through an index.
var planCacheQueries = []string{
	"SELECT oid FROM kv WHERE k = ? AND v >= ?",
	"SELECT o.name FROM obj o JOIN kv a ON a.k = o.name WHERE o.id = ?",
	"SELECT DISTINCT o.name FROM kv a JOIN obj o ON o.id = a.oid WHERE a.k = ? AND a.v = ?",
	"SELECT a.k FROM obj o JOIN kv a ON a.oid = o.id WHERE o.name = ?",
}

// planCacheArgs are arguments for planCacheQueries, in order.
var planCacheArgs = [][]Value{{Text("k1"), Int(2)}, {Int(2)}, {Text("k2"), Int(1)}, {Text("k1")}}

func setupPlanCacheDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE obj (id INTEGER PRIMARY KEY, name TEXT NOT NULL)")
	mustExec(t, db, "CREATE INDEX obj_name ON obj (name)")
	mustExec(t, db, "CREATE TABLE kv (oid INTEGER NOT NULL, k TEXT NOT NULL, v INTEGER NOT NULL)")
	mustExec(t, db, "CREATE INDEX kv_kvo ON kv (k, v, oid)")
	mustExec(t, db, "CREATE INDEX kv_oid ON kv (oid)")
	for oid := 1; oid <= 30; oid++ {
		mustExec(t, db, "INSERT INTO obj (id, name) VALUES (?, ?)", Int(int64(oid)), Text(fmt.Sprintf("k%d", oid%4)))
		for k := 0; k < 3; k++ {
			mustExec(t, db, "INSERT INTO kv (oid, k, v) VALUES (?, ?, ?)",
				Int(int64(oid)), Text(fmt.Sprintf("k%d", k)), Int(int64(oid%4)))
		}
	}
	return db
}

// TestCachedPlanPinsNoTableVersion: a plan outlives commits, so it must
// hold definitions only. Every table and index version the cached plans
// read is replaced by commits, and each must then become garbage while the
// cache still serves the very same plans.
func TestCachedPlanPinsNoTableVersion(t *testing.T) {
	db := setupPlanCacheDB(t)
	plans := make([]*selectPlan, len(planCacheQueries))
	for i, q := range planCacheQueries {
		mustQuery(t, db, q, planCacheArgs[i]...)
		plans[i] = cachedPlan(db, q)
	}
	var freed atomic.Int32
	watched := 0
	func() {
		root := db.root.Load()
		for _, name := range []string{"obj", "kv"} {
			tbl := root.tables[name]
			runtime.SetFinalizer(tbl, func(*table) { freed.Add(1) })
			watched++
			for _, ix := range tbl.indexes {
				runtime.SetFinalizer(ix, func(*index) { freed.Add(1) })
				watched++
			}
		}
	}()
	// Two commits per table: the first replaces the watched versions, the
	// second the root the first published, in case anything holds a root.
	for i := 0; i < 2; i++ {
		mustExec(t, db, "INSERT INTO obj (id, name) VALUES (?, ?)", Int(int64(100+i)), Text("k1"))
		mustExec(t, db, "INSERT INTO kv (oid, k, v) VALUES (?, ?, ?)", Int(int64(100+i)), Text("k1"), Int(2))
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < int32(watched) && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := freed.Load(); n != int32(watched) {
		t.Fatalf("%d of %d superseded table and index versions are still reachable: a cached plan pins them", int32(watched)-n, watched)
	}
	for i, q := range planCacheQueries {
		mustQuery(t, db, q, planCacheArgs[i]...)
		if cachedPlan(db, q) != plans[i] {
			t.Fatalf("%q was recompiled after data-only commits", q)
		}
	}
}

// TestPlanParityAcrossCreateIndex (part of `make planparity`, under -race):
// readers repeat cached SELECTs while CREATE INDEX commits move the schema
// generation under them, so plans are recompiled and replaced while others
// run. The data never changes, so every read must match the naive
// evaluator.
func TestPlanParityAcrossCreateIndex(t *testing.T) {
	db := setupPlanCacheDB(t)
	want := make([][]string, len(planCacheQueries))
	for i, q := range planCacheQueries {
		naive, err := db.QueryNaive(q, planCacheArgs[i]...)
		if err != nil {
			t.Fatal(err)
		}
		if want[i] = rowMultiset(naive); len(want[i]) == 0 {
			t.Fatalf("%q returns no rows; the check is vacuous", q)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, q := range planCacheQueries {
					rows, err := db.Query(q, planCacheArgs[i]...)
					if err != nil {
						t.Error(err)
						return
					}
					if got := rowMultiset(rows); !slices.Equal(got, want[i]) {
						t.Errorf("%q: rows %v, want %v", q, got, want[i])
						return
					}
					reads.Add(1)
				}
			}
		}()
	}
	for _, ddl := range []string{
		"CREATE INDEX kv_oid_k ON kv (oid, k)",
		"CREATE INDEX kv_v ON kv (v)",
		"CREATE INDEX obj_name_id ON obj (name, id)",
		"CREATE INDEX kv_k ON kv (k)",
		"CREATE INDEX kv_vk ON kv (v, k)",
	} {
		// Let the readers get through some reads on each generation.
		for target := reads.Load() + 20; reads.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
		mustExec(t, db, ddl)
	}
	close(stop)
	wg.Wait()
}
