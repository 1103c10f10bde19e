package core

import (
	"sync"

	"mcs/internal/sqldb"
)

// Table-versioned read caches.
//
// The sqldb engine stamps every table version with the epoch of the commit
// that last changed its rows or its schema (DML, DDL, snapshot load); a
// read, a rollback or a statement that changes no row leaves it alone. A
// value derived from one table is therefore valid for as long as that
// table's epoch stands, whatever commits elsewhere. Catalog memoizes four
// such values, each tagged with the epoch of the one table it reads: a DN's
// grants (acl), the collection tree with its creators (logical_collection),
// the attribute dictionary (attribute_def) and file-by-name lookups
// (logical_file).
//
// The protocol: capture the table's epoch BEFORE issuing the underlying
// query, then store the result under that epoch. If a commit lands in
// between, the query may observe the newer root and the entry holds data
// fresher than its epoch tag — equivalent to the uncached read racing the
// commit and landing after it, so still correct. The reverse (stale data
// under a fresh tag) cannot happen: queries never observe roots older than
// a previously loaded epoch.
//
// The caches apply only to reads through the database itself. A write reads
// through its open transaction around them, because a transaction must
// observe its own uncommitted writes; it decides authorization by the same
// rule from grants and a tree read through the transaction. (Letting a
// transaction use the caches for the tables it has not changed makes
// writes cheaper, more of them fit between checkpoints, and the log a
// restart replays grows with them: EXPERIMENTS.md, "Authorization in
// memory, caches by table epoch".)

// cacheMaxEntries bounds each cache's footprint; one arbitrary entry is
// evicted on overflow (the same single-victim policy as the statement
// cache — an epoch change clears everything anyway).
const cacheMaxEntries = 8192

// epochCache is a mutex-protected memo valid for exactly one table epoch.
// A lookup or store tagged with a different epoch than the cache currently
// holds discards the generation wholesale.
type epochCache[K comparable, V any] struct {
	mu    sync.Mutex
	epoch uint64
	m     map[K]V
}

func (ec *epochCache[K, V]) get(epoch uint64, k K) (V, bool) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if ec.m == nil || ec.epoch != epoch {
		var zero V
		return zero, false
	}
	v, ok := ec.m[k]
	return v, ok
}

func (ec *epochCache[K, V]) put(epoch uint64, k K, v V) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if ec.m == nil || ec.epoch != epoch {
		if epoch < ec.epoch {
			return // a reader that began before the table's last change; ignore
		}
		ec.epoch = epoch
		ec.m = make(map[K]V)
	}
	if len(ec.m) >= cacheMaxEntries {
		for old := range ec.m {
			delete(ec.m, old)
			break
		}
	}
	ec.m[k] = v
}

// cached returns the value ec holds for k at table's current epoch,
// computing it with load on a miss. Reads through a transaction call load
// and store nothing.
func cached[K comparable, V any](q querier, ec *epochCache[K, V], table string, k K, load func() (V, error)) (V, error) {
	db, ok := q.(*sqldb.DB)
	if !ok {
		return load()
	}
	epoch, _ := db.TableEpoch(table)
	if v, ok := ec.get(epoch, k); ok {
		return v, nil
	}
	v, err := load()
	if err == nil {
		ec.put(epoch, k, v)
	}
	return v, err
}

// fileCacheKey identifies one file lookup; version 0 is the "sole version"
// resolution, cached only when it succeeds (so a cached entry is known
// unambiguous at its epoch).
type fileCacheKey struct {
	name    string
	version int
}
