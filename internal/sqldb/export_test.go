package sqldb

import "sort"

// StmtTexts returns the SQL texts in db's parse cache, sorted: every
// non-DDL statement db has run since it was created, unless the cache has
// evicted it.
func (db *DB) StmtTexts() []string {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	texts := make([]string, 0, len(db.stmtCache))
	for sql := range db.stmtCache {
		texts = append(texts, sql)
	}
	sort.Strings(texts)
	return texts
}

// Indexes maps the name of each of db's indexes to whether it enforces a
// UNIQUE constraint.
func (db *DB) Indexes() map[string]bool {
	out := map[string]bool{}
	for name, ix := range db.root.Load().indexes {
		out[name] = ix.unique
	}
	return out
}
