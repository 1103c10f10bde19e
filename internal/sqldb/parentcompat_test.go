package sqldb_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mcs/internal/core"
	"mcs/internal/sqldb"
)

// Compatibility with the files a build from before the INTEGER PRIMARY KEY
// became the rowid wrote (commit fdb5d2d). Such a build kept a unique
// <table>_id_key index beside every row store, five catalog indexes no
// statement read (ua_oid, lf_name_id, lc_name_id, lv_name_id,
// acl_principal), and counted rowids per insert whatever the ids.
//
// testdata/parent_catalog.snap is a catalog it dumped: two attribute
// definitions, a collection, a view, six files with attributes created
// under idempotency keys, one of them deleted, and writer rows whose ids
// are 1 (assigned), then 50, 7, 0 and -2 (explicit), so that ids and
// rowids differ and ascend in different orders. testdata/parent_catalog.wal
// is the log it wrote on top of that snapshot — three creates, an attribute
// update, a delete, a writer registration, an explicit writer id -7 and an
// annotation — and testdata/parent_catalog_final.snap its dump after them.

// parentCatalogTables are the tables of parent_catalog.snap.
var parentCatalogTables = []string{
	"acl", "annotation", "attribute_def", "audit_log", "external_catalog", "logical_collection",
	"logical_file", "logical_view", "provenance", "replay_cache", "user_attribute", "view_member", "writer",
}

// indexNames lists db's indexes, sorted.
func indexNames(db *sqldb.DB) []string {
	var names []string
	for name := range db.Indexes() {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkIDLookups requires every row of every catalog table to be found by
// a lookup by its id, and the writers to hold their ids. (The loader
// itself holds each table to the row count its definition promises.)
func checkIDLookups(t *testing.T, db *sqldb.DB, ctx string) {
	t.Helper()
	for _, table := range parentCatalogTables {
		ids, err := db.Query("SELECT id FROM " + table)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		for _, r := range ids.Data {
			n, err := db.Query("SELECT COUNT(*) FROM "+table+" WHERE id = ?", r[0])
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if got := n.Data[0][0].Int(); got != 1 {
				t.Fatalf("%s: %s id %d: lookup finds %d rows", ctx, table, r[0].Int(), got)
			}
		}
	}
	for id, dn := range map[int64]string{1: "/CN=w-auto", 50: "/CN=w50", 7: "/CN=w7", 0: "/CN=w0", -2: "/CN=w-2"} {
		rows, err := db.Query("SELECT dn FROM writer WHERE id = ?", sqldb.Int(id))
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if len(rows.Data) != 1 || rows.Data[0][0].S != dn {
			t.Fatalf("%s: writer id %d = %v, want %s", ctx, id, rows.Data, dn)
		}
	}
}

// TestParentSnapshotRestores: the parent's snapshot loads with every row,
// keyed by its id; LoadSnapshot sheds the _id_key indexes, and core.Restore
// the indexes the catalog schema no longer declares, leaving exactly the
// index set a fresh catalog has. The parent's log then replays onto it to
// the database its own final snapshot restores to, byte for byte.
func TestParentSnapshotRestores(t *testing.T) {
	snap := readTestdata(t, "parent_catalog.snap")

	db := sqldb.New()
	if err := db.LoadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	for name := range db.Indexes() {
		if strings.HasSuffix(name, "_id_key") {
			t.Errorf("LoadSnapshot rebuilt the primary-key index %s", name)
		}
	}
	if _, kept := db.Indexes()["ua_oid"]; !kept {
		t.Error("LoadSnapshot dropped ua_oid: only core knows the catalog schema")
	}
	checkIDLookups(t, db, "LoadSnapshot")

	fresh, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := indexNames(fresh.DB())
	restore := func(name string) *core.Catalog {
		t.Helper()
		cat, err := core.Restore(core.Options{}, bytes.NewReader(readTestdata(t, name)))
		if err != nil {
			t.Fatal(err)
		}
		if got := indexNames(cat.DB()); !slices.Equal(got, want) {
			t.Fatalf("%s restores with indexes\n  %v\nthe schema declares\n  %v", name, got, want)
		}
		return cat
	}
	cat := restore("parent_catalog.snap")
	checkIDLookups(t, cat.DB(), "core.Restore")

	wal := filepath.Join(t.TempDir(), "parent_catalog.wal")
	if err := os.WriteFile(wal, readTestdata(t, "parent_catalog.wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, stats, err := cat.OpenWAL(wal, sqldb.WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.Applied == 0 || stats.Applied != stats.Records {
		t.Fatalf("replay applied %d of %d records, want all of several", stats.Applied, stats.Records)
	}
	checkIDLookups(t, cat.DB(), "replayed")
	if rows, err := cat.DB().Query("SELECT dn FROM writer WHERE id = ?", sqldb.Int(-7)); err != nil || len(rows.Data) != 1 {
		t.Fatalf("the replayed writer id -7: %v, %v", rows, err)
	}
	var replayed, final bytes.Buffer
	if err := cat.Snapshot(&replayed); err != nil {
		t.Fatal(err)
	}
	if err := restore("parent_catalog_final.snap").Snapshot(&final); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed.Bytes(), final.Bytes()) {
		t.Fatalf("the parent's log replays to a %d-byte dump; its final snapshot restores to %d other bytes",
			replayed.Len(), final.Len())
	}
}
