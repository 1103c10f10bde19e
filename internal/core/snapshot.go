package core

import (
	"fmt"
	"io"
	"time"

	"mcs/internal/sqldb"
)

// Snapshot writes the catalog's full contents (schema, rows, indexes) to w,
// from a consistent point-in-time view. Together with Restore it gives the
// in-memory engine the restart durability of the paper's MySQL backend.
func (c *Catalog) Snapshot(w io.Writer) error {
	return c.db.Dump(w)
}

// Restore opens a catalog from a stream written by Snapshot. Options are
// applied as in Open, except that the schema and any bootstrap ACL rows
// come from the snapshot rather than being re-created. An index the
// snapshot holds but the schema no longer declares is dropped, so a
// catalog restored from an older snapshot neither keeps nor maintains it,
// and its next checkpoint writes it no more.
func Restore(opts Options, r io.Reader) (*Catalog, error) {
	if opts.EnforceAuthz && opts.Owner == "" {
		return nil, fmt.Errorf("%w: authorization requires an owner DN", ErrInvalidInput)
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	db := sqldb.New()
	if err := db.LoadSnapshot(r); err != nil {
		return nil, err
	}
	// Sanity-check that this snapshot carries an MCS schema.
	for _, required := range []string{"logical_file", "logical_collection", "user_attribute", "replay_cache"} {
		if _, err := db.RowCount(required); err != nil {
			return nil, fmt.Errorf("mcs: snapshot lacks table %q: %w", required, err)
		}
	}
	db.DropIndexesExcept(declaredIndexes)
	return &Catalog{db: db, opts: opts, authz: opts.EnforceAuthz}, nil
}

// LastLSN returns the write-ahead-log sequence number of the catalog's last
// logged commit (0 without a WAL). A snapshot taken now embeds at least
// this LSN, which is what makes it a checkpoint: log records at or below it
// are covered and may be dropped.
func (c *Catalog) LastLSN() uint64 { return c.db.LastLSN() }

// OpenWAL opens (creating if absent) the write-ahead log at path, replays
// into the catalog every record the restored snapshot does not already
// cover, and attaches the log so subsequent mutations are durably logged.
// Call it exactly once, after Open or Restore and before serving traffic:
// the catalog's own bootstrap (schema, ACL seeds, replay-cache DDL) runs
// pre-attach and is deliberately never logged — it is deterministic, so a
// fresh boot re-creates it identically before replay.
func (c *Catalog) OpenWAL(path string, opts sqldb.WALOptions) (*sqldb.WAL, sqldb.ReplayStats, error) {
	w, stats, err := sqldb.OpenWAL(path, c.db, c.db.LastLSN(), opts)
	if err != nil {
		return nil, stats, err
	}
	c.db.AttachWAL(w)
	return w, stats, nil
}
