package core

import (
	"encoding/json"
	"fmt"

	"mcs/internal/sqldb"
)

// ReplayCacheBound is how many completed-mutation records the replay cache
// retains. Each record is one (idempotency key, action, JSON result) row;
// at the default client retry window (a few seconds) a server would need a
// sustained multi-thousand-writes-per-second mutation rate before a live
// retry could find its key already pruned — and a pruned key simply
// re-applies, which is the pre-idempotency behavior, not a new failure
// mode.
const ReplayCacheBound = 4096

// replayTableDDL creates the replay cache.
const replayTableDDL = `CREATE TABLE replay_cache (
	id INTEGER PRIMARY KEY AUTOINCREMENT,
	idem_key TEXT NOT NULL UNIQUE,
	action TEXT NOT NULL,
	result TEXT,
	at DATETIME NOT NULL
)`

// replayGetTx looks key up in the replay cache inside tx. On a hit the
// recorded result is decoded into out (when both are non-nil) and the
// caller must skip re-applying the mutation. Reusing a key for a different
// action is rejected: it means two distinct logical calls chose the same
// key, and replaying either answer for the other would corrupt the caller.
func (c *Catalog) replayGetTx(tx *sqldb.Tx, key, action string, out any) (bool, error) {
	rows, err := tx.Query("SELECT action, result FROM replay_cache WHERE idem_key = ?", sqldb.Text(key))
	if err != nil {
		return false, err
	}
	if len(rows.Data) == 0 {
		return false, nil
	}
	rec := rows.Data[0]
	if rec[0].S != action {
		return false, fmt.Errorf("%w: idempotency key %q was already used for %s",
			ErrInvalidInput, key, rec[0].S)
	}
	if out != nil && rec[1].S != "" {
		if err := json.Unmarshal([]byte(rec[1].S), out); err != nil {
			return false, fmt.Errorf("%w: replay record for key %q: %v", ErrInvalidInput, key, err)
		}
	}
	c.replayHits.Add(1)
	return true, nil
}

// replayPutTx records a completed mutation's result under key and prunes
// the cache down to ReplayCacheBound entries. It runs in the mutation's own
// transaction, so the write, its audit records and its replay record commit
// or roll back together.
func (c *Catalog) replayPutTx(tx *sqldb.Tx, key, action string, result any) error {
	blob := ""
	if result != nil {
		b, err := json.Marshal(result)
		if err != nil {
			return fmt.Errorf("%w: encoding replay record: %v", ErrInvalidInput, err)
		}
		blob = string(b)
	}
	res, err := tx.Exec("INSERT INTO replay_cache (idem_key, action, result, at) VALUES (?, ?, ?, ?)",
		sqldb.Text(key), sqldb.Text(action), sqldb.Text(blob), c.now())
	if err != nil {
		return err
	}
	if cutoff := res.LastInsertID - ReplayCacheBound; cutoff > 0 {
		if _, err := tx.Exec("DELETE FROM replay_cache WHERE id <= ?", sqldb.Int(cutoff)); err != nil {
			return err
		}
	}
	return nil
}

// withReplay runs a mutating transaction body under idempotency-key replay
// protection. With a key set, a repeated call is answered from the cache
// (decoded into out) without running fn again; a first call runs fn and, on
// success, records out in the same transaction. Without a key it is plain
// db.Update.
func (c *Catalog) withReplay(op opSettings, action string, out any, fn func(tx *sqldb.Tx) error) error {
	return c.db.Update(func(tx *sqldb.Tx) error {
		if op.idemKey != "" {
			if hit, err := c.replayGetTx(tx, op.idemKey, action, out); hit || err != nil {
				return err
			}
		}
		if err := fn(tx); err != nil {
			return err
		}
		if op.idemKey != "" {
			return c.replayPutTx(tx, op.idemKey, action, out)
		}
		return nil
	})
}

// replayedEarly reports whether key has already answered action. Ops whose
// precondition reads are destroyed by their own first application (deleting
// an object removes the row the permission check needs) call this before
// those reads; withReplay still performs the authoritative in-transaction
// check for the apply path.
func (c *Catalog) replayedEarly(op opSettings, action string, out any) (bool, error) {
	if op.idemKey == "" {
		return false, nil
	}
	var hit bool
	err := c.db.Update(func(tx *sqldb.Tx) error {
		var err error
		hit, err = c.replayGetTx(tx, op.idemKey, action, out)
		return err
	})
	return hit, err
}

// ReplayHits reports how many mutations were answered from the replay cache
// instead of re-applied (diagnostic; exposed on /statz).
func (c *Catalog) ReplayHits() int64 { return c.replayHits.Load() }
