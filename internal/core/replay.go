package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"time"

	"mcs/internal/sqldb"
)

// ReplayCacheBound is how many completed-mutation records the replay cache
// retains. Each record is one (idempotency key, action, reply record) row;
// at the default client retry window (a few seconds) a server would need a
// sustained multi-thousand-writes-per-second mutation rate before a live
// retry could find its key already pruned — and a pruned key simply
// re-applies, which is the pre-idempotency behavior, not a new failure
// mode.
const ReplayCacheBound = 4096

// replayTableDDL creates the replay cache. at is never read; it stays
// because snapshots written by older builds declare it NOT NULL and the
// dialect cannot alter a restored table.
const replayTableDDL = `CREATE TABLE replay_cache (
	id INTEGER PRIMARY KEY AUTOINCREMENT,
	idem_key TEXT NOT NULL UNIQUE,
	action TEXT NOT NULL,
	result TEXT,
	at DATETIME NOT NULL
)`

// replayFormat opens every reply record this build writes; then come the
// call's fingerprint as 8 big-endian bytes and the reply (recordWriter).
// Rows older builds wrote hold the reply as JSON, which opens with '{', '['
// or 'n', or nothing for an op without a reply; they still answer their
// retries, unchecked, until ReplayCacheBound newer writes prune them.
const replayFormat = 0x01

// replayHeader is the format byte and the fingerprint.
const replayHeader = 9

// fingerprint is the 64-bit FNV-1a hash of action and the call's arguments
// (the caller's DN first), each argument encoded as a reply is.
func fingerprint(action string, args []any) uint64 {
	w := recordWriter{b: sqldb.AppendValue(nil, sqldb.Text(action)), h: fnv.New64a()}
	for _, a := range args {
		w.walk(reflect.ValueOf(a))
	}
	w.h.Write(w.b)
	return w.h.Sum64()
}

var timeType = reflect.TypeFor[time.Time]()

// recordWriter appends a value as sqldb tagged values, with no field names:
//   - a zero value other than a float, including a nil pointer or slice
//     and the zero time, is NULL;
//   - a struct is its fields in declaration order, and a time its unix
//     microseconds;
//   - a text equal to an earlier one of the record is INTEGER k, the index
//     of that text among the record's distinct texts (a batch reply repeats
//     its action and the caller's DN in every result), when texts is
//     non-nil; the fingerprint's writer leaves it nil, as its bytes are
//     hashed, not stored;
//   - a pointer is TRUE, then its target; a slice is its length, then its
//     elements.
//
// Replies and arguments are built of these kinds only, so any other is a bug
// in the caller.
type recordWriter struct {
	b     []byte
	texts map[string]int
	// h, when set, takes what walk wrote after each slice element, so a
	// batch's fingerprint never holds the whole batch in b.
	h hash.Hash64
}

func (w *recordWriter) walk(v reflect.Value) {
	k := v.Kind()
	if k == reflect.Struct && v.Type() != timeType {
		for i := range v.NumField() {
			w.walk(v.Field(i))
		}
		return
	}
	if v.IsZero() && k != reflect.Float64 { // -0 is zero to IsZero
		w.b = sqldb.AppendValue(w.b, sqldb.Null())
		return
	}
	switch k {
	case reflect.String:
		s := v.String()
		if i, ok := w.texts[s]; ok {
			w.b = sqldb.AppendValue(w.b, sqldb.Int(int64(i)))
			return
		}
		if w.texts != nil {
			w.texts[s] = len(w.texts)
		}
		w.b = sqldb.AppendValue(w.b, sqldb.Text(s))
	case reflect.Bool:
		w.b = sqldb.AppendValue(w.b, sqldb.Bool(true))
	case reflect.Int, reflect.Int64:
		w.b = sqldb.AppendValue(w.b, sqldb.Int(v.Int()))
	case reflect.Float64:
		w.b = sqldb.AppendValue(w.b, sqldb.Float(v.Float()))
	case reflect.Struct:
		w.b = sqldb.AppendValue(w.b, sqldb.TimeMicros(v.Interface().(time.Time).UnixMicro()))
	case reflect.Pointer:
		w.b = sqldb.AppendValue(w.b, sqldb.Bool(true))
		w.walk(v.Elem())
	case reflect.Slice:
		w.b = sqldb.AppendValue(w.b, sqldb.Int(int64(v.Len())))
		for i := range v.Len() {
			w.walk(v.Index(i))
			if w.h != nil {
				w.h.Write(w.b)
				w.b = w.b[:0]
			}
		}
	default:
		panic(fmt.Sprintf("core: a replay record cannot hold a %s", v.Type()))
	}
}

// recordReader fills values from what a recordWriter wrote. A value of the
// wrong type for its field is an error, and so are a text reference past
// the texts read so far and a slice longer than the bytes left (every
// element takes at least one).
type recordReader struct {
	b     []byte
	texts []string
}

func (r *recordReader) walk(v reflect.Value) error {
	k := v.Kind()
	if k == reflect.Struct && v.Type() != timeType {
		for i := range v.NumField() {
			if err := r.walk(v.Field(i)); err != nil {
				return err
			}
		}
		return nil
	}
	x, rest, err := sqldb.ReadValue(r.b)
	if err != nil {
		return err
	}
	r.b = rest
	switch {
	case x.T == sqldb.TypeNull:
		v.SetZero()
	case x.T == sqldb.TypeText && k == reflect.String:
		r.texts = append(r.texts, x.S)
		v.SetString(x.S)
	case x.T == sqldb.TypeInt && k == reflect.String && x.Int() >= 0 && x.Int() < int64(len(r.texts)):
		v.SetString(r.texts[x.Int()])
	case x.T == sqldb.TypeBool && k == reflect.Bool:
		v.SetBool(x.Bool())
	case x.T == sqldb.TypeInt && (k == reflect.Int || k == reflect.Int64) && !v.OverflowInt(x.Int()):
		v.SetInt(x.Int())
	case x.T == sqldb.TypeFloat && k == reflect.Float64:
		v.SetFloat(x.Float())
	case x.T == sqldb.TypeTime && v.Type() == timeType:
		v.Set(reflect.ValueOf(x.Time()))
	case x.T == sqldb.TypeBool && x.Bool() && k == reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return r.walk(v.Elem())
	case x.T == sqldb.TypeInt && k == reflect.Slice && x.Int() >= 0 && x.Int() <= int64(len(r.b)):
		n := int(x.Int())
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := range n {
			if err := r.walk(v.Index(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("a %s value where a %s belongs", x.T, v.Type())
	}
	return nil
}

// replayRecord is the record of a call with fingerprint sum and the reply
// out points to (nil for none).
func replayRecord(sum uint64, out any) string {
	w := recordWriter{b: binary.BigEndian.AppendUint64([]byte{replayFormat}, sum)}
	if out != nil {
		w.texts = map[string]int{}
		w.walk(reflect.ValueOf(out).Elem())
	}
	return string(w.b)
}

// readReplay checks the reply record blob, recorded under key, against the
// retry's fingerprint sum and decodes its reply into out when out is
// non-nil. A record of other arguments, or one that does not decode, is
// ErrInvalidInput.
func readReplay(key, blob string, sum uint64, out any) error {
	if blob == "" || blob[0] != replayFormat {
		// An older build's record: JSON, or empty for no reply, and no
		// fingerprint to check.
		if out == nil || blob == "" {
			return nil
		}
		if err := json.Unmarshal([]byte(blob), out); err != nil {
			return fmt.Errorf("%w: replay record for key %q: %v", ErrInvalidInput, key, err)
		}
		return nil
	}
	b := []byte(blob)
	if len(b) < replayHeader {
		return fmt.Errorf("%w: replay record for key %q: truncated", ErrInvalidInput, key)
	}
	if binary.BigEndian.Uint64(b[1:]) != sum {
		return fmt.Errorf("%w: idempotency key %q was already used with other arguments", ErrInvalidInput, key)
	}
	r := recordReader{b: b[replayHeader:]}
	if out != nil {
		if err := r.walk(reflect.ValueOf(out).Elem()); err != nil {
			return fmt.Errorf("%w: replay record for key %q: %v", ErrInvalidInput, key, err)
		}
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: replay record for key %q: %d bytes after the reply", ErrInvalidInput, key, len(r.b))
	}
	return nil
}

// replayGetTx looks key up in the replay cache inside tx. On a hit the
// recorded reply is decoded into out (when non-nil) and the caller must skip
// re-applying the mutation. Reusing a key for another action, or for the
// same action with other arguments (sum is the retry's fingerprint), is
// rejected: two distinct logical calls chose the same key, and replaying
// either answer for the other would corrupt the caller.
func (c *Catalog) replayGetTx(tx *sqldb.Tx, key, action string, sum uint64, out any) (bool, error) {
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
	if err := readReplay(key, rec[1].S, sum, out); err != nil {
		return false, err
	}
	c.replayHits.Add(1)
	return true, nil
}

// replayPutTx records a completed mutation's reply under key, with the
// call's fingerprint sum, and prunes the cache down to ReplayCacheBound
// entries. It runs in the mutation's own transaction, so the write, its
// audit records and its replay record commit or roll back together.
func (c *Catalog) replayPutTx(tx *sqldb.Tx, key, action string, sum uint64, out any) error {
	res, err := tx.Exec("INSERT INTO replay_cache (idem_key, action, result, at) VALUES (?, ?, ?, ?)",
		sqldb.Text(key), sqldb.Text(action), sqldb.Text(replayRecord(sum, out)), c.now())
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
// protection. args are the caller's DN and the op's arguments, which the
// record's fingerprint covers. With a key set, a repeated call is answered
// from the cache (decoded into out, a pointer to the reply) without running
// fn again; a first call runs fn and, on success, records out in the same
// transaction. Without a key it is plain db.Update.
func (c *Catalog) withReplay(op opSettings, action string, args []any, out any, fn func(tx *sqldb.Tx) error) error {
	if op.idemKey == "" {
		return c.db.Update(fn)
	}
	sum := fingerprint(action, args)
	return c.db.Update(func(tx *sqldb.Tx) error {
		if hit, err := c.replayGetTx(tx, op.idemKey, action, sum, out); hit || err != nil {
			return err
		}
		if err := fn(tx); err != nil {
			return err
		}
		return c.replayPutTx(tx, op.idemKey, action, sum, out)
	})
}

// replayedEarly reports whether key has already answered action with args.
// Ops whose precondition reads are destroyed by their own first application
// (deleting an object removes the row the permission check needs) call this
// before those reads; withReplay still performs the authoritative
// in-transaction check for the apply path.
func (c *Catalog) replayedEarly(op opSettings, action string, args []any) (bool, error) {
	if op.idemKey == "" {
		return false, nil
	}
	sum := fingerprint(action, args)
	var hit bool
	err := c.db.Update(func(tx *sqldb.Tx) error {
		var err error
		hit, err = c.replayGetTx(tx, op.idemKey, action, sum, nil)
		return err
	})
	return hit, err
}

// ReplayHits reports how many mutations were answered from the replay cache
// instead of re-applied (diagnostic; exposed on /statz).
func (c *Catalog) ReplayHits() int64 { return c.replayHits.Load() }
